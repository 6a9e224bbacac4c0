"""CLI contract: subcommands, exit codes, file outputs, overrides."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import avpipesim
from avpipesim import cli
from avpipesim.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, _sweep_workers, main
from avpipesim.pipeline import (Channel, ChannelPolicy, ExecutionPattern, FusionSpec,
                                LatencyModel, NodeRole, NodeSpec, NoiseKind,
                                NoiseSpec, PipelineGraph, save_pipeline)
from avpipesim.scenario import (MAX_TIME_US, AgentKind, AgentState, Scenario,
                                TrajectorySpec, save_scenario)
from avpipesim.simkernel import ms, sec
from avpipesim.trace import RunTrace

from conftest import chain_pipeline
from fixtures import av_groups, av_pipeline


@pytest.fixture
def workdir(tmp_path):
    sc = Scenario(
        ego_initial=AgentState(s_m=0, l_m=0, v_mps=10.0, a_mps2=0),
        agents=(("lead", AgentKind.VEHICLE, TrajectorySpec(
            initial=AgentState(s_m=30.0, l_m=0, v_mps=10.0, a_mps2=0),
            segments=((sec(2), -6.0),))),),
        duration_us=sec(5),
        hazard_events=((sec(2), "lead", "brake"),),
    )
    graph = chain_pipeline({"detect": (ms(20), NodeRole.PERCEPTION),
                            "act": (ms(5), NodeRole.CONTROL)})
    sc_path = tmp_path / "scenario.json"
    pl_path = tmp_path / "pipeline.json"
    save_scenario(sc, sc_path)
    save_pipeline(graph, pl_path)
    cfg = {
        "format": 1,
        "scenario": "scenario.json",
        "pipeline": "pipeline.json",
        "groups": [{"name": "main", "workers": 2,
                    "pinned_nodes": ["sensor", "detect", "act"]}],
        "seed": 3,
        "out": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    return tmp_path


def test_validate_ok(workdir, capsys):
    rc = main(["validate", "--scenario", str(workdir / "scenario.json"),
               "--pipeline", str(workdir / "pipeline.json")])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_missing_file(workdir, capsys):
    rc = main(["validate", "--scenario", str(workdir / "nope.json"),
               "--pipeline", str(workdir / "pipeline.json")])
    assert rc == EXIT_VALIDATION
    assert "missing file" in capsys.readouterr().err


def test_validate_reports_cycle(workdir, capsys):
    # a cyclic PipelineGraph cannot be built, so its file is written by hand
    nodes = [{"name": "a", "pattern": "interrupt", "inputs": ["y"], "outputs": ["x"],
              "latency": {"offset_us": ms(1)}},
             {"name": "b", "pattern": "interrupt", "inputs": ["x"], "outputs": ["y"],
              "latency": {"offset_us": ms(1)}}]
    bad = workdir / "cyclic.json"
    bad.write_text(json.dumps({"format": 1, "nodes": nodes,
                               "channels": [{"id": "x"}, {"id": "y"}]}))
    rc = main(["validate", "--scenario", str(workdir / "scenario.json"),
               "--pipeline", str(bad)])
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "cycle" in err and "->" in err


def test_validate_rejects_unknown_field(workdir, capsys):
    obj = json.loads((workdir / "scenario.json").read_text())
    obj["extra_knob"] = True
    bad = workdir / "bad_scenario.json"
    bad.write_text(json.dumps(obj))
    rc = main(["validate", "--scenario", str(bad),
               "--pipeline", str(workdir / "pipeline.json")])
    assert rc == EXIT_VALIDATION
    assert "extra_knob" in capsys.readouterr().err


def _set(path, value):
    """Mutation of a loaded JSON object: assign value at path (keys and
    indexes); value None deletes the key."""
    def apply(obj):
        *head, last = path
        for k in head:
            obj = obj[k]
        if value is None:
            del obj[last]
        else:
            obj[last] = value
    return apply


def _dump(obj) -> str:
    """obj as JSON text: NaN as the bare constant, an infinity as 1e999,
    which json parses to it too."""
    return json.dumps(obj).replace("Infinity", "1e999")


# 10**400 as a message shows it: a run of more than 24 digits is cut short
HUGE = "100000000000...(401 digits)"
# an integer of more digits than Python reads by default (4,300)
TOO_LONG = "an integer too long to read (5001 digits)"

# files that loaded, and then ended run in a traceback or ran wrong
BOUND_CASES = [
    ("scenario.json", _set(("d_buffer_m",), 0.0), "scenario: d_buffer_m: expected > 0, got 0.0"),
    ("scenario.json", _set(("d_buffer_m",), -2.0), "scenario: d_buffer_m: expected > 0, got -2.0"),
    ("pipeline.json", _set(("nodes", 0, "latency", "noise"), {"kind": "lognormal", "sigma": -0.5}),
     "nodes[0].latency.noise: sigma: expected >= 0, got -0.5"),
    ("pipeline.json", _set(("nodes", 0, "latency", "noise"), {"kind": "uniform", "jitter_us": -3}),
     "nodes[0].latency.noise: jitter_us: expected >= 0, got -3"),
    ("pipeline.json", _set(("nodes", 0, "inputs"), ["ch_detect", "ch_detect"]),
     "nodes[0]: node act: channel 'ch_detect' listed twice in inputs"),
    ("pipeline.json", _set(("nodes", 0, "outputs"), ["ch_act", "ch_act"]),
     "nodes[0]: node act: channel 'ch_act' listed twice in outputs"),
    # once accepted: run exited 0 after a numpy overflow, the lead never seen
    ("scenario.json", _set(("agents", 0, "initial", "v_mps"), 1e308),
     "agents[0].initial: v_mps: expected magnitude <= 1e+12, got 1e+308"),
    ("scenario.json", _set(("ego", "s_m"), -2e12),
     "ego: s_m: expected magnitude <= 1e+12, got -2000000000000.0"),
    ("scenario.json", _set(("agents", 0, "segments"), [{"start_us": 0, "a_mps2": -1e300}]),
     "agents[0]: segments[0].a_mps2: expected magnitude <= 1e+12, got -1e+300"),
    # once accepted: run ended in an OverflowError, as engine instants are int64
    ("scenario.json", _set(("duration_us",), 2**64),
     "scenario: duration_us: expected > 0 and <= 2**63 - 1, got 18446744073709551616"),
    ("scenario.json", _set(("agents", 0, "segments"), [{"start_us": 2**63, "a_mps2": -6.0}]),
     "agents[0]: segments[0].start_us: expected in [0, 2**63 - 1], got 9223372036854775808"),
    ("scenario.json", _set(("agents", 0, "visible_from_us"), -2**63 - 1),
     "agents[0]: visible_from_us: expected magnitude <= 2**63 - 1, got -9223372036854775809"),
    # once refused without naming the field
    ("scenario.json", _set(("ego", "v_mps"), -1.0), "ego: v_mps: expected >= 0, got -1.0"),
    ("scenario.json", _set(("agents", 0, "segments"), [{"start_us": 5, "a_mps2": -1.0},
                                                       {"start_us": 5, "a_mps2": 1.0}]),
     "agents[0]: segments[1].start_us: expected > segments[0].start_us (5), got 5"),
    ("scenario.json", _set(("agents", 0, "segments"), [{"start_us": -1, "a_mps2": -1.0}]),
     "agents[0]: segments[0].start_us: expected in [0, 2**63 - 1], got -1"),
    # once refused as malformed JSON (NaN), accepted (1e999), or an OverflowError (10**400)
    ("scenario.json", _set(("d_buffer_m",), math.nan),
     "scenario.d_buffer_m: expected a number, got nan"),
    ("scenario.json", _set(("d_buffer_m",), math.inf),
     "scenario.d_buffer_m: expected a number, got inf"),
    ("scenario.json", _set(("d_buffer_m",), 10**400),
     f"scenario.d_buffer_m: expected a number, got {HUGE}"),
    ("pipeline.json", _set(("nodes", 0, "latency", "lookahead_cost_us_per_m"), math.nan),
     "nodes[0].latency.lookahead_cost_us_per_m: expected a number, got nan"),
    ("pipeline.json", _set(("nodes", 0, "latency", "lookahead_cost_us_per_m"), math.inf),
     "nodes[0].latency.lookahead_cost_us_per_m: expected a number, got inf"),
    ("pipeline.json", _set(("nodes", 0, "latency", "lookahead_cost_us_per_m"), 10**400),
     f"nodes[0].latency.lookahead_cost_us_per_m: expected a number, got {HUGE}"),
    # once accepted, and then run ended in an OverflowError
    ("pipeline.json", _set(("nodes", 0, "lookahead_m"), 1e308),
     "nodes[0]: lookahead_m: expected <= 1e+12, got 1e+308"),
    ("pipeline.json", _set(("nodes", 0, "latency", "noise"),
                           {"kind": "lognormal", "sigma": 1000.0}),
     "nodes[0].latency.noise: sigma: expected <= 10, got 1000.0"),
    ("pipeline.json", _set(("nodes", 0, "latency", "contention"),
                           {"slope_us_per_miss": 1e300, "misses_per_unit": 1e300}),
     "nodes[0].latency.contention: slope_us_per_miss: expected <= 1e+12, got 1e+300"),
    ("pipeline.json", _set(("nodes", 0, "latency", "noise"),
                           {"kind": "uniform", "jitter_us": 10**400}),
     f"nodes[0].latency.noise: jitter_us: expected <= 9223372036854775807, got {HUGE}"),
    ("pipeline.json", _set(("nodes", 0, "latency"),
                           {"offset_us": 10**400, "noise": {"kind": "lognormal", "sigma": 0.1}}),
     f"nodes[0].latency: offset_us: expected <= 9223372036854775807, got {HUGE}"),
    # once accepted: a negative lookahead lowered the node's latency, a huge
    # cost left no frame finished, an interrupt sensor never ran
    ("pipeline.json", _set(("nodes", 0, "lookahead_m"), -50),
     "nodes[0]: lookahead_m: expected >= 0, got -50.0"),
    ("pipeline.json", _set(("nodes", 0, "latency"), {"per_kind_cost_us": {"vehicle": 10**400}}),
     f"nodes[0].latency: per_kind_cost_us.vehicle: expected in [0, 9223372036854775807], "
     f"got {HUGE}"),
    ("pipeline.json", _set(("nodes", 2, "pattern"), "interrupt"),
     "nodes[2]: node sensor: sensor nodes use the timing pattern"),
]
BOUND_IDS = ["dbuffer-zero", "dbuffer-negative", "sigma-negative", "jitter-negative",
             "inputs-twice", "outputs-twice", "speed-huge", "ego-position-huge",
             "segment-accel-huge", "duration-huge", "segment-start-huge", "visible-from-huge",
             "ego-speed-negative", "segment-starts-unordered", "segment-start-negative",
             "dbuffer-nan", "dbuffer-inf", "dbuffer-int-huge", "lookahead-cost-nan",
             "lookahead-cost-inf", "lookahead-cost-int-huge", "node-lookahead-huge",
             "sigma-huge", "contention-huge", "jitter-huge", "offset-huge",
             "node-lookahead-negative", "kind-cost-huge", "sensor-interrupt"]


@pytest.mark.parametrize("name, mutate, expect", BOUND_CASES, ids=BOUND_IDS)
def test_validate_bad_input_exits_1_with_message(workdir, capsys, name, mutate, expect):
    path = workdir / name
    obj = json.loads(path.read_text())
    mutate(obj)
    path.write_text(_dump(obj))
    rc = main(["validate", "--scenario", str(workdir / "scenario.json"),
               "--pipeline", str(workdir / "pipeline.json")])
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION
    assert err == f"error: {expect}\n"


@pytest.mark.parametrize("name, mutate, expect", [
    ("pipeline.json", _set(("nodes", 0, "pattern"), "bogus"), "nodes[0]: 'bogus'"),
    ("pipeline.json", _set(("nodes", 0, "role"), "x"), "nodes[0]: 'x'"),
    ("pipeline.json", _set(("nodes", 0, "name"), None), "nodes[0]: missing field 'name'"),
    ("config.json", _set(("groups", 0, "name"), None), "groups[0]: missing field 'name'"),
    ("config.json", _set(("groups",), 5), "groups:"),
    ("config.json", _set(("seed",), "abc"), "'abc'"),
    ("config.json", _set(("rss",), {"reaction_s": 0.5}), "rss: unknown fields"),
    ("scenario.json", _set(("duration_us",), math.nan),
     "error: scenario.duration_us: expected an integer, got nan"),
    ("config.json", _set(("sensor_range_m",), math.nan),
     "error: config.sensor_range_m: expected a number, got nan"),
    ("config.json", _set(("mitigation",), {"fastpath": "off"}),
     "mitigation.fastpath: expected true or false, got 'off'"),
    ("config.json", _set(("mitigation",), {"cancel_proactive_every_frame": 1}),
     "mitigation.cancel_proactive_every_frame: expected true or false"),
    ("config.json", _set(("groups", 0, "workers"), 2.9),
     "groups[0].workers: expected an integer, got 2.9"),
    ("config.json", _set(("groups", 0, "workers"), True),
     "groups[0].workers: expected an integer, got True"),
    ("config.json", _set(("tick_us",), "abc"), "config.tick_us: expected an integer"),
    ("config.json", _set(("rss",), {"response_time_us": 1e5 + 0.5}),
     "rss.response_time_us: expected an integer"),
    ("scenario.json", _set(("duration_us",), 5e6 + 0.5), "scenario.duration_us:"),
    ("scenario.json", _set(("hazards", 0, "time_us"), "2000000"),
     "hazards[0].time_us: expected an integer"),
    ("pipeline.json", _set(("nodes", 0, "latency", "offset_us"), 5000.5),
     "nodes[0].latency.offset_us: expected an integer"),
    ("pipeline.json", _set(("channels", 0, "capacity"), 8.5),
     "channels[0].capacity: expected an integer"),
    ("config.json", _set(("sensor_range_m",), "60"),
     "config.sensor_range_m: expected a number, got '60'"),
    ("config.json", _set(("mitigation",), {"radius_m": "15"}),
     "mitigation.radius_m: expected a number, got '15'"),
    ("scenario.json", _set(("agents", 0, "initial", "s_m"), "30"),
     "agents[0].initial.s_m: expected a number, got '30'"),
    ("pipeline.json", _set(("nodes", 0, "latency", "noise"),
                           {"kind": "lognormal", "sigma": True}),
     "nodes[0].latency.noise.sigma: expected a number, got True"),
    ("config.json", _set(("groups", 0, "name"), 5),
     "groups[0].name: expected a string, got 5"),
    ("config.json", _set(("scenario",), 3), "config.scenario: expected a string, got 3"),
    ("scenario.json", _set(("agents", 0, "id"), 5), "agents[0].id: expected a string, got 5"),
    ("scenario.json", _set(("hazards", 0, "agent_id"), ["lead"]),
     "hazards[0].agent_id: expected a string, got ['lead']"),
    ("pipeline.json", _set(("channels", 0, "id"), 7), "channels[0].id: expected a string, got 7"),
    ("config.json", _set(("groups", 0, "pinned_nodes"), "ab"),
     "groups[0].pinned_nodes: expected a list of strings, got 'ab'"),
    ("pipeline.json", _set(("nodes", 0, "inputs"), [1]),
     "nodes[0].inputs: expected a list of strings, got [1]"),
    ("pipeline.json", _set(("channels", 0, "capacity"), 0),
     "channels[0]: capacity: expected >= 1, got 0"),
    ("pipeline.json", _set(("channels", 1, "capacity"), -3),
     "channels[1]: capacity: expected >= 1, got -3"),
    ("config.json", _set(("actuation_delay_us",), -1),
     "config: actuation_delay_us: expected >= 0, got -1"),
    ("config.json", _set(("format",), True), "format: expected 1, got True"),
    ("scenario.json", _set(("format",), True), "format: expected 1, got True"),
    ("pipeline.json", _set(("format",), True), "format: expected 1, got True"),
    ("config.json", _set(("groups", 0, "budget_us"), -5),
     "groups[0]: budget_us: expected >= 0, got -5"),
    ("config.json", _set(("sensor_range_m",), -1.5),
     "config: sensor_range_m: expected >= 0, got -1.5"),
    ("config.json", _set(("response_margin_us",), -1),
     "config: response_margin_us: expected >= 0, got -1"),
    ("config.json", _set(("mitigation",), {"fast_lookahead_m": -2.0}),
     "mitigation: fast_lookahead_m: expected >= 0, got -2.0"),
    ("config.json", _set(("mitigation",), {"deadline_cap_us": -7}),
     "mitigation: deadline_cap_us: expected >= 0, got -7"),
    ("config.json", _set(("groups", 0, "pinned_nodes"), ["sensor", "detect", "act", "ghost"]),
     "group main pins unknown node 'ghost'"),
    ("config.json", _set(("groups", 0, "pinned_nodes"), ["sensor", "detect"]),
     "node act is not pinned to any group"),
    ("config.json", _set(("brake_level_mps2",), 1e308),
     "config: brake_level_mps2: expected in [-1e+12, 0], got 1e+308"),
    ("config.json", _set(("mitigation",), {"radius_m": 0.0}),
     "mitigation: criticality_radius_m: expected > 0, got 0.0"),
    ("config.json", _set(("mitigation",), {"safety_factor": 0.5}),
     "mitigation: steal_safety_factor: expected >= 1, got 0.5"),
    # once an OverflowError traceback, from pricing a fastpath or a steal
    ("config.json", _set(("mitigation",), {"fast_lookahead_m": 1e308}),
     "mitigation: fast_lookahead_m: expected <= 1e+12, got 1e+308"),
    ("config.json", _set(("mitigation",), {"safety_factor": 1e308}),
     "mitigation: steal_safety_factor: expected <= 1e+12, got 1e+308"),
    ("config.json", _set(("rss",), {"a_max_accel_mps2": -2.0}),
     "rss: a_max_accel: expected > 0, got -2.0"),
    ("config.json", _set(("rss",), {"a_min_brake_mps2": 9.0}),
     "rss: a_min_brake: expected <= a_max_brake (8.0), got 9.0"),
    ("config.json", _set(("groups",), [{"name": "main", "pinned_nodes": ["sensor"]},
                                        {"name": "main", "workers": 3,
                                         "pinned_nodes": ["detect", "act"]}]),
     "error: duplicate group name: 'main'"),
    ("scenario.json", _set(("hazards", 0, "time_us"), -5),
     "error: scenario: hazards[0].time_us: expected in [0, duration_us (5000000)), got -5"),
    # once accepted (1e999), or an OverflowError (10**400)
    ("config.json", _set(("sensor_range_m",), math.inf),
     "error: config.sensor_range_m: expected a number, got inf"),
    ("config.json", _set(("sensor_range_m",), 10**400),
     f"error: config.sensor_range_m: expected a number, got {HUGE}"),
    ("config.json", _set(("rss",), {"response_time_us": 10**400}),
     f"error: rss: response_time_us: expected <= 9223372036854775807, got {HUGE}"),
    ("config.json", _set(("actuation_delay_us",), 10**400),
     f"error: config: actuation_delay_us: expected <= 9223372036854775807, got {HUGE}"),
    *BOUND_CASES,
], ids=["pattern", "role", "node-name", "group-name", "groups-int", "seed-str",
        "rss-key", "duration-nan", "range-nan", "fastpath-str", "cancel-int",
        "workers-frac", "workers-bool", "tick-str", "response-frac", "duration-frac",
        "hazard-str", "offset-frac", "capacity-frac", "range-str", "radius-str",
        "state-str", "sigma-bool", "group-name-int", "scenario-path-int", "agent-id-int",
        "hazard-agent-list", "channel-id-int", "pinned-str", "inputs-int", "capacity-zero",
        "capacity-negative", "actuation-negative", "config-format-bool",
        "scenario-format-bool", "pipeline-format-bool", "budget-negative",
        "range-negative", "margin-negative", "lookahead-negative", "cap-negative",
        "pin-unknown", "pin-missing", "brake-huge", "radius-zero", "safety-factor-low",
        "lookahead-huge", "safety-factor-huge",
        "rss-accel-negative", "rss-brakes-crossed", "group-name-twice", "hazard-negative",
        "range-inf", "range-int-huge", "rss-response-huge", "actuation-huge", *BOUND_IDS])
def test_run_bad_input_exits_1_with_message(workdir, capsys, name, mutate, expect):
    path = workdir / name
    obj = json.loads(path.read_text())
    mutate(obj)
    path.write_text(_dump(obj))
    rc = main(["run", "--config", str(workdir / "config.json")])
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION
    assert err.startswith("error:") and expect in err and "Traceback" not in err


@pytest.mark.parametrize("ego, agent, period_us, duration_us, expect", [
    ((0, 0), (10, 10), 2**62, 2**63 - 1,
     "agent 'a': s_m within duration_us 9223372036854775807: expected magnitude <= 1e+12, "
     "got 92233720368557.75"),
    ((0, 10), (10, 10), 2**62, 2**63 - 1,
     "ego: s_m within duration_us 9223372036854775807: expected magnitude <= 1e+12, "
     "got 92233720368547.75"),
    ((1e12 - 30, 0), (1e12 - 190, 200), sec(1), sec(1),
     "agent 'a': s_m within duration_us 1000000: expected magnitude <= 1e+12, "
     "got 1000000000010.0"),
], ids=["safety-tick", "ego", "capture"])
def test_run_state_derived_past_bound_names_agent_and_instant(tmp_path, capsys, ego, agent,
                                                               period_us, duration_us, expect):
    """Every input state is inside its bound, but the agent (or the ego)
    leaves it before duration_us: validate and run both refuse the file,
    naming the agent and duration_us. ego and agent are (s_m, v_mps); the
    sensor period is the tick. The first case once passed validate, and
    the three once failed only mid-run, at a safety tick, an ego state
    and a capture."""
    def state(s_m, v_mps):
        return AgentState(s_m=s_m, l_m=0, v_mps=v_mps, a_mps2=0)

    sc = Scenario(ego_initial=state(*ego), duration_us=1,
                  agents=(("a", AgentKind.VEHICLE, TrajectorySpec(initial=state(*agent))),))
    save_scenario(sc, tmp_path / "scenario.json")
    obj = json.loads((tmp_path / "scenario.json").read_text())
    obj["duration_us"] = duration_us
    (tmp_path / "scenario.json").write_text(json.dumps(obj))
    save_pipeline(chain_pipeline({"ctl": (1000, NodeRole.CONTROL)}, sensor_period_us=period_us),
                  tmp_path / "pipeline.json")
    (tmp_path / "config.json").write_text(json.dumps({
        "format": 1, "scenario": "scenario.json", "pipeline": "pipeline.json",
        "groups": [{"name": "main", "workers": 1, "pinned_nodes": ["sensor", "ctl"]}],
        "tick_us": period_us, "seed": 0, "out": str(tmp_path / "out")}))
    assert main(["validate", "--scenario", str(tmp_path / "scenario.json"),
                 "--pipeline", str(tmp_path / "pipeline.json")]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: scenario: {expect}\n"
    assert main(["run", "--config", str(tmp_path / "config.json")]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: scenario: {expect}\n"
    assert not (tmp_path / "out").exists()


def test_run_negative_deadline_cap_flag_exits_1(workdir, capsys):
    rc = main(["run", "--config", str(workdir / "config.json"), "--deadline-cap-us", "-7"])
    assert rc == EXIT_VALIDATION
    assert (capsys.readouterr().err
            == "error: --deadline-cap-us: deadline_cap_us: expected >= 0, got -7\n")
    assert not (workdir / "out").exists()


def test_run_accepts_integral_floats(workdir):
    cfg_path = workdir / "config.json"
    cfg = json.loads(cfg_path.read_text())
    cfg["groups"][0]["workers"] = 2.0
    cfg["tick_us"] = 100000.0
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(workdir / "a")]) == EXIT_OK
    cfg["groups"][0]["workers"] = 2
    cfg["tick_us"] = 100000
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(workdir / "b")]) == EXIT_OK
    for name in ("trace.ndjson", "report.json"):
        assert (workdir / "a" / name).read_bytes() == (workdir / "b" / name).read_bytes()


def test_run_writes_outputs_and_summary(workdir, capsys):
    rc = main(["run", "--config", str(workdir / "config.json")])
    assert rc == EXIT_OK
    out = workdir / "out"
    assert (out / "trace.ndjson").exists()
    assert (out / "report.json").exists()
    assert (out / "cdf.csv").exists()
    line = capsys.readouterr().out.strip()
    for key in ("mean=", "p99=", "worst=", "violations=", "collisions="):
        assert key in line
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"safety", "latency", "reactions"}


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_report_is_strict_json_with_nothing_ahead(workdir):
    # the only agent trails the ego, so no sample has a gap >= 0
    behind = TrajectorySpec(initial=AgentState(s_m=-30.0, l_m=0.0, v_mps=10.0,
                                               a_mps2=0.0))
    save_scenario(Scenario(ego_initial=AgentState(s_m=0.0, l_m=0.0, v_mps=10.0,
                                                  a_mps2=0.0),
                           agents=(("chaser", AgentKind.VEHICLE, behind),),
                           duration_us=sec(2)),
                  workdir / "scenario.json")
    assert main(["run", "--config", str(workdir / "config.json")]) == EXIT_OK
    text = (workdir / "out" / "report.json").read_text()
    report = json.loads(text, parse_constant=_reject_constant)
    assert report["safety"]["min_gap_m"] is None


def test_run_byte_identical_across_invocations(workdir):
    out_a = workdir / "a"
    out_b = workdir / "b"
    assert main(["run", "--config", str(workdir / "config.json"),
                 "--out", str(out_a)]) == EXIT_OK
    assert main(["run", "--config", str(workdir / "config.json"),
                 "--out", str(out_b)]) == EXIT_OK
    for name in ("trace.ndjson", "report.json", "cdf.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_byte_identical_across_hash_seeds(tmp_path):
    """Criterion 8 across processes: str hashes, and so the iteration
    order of sets of agent ids, change with PYTHONHASHSEED. A run through
    a fusion node, which confirms tracks from such sets, and a two-input
    join, which merges its inputs by agent id, must still write the same
    bytes under two hash seeds."""
    def agent(s_m, v_mps, **kw):
        return TrajectorySpec(initial=AgentState(s_m=s_m, l_m=0.0, v_mps=v_mps, a_mps2=0.0),
                              **kw)
    kinds = (AgentKind.VEHICLE, AgentKind.PEDESTRIAN, AgentKind.CYCLIST)
    agents = tuple((f"agent {i}", kinds[i % 3],
                    agent(8.0 + 6.0 * i, 4.0 + i % 4, visible_from_us=ms(150) * (i % 4)))
                   for i in range(8))
    save_scenario(Scenario(ego_initial=AgentState(s_m=0.0, l_m=0.0, v_mps=10.0, a_mps2=0.0),
                           agents=agents, duration_us=sec(3),
                           hazard_events=((sec(1), "agent 2", "h"),)),
                  tmp_path / "scenario.json")
    noisy = LatencyModel(per_kind_cost_us={kind: 900 for kind in kinds}, offset_us=ms(4),
                         noise=NoiseSpec(NoiseKind.LOGNORMAL, sigma=0.3))
    T, I = ExecutionPattern.TIMING, ExecutionPattern.INTERRUPT
    nodes = {
        "cam": NodeSpec("cam", T, (), ("raw_c",), LatencyModel(), role=NodeRole.SENSOR,
                        period_us=ms(100)),
        "lidar": NodeSpec("lidar", T, (), ("raw_l",), LatencyModel(), role=NodeRole.SENSOR,
                          period_us=ms(50)),
        "det_c": NodeSpec("det_c", I, ("raw_c",), ("c",), noisy, role=NodeRole.PERCEPTION),
        "det_l": NodeSpec("det_l", I, ("raw_l",), ("l", "l2"), noisy,
                          role=NodeRole.PERCEPTION),
        "fusion": NodeSpec("fusion", I, ("c", "l"), ("f",), noisy, role=NodeRole.FUSION,
                           fusion=FusionSpec(a=2, n=3)),
        "plan": NodeSpec("plan", I, ("f", "l2"), ("cmd",), noisy, role=NodeRole.CONTROL),
    }
    save_pipeline(PipelineGraph(nodes=nodes, channels={
        c: Channel(c, ChannelPolicy.FIFO, 4) for c in ("raw_c", "raw_l", "c", "l", "l2", "f",
                                                         "cmd")}), tmp_path / "pipeline.json")
    (tmp_path / "config.json").write_text(json.dumps({
        "format": 1, "scenario": "scenario.json", "pipeline": "pipeline.json",
        "groups": [{"name": "main", "workers": 2, "pinned_nodes": list(nodes)}], "seed": 5}))
    src = os.path.dirname(os.path.dirname(avpipesim.__file__))
    outs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"out{hash_seed}"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-m", "avpipesim.cli", "run", "--config",
                               str(tmp_path / "config.json"), "--out", str(out),
                               "--fastpath", "on", "--proactive", "on", "--stealing", "on"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outs.append(out)
    trace = (outs[0] / "trace.ndjson").read_text()
    assert '"fusion"' in trace and '"plan"' in trace
    for name in ("trace.ndjson", "report.json", "cdf.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_run_seed_required_for_stochastic_pipeline(workdir, capsys):
    graph = chain_pipeline({"detect": (ms(20), NodeRole.PERCEPTION),
                            "act": (ms(5), NodeRole.CONTROL)})
    noisy = LatencyModel(offset_us=ms(20),
                        noise=NoiseSpec(kind=NoiseKind.LOGNORMAL, sigma=0.2))
    detect = dataclasses.replace(graph.nodes["detect"], latency=noisy)
    save_pipeline(PipelineGraph({**graph.nodes, "detect": detect}, graph.channels),
                  workdir / "pipeline.json")
    cfg = json.loads((workdir / "config.json").read_text())
    del cfg["seed"]
    (workdir / "config.json").write_text(json.dumps(cfg))
    rc = main(["run", "--config", str(workdir / "config.json")])
    assert rc == EXIT_VALIDATION
    assert "seed" in capsys.readouterr().err
    # an explicit flag satisfies the requirement
    assert main(["run", "--config", str(workdir / "config.json"),
                 "--seed", "11"]) == EXIT_OK


def test_run_flag_overrides_config(workdir):
    out_on = workdir / "on"
    out_off = workdir / "off"
    assert main(["run", "--config", str(workdir / "config.json"),
                 "--deadline-cap-us", str(ms(125)),
                 "--out", str(out_on)]) == EXIT_OK
    assert main(["run", "--config", str(workdir / "config.json"),
                 "--out", str(out_off)]) == EXIT_OK
    rep_on = json.loads((out_on / "report.json").read_text())
    rep_off = json.loads((out_off / "report.json").read_text())
    # a 125 ms cap tightens every capped deadline, so reactions differ
    assert rep_on != rep_off or rep_on["reactions"] == rep_off["reactions"]


def test_run_paired_writes_compare(workdir):
    rc = main(["run", "--config", str(workdir / "config.json"),
               "--fastpath", "on", "--paired"])
    assert rc == EXIT_OK
    out = workdir / "out"
    assert (out / "trace_baseline.ndjson").exists()
    assert (out / "report_baseline.json").exists()
    comparison = json.loads((out / "compare.json").read_text())
    assert comparison["frames_compared"] > 0
    assert "violation_delta" in comparison and "per_node_busy_us" in comparison


def test_sweep_axis_validation(workdir, capsys):
    rc = main(["sweep", "--config", str(workdir / "config.json"),
               "--axis", "speed", "--values", "1,2"])
    assert rc == EXIT_VALIDATION
    assert "axis" in capsys.readouterr().err


def test_sweep_needs_two_values(workdir, capsys):
    rc = main(["sweep", "--config", str(workdir / "config.json"),
               "--axis", "seed", "--values", "1"])
    assert rc == EXIT_VALIDATION
    assert ">= 2 values" in capsys.readouterr().err


@pytest.mark.parametrize("axis, values, expect", [
    ("density", "nan,1", "density must be finite and >= 0, got nan"),
    ("density", "inf,1", "density must be finite and >= 0, got inf"),
    ("density", "-1,1", "density must be finite and >= 0, got -1.0"),
    ("seed", "1.5,2", "expected an integer, got 1.5"),
    ("seed", "1e30,2", "expected an integer, got 1e+30"),
    ("deadline_cap", "125000,1e30", "expected an integer, got 1e+30"),
    ("deadline_cap", "125000,-7", "deadline_cap_us: expected >= 0, got -7"),
    ("seed", "1" * 5001 + ",2", f"expected an integer, got {TOO_LONG}"),
], ids=["density-nan", "density-inf", "density-negative", "seed-fraction", "seed-huge",
        "cap-huge", "cap-negative", "seed-too-long"])
def test_sweep_bad_values_exit_1(workdir, capsys, axis, values, expect):
    rc = main(["sweep", "--config", str(workdir / "config.json"),
               "--axis", axis, f"--values={values}"])
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION
    assert err == f"error: --values: {expect}\n"
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("axis", ["seed", "deadline_cap"])
def test_sweep_reads_an_integer_value_exactly(workdir, monkeypatch, axis):
    """2**53 + 1 and 2**53 + 3 run as typed: read through a float, the first
    once ran as 2**53 and the second was refused as 9007199254740996.0."""
    ran = []

    def execute(cfg, scenario, graph):
        ran.append(cfg.seed if axis == "seed" else cfg.engine.mitigation.deadline_cap_us)
        return execute_run(cfg, scenario, graph)

    execute_run = cli._execute
    monkeypatch.setattr(cli, "_execute", execute)
    rc = main(["sweep", "--config", str(workdir / "config.json"), "--axis", axis,
               "--values", "9007199254740993, 9007199254740995,2.0"])
    assert rc == EXIT_OK
    assert ran == [2**53 + 1, 2**53 + 3, 2]
    rows = (workdir / "out" / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["9007199254740993", "9007199254740995", "2.0"]


@pytest.mark.parametrize("threads, expect", [
    ("abc", "could not convert string to float: 'abc'"),
    ("1.5", "expected an integer, got 1.5"),
], ids=["threads-str", "threads-fraction"])
def test_sweep_bad_thread_count_exits_1(workdir, capsys, monkeypatch, threads, expect):
    monkeypatch.setenv("COLA_SIM_THREADS", threads)
    rc = main(["sweep", "--config", str(workdir / "config.json"),
               "--axis", "seed", "--values", "1,2"])
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION
    assert err == f"error: COLA_SIM_THREADS: {expect}\n"
    assert not (workdir / "out").exists()


def test_sweep_workers_bounded_by_points_and_cores(monkeypatch):
    """Computed only: no pool is started."""
    cores = os.cpu_count() or 1
    assert _sweep_workers(10 ** 9, 3) == min(3, cores)
    assert _sweep_workers(10 ** 9, 10 ** 9) == cores
    assert _sweep_workers(1, 50) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _sweep_workers(10 ** 9, 10 ** 9) == 1


def test_importing_the_cli_leaves_out_the_process_pool():
    """Only a parallel sweep imports concurrent.futures, so no other
    command pays for it."""
    src = os.path.dirname(os.path.dirname(avpipesim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", "import sys, avpipesim.cli; "
                           "print('concurrent.futures' in sys.modules)"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


@pytest.mark.parametrize("command", [
    ["run"], ["sweep", "--axis", "seed", "--values", "1,2"]], ids=["run", "sweep"])
def test_out_naming_a_file_exits_1(workdir, capsys, command):
    afile = workdir / "afile"
    afile.write_text("")
    rc = main([*command, "--config", str(workdir / "config.json"), "--out", str(afile)])
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION
    assert err.startswith(f"error: cannot write {afile}: ") and "Traceback" not in err
    # any other OSError while writing outputs: a directory below a file
    rc = main([*command, "--config", str(workdir / "config.json"),
               "--out", str(afile / "sub")])
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION
    assert err.startswith(f"error: cannot write {afile / 'sub'}: ")


def test_compare_out_naming_a_directory_exits_1(workdir, capsys):
    assert main(["run", "--config", str(workdir / "config.json")]) == EXIT_OK
    trace = str(workdir / "out" / "trace.ndjson")
    capsys.readouterr()
    rc = main(["compare", trace, trace, "--out", str(workdir)])
    assert rc == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: cannot write {workdir}: ")


def test_sweep_writes_table(workdir, capsys):
    rc = main(["sweep", "--config", str(workdir / "config.json"),
               "--axis", "density", "--values", "0,4"])
    assert rc == EXIT_OK
    path = capsys.readouterr().out.strip()
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "value,mean_us,p99_us,max_us,violations,collisions"
    assert len(lines) == 3
    assert lines[1].startswith("0") and lines[2].startswith("4")


def test_sweep_parallel_matches_serial(workdir):
    args = ["sweep", "--config", str(workdir / "config.json"),
            "--axis", "seed", "--values", "1,2,3"]
    assert main(args + ["--out", str(workdir / "ser")]) == EXIT_OK
    os.environ["COLA_SIM_THREADS"] = "3"
    try:
        assert main(args + ["--out", str(workdir / "par")]) == EXIT_OK
    finally:
        del os.environ["COLA_SIM_THREADS"]
    assert ((workdir / "ser" / "sweep.csv").read_bytes()
            == (workdir / "par" / "sweep.csv").read_bytes())


def test_compare_command(workdir, capsys):
    assert main(["run", "--config", str(workdir / "config.json"),
                 "--out", str(workdir / "r1")]) == EXIT_OK
    assert main(["run", "--config", str(workdir / "config.json"),
                 "--fastpath", "on", "--deadline-cap-us", str(ms(125)),
                 "--out", str(workdir / "r2")]) == EXIT_OK
    capsys.readouterr()
    out_path = workdir / "compare.json"
    rc = main(["compare", str(workdir / "r1" / "trace.ndjson"),
               str(workdir / "r2" / "trace.ndjson"),
               "--out", str(out_path)])
    assert rc == EXIT_OK
    report = json.loads(out_path.read_text())
    assert report["frames_compared"] > 0

    rc = main(["compare", str(workdir / "r1" / "trace.ndjson"),
               str(workdir / "missing.ndjson")])
    assert rc == EXIT_VALIDATION
    capsys.readouterr()
    rc = main(["compare", str(workdir / "r1" / "trace.ndjson"), str(workdir)])
    assert rc == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: cannot read {workdir}:")


def test_compare_rejects_mismatched_scenarios(workdir, tmp_path, capsys):
    assert main(["run", "--config", str(workdir / "config.json"),
                 "--out", str(workdir / "r1")]) == EXIT_OK
    sc = Scenario(
        ego_initial=AgentState(s_m=0, l_m=0, v_mps=7.0, a_mps2=0),
        agents=(), duration_us=sec(3))
    save_scenario(sc, workdir / "other.json")
    assert main(["run", "--config", str(workdir / "config.json"),
                 "--scenario", str(workdir / "other.json"),
                 "--out", str(workdir / "r3")]) == EXIT_OK
    capsys.readouterr()
    rc = main(["compare", str(workdir / "r1" / "trace.ndjson"),
               str(workdir / "r3" / "trace.ndjson")])
    assert rc == EXIT_RUNTIME
    assert "same scenario" in capsys.readouterr().err


@pytest.mark.parametrize("text, expect", [
    ('{"type": "span", "node": "a"', ":1: malformed JSON"),
    ('{"type": "weird"}\n', ":1: unknown trace record type 'weird'"),
    ("[1, 2]\n", ":1: unknown trace record type None"),
    ('{"type": "closest", "agent_id": "a", "t_us": 0, "lon_gap_m": NaN}\n',
     ":1: closest.lon_gap_m: expected a number, got nan"),
    ('{"type": "closest", "agent_id": "a", "t_us": 0, "lon_gap_m": 1e999}\n',
     ":1: closest.lon_gap_m: expected a number, got inf"),
    ('{"type": "closest", "agent_id": "a", "t_us": 0, "lon_gap_m": -Infinity}\n',
     ":1: closest.lon_gap_m: expected a number, got -inf"),
    (f'{{"type": "closest", "agent_id": "a", "t_us": 0, "lon_gap_m": {10**400}}}\n',
     f":1: closest.lon_gap_m: expected a number, got {HUGE}"),
    (f'{{"type": "closest", "agent_id": "a", "t_us": {"1" * 5001}, "lon_gap_m": 1}}\n',
     f":1: closest.t_us: expected an integer, got {TOO_LONG}"),
    ('{"type": "span", "node": "n", "frame_seq": 0, "start_us": 0, "worker": "w", "ready_us": 0, '
     f'"end_us": {10**400}, "path": "normal", "guest": false, "residual": false}}\n',
     f":1: span: end_us: expected <= 9223372036854775807, got {HUGE}"),
    # in a whole trace, this frame once ended compare in an OverflowError
    # traceback, from the mean of the frames' latencies
    ('{"type": "frame", "seq": 0, "sensor_ts": 0, "done_ts": 0, "module_us": 0, "bubble_us": 0, '
     '"terminal": "n", "path": "normal", "has_critical": false, "partial": false, '
     f'"e2e_us": {10**400}}}\n',
     f":1: frame: e2e_us: expected <= 9223372036854775807, got {HUGE}"),
    ('{"type": "safety", "t_us": 0}\n',
     ":1: safety: missing fields ['agent_id', 'lat_gap_m', 'level', 'lon_gap_m']"),
    ('\n{"type": "closest", "agent_id": "a", "t_us": true, "lon_gap_m": 1}\n',
     ":2: closest.t_us: expected an integer, got True"),
    ("\n", ":1: trace has no summary record"),
    (('"format": 2', '"format": 3'), "unsupported trace format 3"),
    (('"seed": 3', '"seed": "x"'), "summary.seed: expected an integer, got 'x'"),
    (('"ego_segments": [[', f'"ego_segments": [[{10**30}, -6.0], ['),
     "summary: ego_segments[0][0]: expected <= 9223372036854775807, got "
     "100000000000...(31 digits)"),
], ids=["truncated", "unknown-type", "not-an-object", "nan", "inf", "minus-infinity",
        "int-huge", "int-too-long", "span-int-huge", "frame-int-huge", "missing-fields",
        "wrong-type", "no-summary", "format-3", "summary-seed-str", "ego-segment-huge"])
def test_compare_bad_trace_exits_1_with_line(workdir, capsys, text, expect):
    good = workdir / "out" / "trace.ndjson"
    assert main(["run", "--config", str(workdir / "config.json")]) == EXIT_OK
    bad = workdir / "bad.ndjson"
    if isinstance(text, tuple):     # the good trace with one summary field changed
        lines = good.read_text().splitlines(keepends=True)
        expect = f":{len(lines)}: {expect}"
        assert text[0] in lines[-1]
        text = "".join(lines[:-1]) + lines[-1].replace(*text)
    bad.write_text(text)
    capsys.readouterr()
    for args in ([str(good), str(bad)], [str(bad), str(good)]):
        rc = main(["compare", *args])
        err = capsys.readouterr().err
        assert rc == EXIT_VALIDATION
        assert err.startswith(f"error: {bad}{expect}") and "Traceback" not in err


def test_run_refuses_an_integer_too_long_to_read(workdir, capsys):
    """One of more digits than Python reads by default (4,300) is refused
    by the field that holds it, in each input file, as any bound is; it
    was once malformed JSON, which named the file but not the field."""
    long = "1" * 5001
    for name, field, expect in (
            ("config.json", '"seed": 3', "config.seed"),
            ("scenario.json", '"duration_us": 5000000', "scenario.duration_us"),
            ("pipeline.json", '"period_us": 100000', "nodes[2].period_us")):
        path = workdir / name
        good = path.read_text()
        assert field in good
        path.write_text(good.replace(field, f"{field.split(':')[0]}: {long}"))
        assert main(["run", "--config", str(workdir / "config.json")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == f"error: {expect}: expected an integer, got {TOO_LONG}\n"
        path.write_text(good)


def test_paired_traces_compare_to_the_paired_report(workdir):
    assert main(["run", "--config", str(workdir / "config.json"),
                 "--fastpath", "on", "--paired"]) == EXIT_OK
    out = workdir / "out"
    assert main(["compare", str(out / "trace_baseline.ndjson"), str(out / "trace.ndjson"),
                 "--out", str(workdir / "compare.json")]) == EXIT_OK
    assert ((workdir / "compare.json").read_bytes()
            == (out / "compare.json").read_bytes())


def test_a_task_ending_past_every_horizon_writes_a_trace_compare_reads(workdir):
    """Its span ends at the last int64 instant; it once ended at
    now + offset, past the bound that compare checks."""
    graph = av_pipeline()
    nodes = {**graph.nodes, "control": dataclasses.replace(
        graph.nodes["control"], latency=LatencyModel(offset_us=MAX_TIME_US))}
    save_pipeline(PipelineGraph(nodes=nodes, channels=graph.channels), workdir / "pipeline.json")
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["groups"] = [{"name": g.name, "workers": g.worker_count,
                      "pinned_nodes": list(g.pinned_nodes)} for g in av_groups(workers=2)]
    (workdir / "config.json").write_text(json.dumps(cfg))
    assert main(["run", "--config", str(workdir / "config.json")]) == EXIT_OK
    trace = workdir / "out" / "trace.ndjson"
    ends = {s.end_us for s in RunTrace.from_ndjson(trace.read_text()).spans
            if s.node == "control"}
    assert ends == {MAX_TIME_US}
    assert main(["compare", str(trace), str(trace),
                 "--out", str(workdir / "compare.json")]) == EXIT_OK


NO_SCIPY = """
import sys
sys.modules["scipy"] = None     # every import of scipy now raises ImportError
from avpipesim.cli import main
w = sys.argv[1]
print([main(["validate", "--scenario", w + "/scenario.json", "--pipeline", w + "/pipeline.json"]),
       main(["run", "--config", w + "/config.json", "--fastpath", "on", "--paired"]),
       main(["compare", w + "/out/trace_baseline.ndjson", w + "/out/trace.ndjson",
             "--out", w + "/compare.json"])])
"""


def test_commands_need_no_scipy(workdir):
    """numpy is the only run-time dependency; scipy serves the tests and a demo."""
    src = os.path.dirname(os.path.dirname(avpipesim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", NO_SCIPY, str(workdir)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0, 0]", done.stderr
