"""CLI contract: subcommands, exit codes, file outputs, overrides."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import avpipesim
from avpipesim.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, _sweep_workers, main
from avpipesim.pipeline import (Channel, ChannelPolicy, ExecutionPattern,
                                LatencyModel, NodeRole, NodeSpec, NoiseKind,
                                NoiseSpec, PipelineGraph, save_pipeline)
from avpipesim.scenario import (AgentKind, AgentState, Scenario,
                                TrajectorySpec, save_scenario)
from avpipesim.simkernel import ms, sec

from conftest import chain_pipeline


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
    nodes = {
        "a": NodeSpec("a", ExecutionPattern.INTERRUPT, ("y",), ("x",),
                      LatencyModel(offset_us=ms(1))),
        "b": NodeSpec("b", ExecutionPattern.INTERRUPT, ("x",), ("y",),
                      LatencyModel(offset_us=ms(1))),
    }
    chans = {c: Channel(c, ChannelPolicy.FIFO) for c in ("x", "y")}
    bad = workdir / "cyclic.json"
    save_pipeline(PipelineGraph(nodes=nodes, channels=chans), bad)
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
     "agents[0]: segment start times must be in [0, 2**63 - 1]: [9223372036854775808]"),
    ("scenario.json", _set(("agents", 0, "visible_from_us"), -2**63 - 1),
     "agents[0]: visible_from_us: expected magnitude <= 2**63 - 1, got -9223372036854775809"),
]
BOUND_IDS = ["dbuffer-zero", "dbuffer-negative", "sigma-negative", "jitter-negative",
             "inputs-twice", "outputs-twice", "speed-huge", "ego-position-huge",
             "segment-accel-huge", "duration-huge", "segment-start-huge", "visible-from-huge"]


@pytest.mark.parametrize("name, mutate, expect", BOUND_CASES, ids=BOUND_IDS)
def test_validate_bad_input_exits_1_with_message(workdir, capsys, name, mutate, expect):
    path = workdir / name
    obj = json.loads(path.read_text())
    mutate(obj)
    path.write_text(json.dumps(obj))
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
    ("scenario.json", _set(("duration_us",), float("nan")), "scenario.json: malformed"),
    ("config.json", _set(("sensor_range_m",), float("nan")), "config.json: malformed"),
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
        "pin-unknown", "pin-missing", "brake-huge", *BOUND_IDS])
def test_run_bad_input_exits_1_with_message(workdir, capsys, name, mutate, expect):
    path = workdir / name
    obj = json.loads(path.read_text())
    mutate(obj)
    path.write_text(json.dumps(obj))    # writes NaN as the bare constant
    rc = main(["run", "--config", str(workdir / "config.json")])
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION
    assert err.startswith("error:") and expect in err and "Traceback" not in err


@pytest.mark.parametrize("ego, agent, period_us, duration_us, expect", [
    ((0, 0), (10, 10), 2**62, 2**63 - 1,
     "agent 'a' at t=4611686018427387904 us: s_m: expected magnitude <= 1e+12, "
     "got 46116860184283.875"),
    ((0, 10), (10, 10), 2**62, 2**63 - 1,
     "ego at t=4611686018427387904 us: s_m: expected magnitude <= 1e+12, "
     "got 46116860184273.875"),
    ((1e12 - 30, 0), (1e12 - 190, 200), sec(1), sec(1),
     "agent 'a' at t=1000000 us: s_m: expected magnitude <= 1e+12, got 1000000000010.0"),
], ids=["safety-tick", "ego", "capture"])
def test_run_state_derived_past_bound_names_agent_and_instant(tmp_path, capsys, ego, agent,
                                                               period_us, duration_us, expect):
    """Every input is inside its bound, but a state derived mid-run is
    not. ego and agent are (s_m, v_mps); the sensor period is the tick."""
    def state(s_m, v_mps):
        return AgentState(s_m=s_m, l_m=0, v_mps=v_mps, a_mps2=0)

    sc = Scenario(ego_initial=state(*ego), duration_us=duration_us,
                  agents=(("a", AgentKind.VEHICLE, TrajectorySpec(initial=state(*agent))),))
    save_scenario(sc, tmp_path / "scenario.json")
    save_pipeline(chain_pipeline({"ctl": (1000, NodeRole.CONTROL)}, sensor_period_us=period_us),
                  tmp_path / "pipeline.json")
    (tmp_path / "config.json").write_text(json.dumps({
        "format": 1, "scenario": "scenario.json", "pipeline": "pipeline.json",
        "groups": [{"name": "main", "workers": 1, "pinned_nodes": ["sensor", "ctl"]}],
        "tick_us": period_us, "seed": 0, "out": str(tmp_path / "out")}))
    assert main(["run", "--config", str(tmp_path / "config.json")]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {expect}\n"


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


def test_run_seed_required_for_stochastic_pipeline(workdir, capsys):
    graph = chain_pipeline({"detect": (ms(20), NodeRole.PERCEPTION),
                            "act": (ms(5), NodeRole.CONTROL)})
    noisy = LatencyModel(offset_us=ms(20),
                        noise=NoiseSpec(kind=NoiseKind.LOGNORMAL, sigma=0.2))
    graph.nodes["detect"] = NodeSpec("detect", ExecutionPattern.INTERRUPT,
                                     graph.nodes["detect"].inputs,
                                     graph.nodes["detect"].outputs,
                                     noisy, role=NodeRole.PERCEPTION)
    save_pipeline(graph, workdir / "pipeline.json")
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
], ids=["density-nan", "density-inf", "density-negative", "seed-fraction", "seed-huge",
        "cap-huge", "cap-negative"])
def test_sweep_bad_values_exit_1(workdir, capsys, axis, values, expect):
    rc = main(["sweep", "--config", str(workdir / "config.json"),
               "--axis", axis, f"--values={values}"])
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION
    assert err == f"error: --values: {expect}\n"
    assert not (workdir / "out").exists()


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
     ":1: malformed JSON: non-finite number NaN"),
    ('{"type": "safety", "t_us": 0}\n',
     ":1: safety: missing fields ['agent_id', 'lat_gap_m', 'level', 'lon_gap_m']"),
    ('\n{"type": "closest", "agent_id": "a", "t_us": true, "lon_gap_m": 1}\n',
     ":2: closest.t_us: expected an integer, got True"),
    ("\n", ":1: trace has no summary record"),
    (('"format": 2', '"format": 3'), "unsupported trace format 3"),
    (('"seed": 3', '"seed": "x"'), "summary.seed: expected an integer, got 'x'"),
], ids=["truncated", "unknown-type", "not-an-object", "nan", "missing-fields",
        "wrong-type", "no-summary", "format-3", "summary-seed-str"])
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


def test_paired_traces_compare_to_the_paired_report(workdir):
    assert main(["run", "--config", str(workdir / "config.json"),
                 "--fastpath", "on", "--paired"]) == EXIT_OK
    out = workdir / "out"
    assert main(["compare", str(out / "trace_baseline.ndjson"), str(out / "trace.ndjson"),
                 "--out", str(workdir / "compare.json")]) == EXIT_OK
    assert ((workdir / "compare.json").read_bytes()
            == (out / "compare.json").read_bytes())


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
