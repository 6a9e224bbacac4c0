"""The table-driven input schema: the bytes it writes, save -> load ->
save round trips, the defaults of a config that leaves every optional
field out, and the value bounds the records themselves hold."""

import hashlib
import json
import math
import re

import pytest

from hypothesis import given, settings, strategies as st

from avpipesim.config import ConfigError, load_config
from avpipesim.engine import EngineConfig, ProcessorGroup, run_simulation
from avpipesim import jsonio
from avpipesim.jsonio import InputError, shown
from avpipesim.mitigation import MitigationConfig
from avpipesim.pipeline import (Channel, ChannelPolicy, ContentionSpec, LatencyModel, NodeRole,
                                NoiseKind, NoiseSpec, PipelineError, load_pipeline,
                                save_pipeline)
from avpipesim.safety import RssParams
from avpipesim.scenario import (AgentKind, AgentState, Scenario, ScenarioError, TrajectorySpec,
                                load_scenario, save_scenario)
from avpipesim.simkernel import ms, sec

import fixtures
import test_pipeline
from conftest import chain_pipeline, one_group
from test_scheduler_incremental import layered_runs
from test_trace_format import agent_specs, finite


@pytest.mark.parametrize("save, spec, digest", [
    (save_pipeline, fixtures.av_pipeline(), "3b894a8d5b68dd55"),
    (save_pipeline, fixtures.av_pipeline(ChannelPolicy.FIFO, 3000), "e6ac557fee1879d8"),
    (save_pipeline, chain_pipeline(
        {"p": (ms(20), NodeRole.PREDICTION), "plan": (ms(30), NodeRole.PLANNING)},
        per_vehicle_us=500, fast={"plan": LatencyModel(offset_us=ms(5))},
        lookahead_m=80.0, fast_lookahead_cost=12.5), "a8d913cb3bee3ae7"),
    (save_pipeline, test_pipeline.TestSerialization().make_graph(), "b15aaaa79e39344a"),
    (save_scenario, fixtures.safety_mix_scenario(), "09c185b6fdbea9ef"),
    (save_scenario, fixtures.traffic_scenario(12.0, 3), "2f40ac38f2c986c7"),
], ids=["av", "av-fifo-proactive", "chain-fastpath", "noise-fusion", "safety-mix", "traffic"])
def test_written_bytes_are_pinned(tmp_path, save, spec, digest):
    """Defaulted keys left out or written exactly as the format has them:
    the file, and so the trace's scenario_digest, stays the same."""
    save(spec, tmp_path / "f.json")
    assert hashlib.sha256((tmp_path / "f.json").read_bytes()).hexdigest()[:16] == digest


@st.composite
def scenarios(draw):
    """Random agents of every kind, with hazards on some of them."""
    trajectories = draw(st.lists(agent_specs, max_size=5))
    agents = tuple((f"a{i}", draw(st.sampled_from(AgentKind)), traj)
                   for i, traj in enumerate(trajectories))
    duration_us = draw(st.integers(1, sec(3)))
    hazards = tuple((draw(st.integers(0, duration_us - 1)), aid, draw(st.sampled_from(
        ["", "lead-brakes", "Ω cut-in"]))) for aid, _, _ in agents if draw(st.booleans()))
    ego = AgentState(s_m=draw(finite(-5, 5)), l_m=0.0, v_mps=draw(finite(0, 20)),
                     a_mps2=draw(finite(-3, 3)), lane_index=draw(st.integers(-1, 1)))
    return Scenario(ego_initial=ego, agents=agents, duration_us=duration_us,
                    hazard_events=hazards, d_buffer_m=draw(finite(0.5, 5)))


def assert_round_trip(save, load, spec, tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save(spec, first)
    loaded = load(first)
    assert loaded == spec
    save(loaded, second)
    assert second.read_bytes() == first.read_bytes()


@settings(max_examples=100, deadline=None)
@given(sc=scenarios())
def test_scenario_save_load_save(sc, tmp_path_factory):
    assert_round_trip(save_scenario, load_scenario, sc, tmp_path_factory.mktemp("sc"))


@settings(max_examples=50, deadline=None)
@given(run=layered_runs())
def test_pipeline_save_load_save(run, tmp_path_factory):
    assert_round_trip(save_pipeline, load_pipeline, run[0], tmp_path_factory.mktemp("pl"))


def test_config_defaults(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"format": 1, "scenario": "s.json", "pipeline": "p.json",
                                "groups": [{"name": "main"}]}))
    cfg = load_config(path)
    assert cfg.engine.rss == RssParams()
    assert cfg.engine.mitigation == MitigationConfig()
    (group,) = cfg.groups
    assert (group.worker_count, group.pinned_nodes, group.budget_us) == (1, (), 1_000_000_000)
    assert cfg.seed is None
    assert (cfg.scenario_path, cfg.out_dir) == (str(tmp_path / "s.json"), str(tmp_path / "out"))


def negative_budget_run():
    """A budget of -5 us once ran and counted all 81 spans as violations."""
    graph = fixtures.av_pipeline()
    return run_simulation(fixtures.safety_mix_scenario(), graph,
                          [ProcessorGroup("all", 2, tuple(graph.nodes), budget_us=-5)],
                          EngineConfig(sensor_range_m=-1.0), seed=3)


def empty_road(d_buffer_m):
    return Scenario(ego_initial=AgentState(s_m=0.0, l_m=0.0, v_mps=10.0, a_mps2=0.0),
                    agents=(), duration_us=sec(1), d_buffer_m=d_buffer_m)


@pytest.mark.parametrize("build, expect", [
    (lambda: ProcessorGroup("g", 1, (), budget_us=-5), "budget_us: expected >= 0, got -5"),
    (lambda: EngineConfig(actuation_delay_us=-1), "actuation_delay_us: expected >= 0, got -1"),
    (lambda: EngineConfig(sensor_range_m=-1.0), "sensor_range_m: expected >= 0, got -1.0"),
    (lambda: EngineConfig(response_margin_us=-1), "response_margin_us: expected >= 0, got -1"),
    (lambda: MitigationConfig(fast_lookahead_m=-2.0),
     "fast_lookahead_m: expected >= 0, got -2.0"),
    (lambda: MitigationConfig(deadline_cap_us=-7), "deadline_cap_us: expected >= 0, got -7"),
    (lambda: Channel("c", ChannelPolicy.FIFO, capacity=0), "capacity: expected >= 1, got 0"),
    (negative_budget_run, "budget_us: expected >= 0, got -5"),
    (lambda: empty_road(0.0), "d_buffer_m: expected > 0, got 0.0"),
    (lambda: empty_road(-2.0), "d_buffer_m: expected > 0, got -2.0"),
    (lambda: empty_road(math.nan), "d_buffer_m: expected > 0, got nan"),
    (lambda: NoiseSpec(NoiseKind.LOGNORMAL, sigma=-0.5), "sigma: expected >= 0, got -0.5"),
    (lambda: NoiseSpec(NoiseKind.UNIFORM, jitter_us=-3), "jitter_us: expected >= 0, got -3"),
    # once accepted: the node then took from "raw" twice per run
    (lambda: test_pipeline.node("p", ("raw", "raw"), ("o",)),
     "node p: channel 'raw' listed twice in inputs"),
    # once refused by validate_graph as two producers ['cam', 'cam']
    (lambda: test_pipeline.node("cam", (), ("raw", "o", "raw")),
     "node cam: channel 'raw' listed twice in outputs"),
    # NaN passed every check_min bound once
    (lambda: EngineConfig(sensor_range_m=math.nan), "sensor_range_m: expected >= 0, got nan"),
    (lambda: NoiseSpec(NoiseKind.LOGNORMAL, sigma=math.nan), "sigma: expected >= 0, got nan"),
    (lambda: MitigationConfig(fast_lookahead_m=math.nan),
     "fast_lookahead_m: expected >= 0, got nan"),
    (lambda: AgentState(s_m=0.0, l_m=0.0, v_mps=1e308, a_mps2=0.0),
     "v_mps: expected magnitude <= 1e+12, got 1e+308"),
    (lambda: AgentState(s_m=0.0, l_m=math.nan, v_mps=1.0, a_mps2=0.0),
     "l_m: expected magnitude <= 1e+12, got nan"),
    (lambda: AgentState(s_m=0.0, l_m=0.0, v_mps=1.0, a_mps2=-math.inf),
     "a_mps2: expected magnitude <= 1e+12, got -inf"),
    (lambda: TrajectorySpec(AgentState(0.0, 0.0, 1.0, 0.0), segments=((5, 2.0), (9, 1e13))),
     "segments[1].a_mps2: expected magnitude <= 1e+12, got 10000000000000.0"),
    # once refused without naming the field
    (lambda: AgentState(s_m=0.0, l_m=0.0, v_mps=-1.0, a_mps2=0.0), "v_mps: expected >= 0, got -1.0"),
    (lambda: AgentState(s_m=0.0, l_m=0.0, v_mps=math.nan, a_mps2=0.0),
     "v_mps: expected >= 0, got nan"),
    (lambda: TrajectorySpec(AgentState(0.0, 0.0, 1.0, 0.0), segments=((9, 2.0), (5, 1.0))),
     "segments[1].start_us: expected > segments[0].start_us (9), got 5"),
    (lambda: TrajectorySpec(AgentState(0.0, 0.0, 1.0, 0.0), segments=((5, 2.0), (2**63, 1.0))),
     "segments[1].start_us: expected in [0, 2**63 - 1], got 9223372036854775808"),
    # once accepted: the ego's position then left the magnitude bound mid-run
    (lambda: EngineConfig(brake_level_mps2=1e308),
     "brake_level_mps2: expected in [-1e+12, 0], got 1e+308"),
    (lambda: EngineConfig(brake_level_mps2=0.5),
     "brake_level_mps2: expected in [-1e+12, 0], got 0.5"),
    (lambda: EngineConfig(brake_level_mps2=math.nan),
     "brake_level_mps2: expected in [-1e+12, 0], got nan"),
    # once accepted (NaN), or refused without naming the field
    (lambda: MitigationConfig(criticality_radius_m=math.nan),
     "criticality_radius_m: expected > 0, got nan"),
    (lambda: MitigationConfig(criticality_radius_m=0.0),
     "criticality_radius_m: expected > 0, got 0.0"),
    (lambda: MitigationConfig(steal_safety_factor=math.nan),
     "steal_safety_factor: expected >= 1, got nan"),
    (lambda: MitigationConfig(steal_safety_factor=0.5),
     "steal_safety_factor: expected >= 1, got 0.5"),
    (lambda: RssParams(a_max_accel=math.nan), "a_max_accel: expected > 0, got nan"),
    (lambda: RssParams(response_time_us=0), "response_time_us: expected > 0, got 0"),
    (lambda: RssParams(lateral_mu_m=-0.5), "lateral_mu_m: expected > 0, got -0.5"),
    (lambda: RssParams(a_min_brake=9.0, a_max_brake=4.0),
     "a_min_brake: expected <= a_max_brake (4.0), got 9.0"),
    # once refused without naming the field, or accepted (NaN)
    (lambda: LatencyModel(offset_us=-1), "offset_us: expected >= 0, got -1"),
    (lambda: LatencyModel(per_kind_cost_us={AgentKind.CYCLIST: -2}),
     "per_kind_cost_us.cyclist: expected in [0, 9223372036854775807], got -2"),
    (lambda: LatencyModel(lookahead_cost_us_per_m=math.nan),
     "lookahead_cost_us_per_m: expected >= 0, got nan"),
    (lambda: LatencyModel(offset_floor_us=0), "offset_floor_us: expected >= 1, got 0"),
    # once accepted, and then a run ended in an OverflowError or ran wrong
    (lambda: LatencyModel(offset_us=2**63), "offset_us: expected <= 9223372036854775807, "
     "got 9223372036854775808"),
    (lambda: LatencyModel(lookahead_cost_us_per_m=1e13),
     "lookahead_cost_us_per_m: expected <= 1e+12, got 10000000000000.0"),
    (lambda: NoiseSpec(NoiseKind.LOGNORMAL, sigma=10.5), "sigma: expected <= 10, got 10.5"),
    (lambda: NoiseSpec(NoiseKind.UNIFORM, jitter_us=2**63),
     "jitter_us: expected <= 9223372036854775807, got 9223372036854775808"),
    (lambda: ContentionSpec(-1.0, 1.0), "slope_us_per_miss: expected >= 0, got -1.0"),
    (lambda: ContentionSpec(1.0, 1e300), "misses_per_unit: expected <= 1e+12, got 1e+300"),
    (lambda: ContentionSpec(1.0, 1.0, base_misses=math.nan),
     "base_misses: expected >= 0, got nan"),
    (lambda: test_pipeline.node("p", ("a",), ("b",), lookahead_m=-50.0),
     "lookahead_m: expected >= 0, got -50.0"),
    (lambda: test_pipeline.node("p", ("a",), ("b",), lookahead_m=math.inf),
     "lookahead_m: expected <= 1e+12, got inf"),
    (lambda: EngineConfig(actuation_delay_us=2**63),
     "actuation_delay_us: expected <= 9223372036854775807, got 9223372036854775808"),
    (lambda: RssParams(response_time_us=2**63),
     "response_time_us: expected <= 9223372036854775807, got 9223372036854775808"),
], ids=["budget", "actuation", "range", "margin", "lookahead", "cap", "capacity",
        "negative-budget-run", "dbuffer-zero", "dbuffer-negative", "dbuffer-nan",
        "sigma-negative", "jitter-negative", "inputs-twice", "outputs-twice",
        "range-nan", "sigma-nan", "lookahead-nan", "speed-huge", "lateral-nan",
        "accel-infinite", "segment-accel-huge", "speed-negative", "speed-nan",
        "segment-starts-unordered", "segment-start-huge", "brake-huge", "brake-positive", "brake-nan",
        "radius-nan", "radius-zero", "safety-factor-nan", "safety-factor-low",
        "rss-accel-nan", "rss-response-zero", "rss-mu-negative", "rss-brakes-crossed",
        "offset-negative", "kind-cost-negative", "lookahead-cost-nan", "floor-zero",
        "offset-huge", "lookahead-cost-huge", "sigma-huge", "jitter-huge",
        "contention-negative", "contention-huge", "contention-nan", "node-lookahead-negative",
        "node-lookahead-inf", "actuation-huge", "rss-response-huge"])
def test_bounds_hold_for_library_calls(build, expect):
    with pytest.raises(InputError, match=f"^{re.escape(expect)}$"):
        build()


def test_bounds_admit_their_limits():
    assert ProcessorGroup("g", 1, (), budget_us=0).budget_us == 0
    assert EngineConfig(actuation_delay_us=0, sensor_range_m=0.0, response_margin_us=0)
    assert MitigationConfig(fast_lookahead_m=0.0, deadline_cap_us=0)
    assert Channel("c", ChannelPolicy.FIFO, capacity=1).capacity == 1
    assert NoiseSpec(NoiseKind.UNIFORM, sigma=0.0, jitter_us=0).sigma == 0.0
    assert AgentState(s_m=-1e12, l_m=1e12, v_mps=1e12, a_mps2=-1e12).s_m == -1e12
    assert EngineConfig(brake_level_mps2=0.0) and EngineConfig(brake_level_mps2=-1e12)
    assert NoiseSpec(NoiseKind.LOGNORMAL, sigma=10.0, jitter_us=2**63 - 1).sigma == 10.0
    assert ContentionSpec(0.0, 0.0) and ContentionSpec(1e12, 1e12, base_misses=1e12)
    assert LatencyModel({AgentKind.VEHICLE: 0, AgentKind.CYCLIST: 2**63 - 1}, offset_us=2**63 - 1,
                        lookahead_cost_us_per_m=1e12)
    assert test_pipeline.node("p", ("a",), ("b",), lookahead_m=0.0).lookahead_m == 0.0
    assert test_pipeline.node("p", ("a",), ("b",), lookahead_m=1e12).lookahead_m == 1e12
    assert EngineConfig(actuation_delay_us=2**63 - 1) and RssParams(response_time_us=2**63 - 1)


def test_a_long_integer_is_cut_short_in_a_message(tmp_path):
    """A value of more than 24 digits shows its first 12 and its length, so
    a 401-digit number does not fill the message; 2**63 - 1 shows whole,
    and so does a file path, whatever digits it holds."""
    assert shown(-10**400) == "-100000000000...(401 digits)"
    assert shown(10**24) == "100000000000...(25 digits)"
    assert shown(10**23) == str(10**23) and shown(2**63 - 1) == str(2**63 - 1)
    assert shown("1" * 30) == repr("1" * 30) and shown(1e308) == "1e+308"
    with pytest.raises(ScenarioError) as e:
        TrajectorySpec(AgentState(0.0, 0.0, 0.0, 0.0), segments=((10**400, 0.0),))
    assert str(e.value).endswith("got 100000000000...(401 digits)")
    path = tmp_path / ("1" * 30) / "config.json"
    path.parent.mkdir()
    path.write_text("{")
    with pytest.raises(ConfigError) as e:
        load_config(path)
    assert str(e.value).startswith(f"{path}: malformed JSON: ")


def test_a_run_reaches_the_largest_instant():
    """Every time a scenario may hold is an int64 instant of the engine."""
    last = 2**63 - 1
    agents = (("a", AgentKind.VEHICLE, TrajectorySpec(AgentState(0.0, 0.0, 0.0, 0.0),
                                                      segments=((last, -1.0),),
                                                      visible_from_us=-last)),
              ("b", AgentKind.VEHICLE, TrajectorySpec(AgentState(5.0, 0.0, 0.0, 0.0),
                                                      visible_from_us=last)))
    scenario = Scenario(AgentState(0.0, 0.0, 0.0, 0.0), agents, duration_us=last,
                        hazard_events=((0, "a", "h"),))
    graph = chain_pipeline({"act": (ms(10), NodeRole.CONTROL)}, sensor_period_us=2**62)
    trace = run_simulation(scenario, graph, one_group(graph),
                           EngineConfig(tick_us=2**62), seed=0)
    assert [(c.agent_id, c.t_us) for c in trace.closest] == [("a", 0), ("b", 0)]


def test_only_a_text_with_an_integer_too_long_to_read_is_parsed_again(monkeypatch, tmp_path):
    """A text int() reads whole is parsed once, by the C scanner; one with a
    5,001-digit integer again, that integer read as a TooLong, which every
    field refuses by name, a scalar, a format or an enum alike."""
    def refused(literal):
        raise AssertionError(f"{literal} parsed through the hook")

    monkeypatch.setattr(jsonio, "read_int", refused)
    assert jsonio.loads('{"a": [1, -2, 3.5]}') == {"a": [1, -2, 3.5]}
    monkeypatch.undo()
    too_long = jsonio.TooLong(5001)
    assert jsonio.loads('[1, -%s]' % ("9" * 5001)) == [1, too_long]
    for tp, what in ((int, "an integer"), (float, "a number"), (str, "a string"),
                     (bool, "true or false")):
        with pytest.raises(ValueError) as e:
            jsonio.as_scalar(tp, too_long)
        assert str(e.value) == f"expected {what}, got an integer too long to read (5001 digits)"
    with pytest.raises(ValueError, match="Expecting"):     # still malformed after it
        jsonio.loads('[%s, ]' % ("9" * 5001))
    path = tmp_path / "pipeline.json"
    for text, expect in (
            ('{"format": %s}', "format: expected 1, got an integer too long to read (5001 digits)"),
            ('{"format": 1, "nodes": [{"name": "s", "pattern": %s}]}', "nodes[0]: an integer "
             "too long to read (5001 digits) is not a valid ExecutionPattern")):
        path.write_text(text % ("1" * 5001))
        with pytest.raises(PipelineError) as e:
            load_pipeline(path)
        assert str(e.value) == expect
