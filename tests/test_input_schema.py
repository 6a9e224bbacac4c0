"""The table-driven input schema: the bytes it writes, save -> load ->
save round trips, the defaults of a config that leaves every optional
field out, and the value bounds the records themselves hold."""

import hashlib
import json
import math
import re

import pytest

from hypothesis import given, settings, strategies as st

from avpipesim.config import load_config
from avpipesim.engine import EngineConfig, ProcessorGroup, run_simulation
from avpipesim.jsonio import InputError
from avpipesim.mitigation import MitigationConfig
from avpipesim.pipeline import (Channel, ChannelPolicy, LatencyModel, NodeRole, NoiseKind,
                                NoiseSpec, load_pipeline, save_pipeline)
from avpipesim.safety import RssParams
from avpipesim.scenario import (AgentKind, AgentState, Scenario, TrajectorySpec, load_scenario,
                                save_scenario)
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
    # once accepted: the ego's position then left the magnitude bound mid-run
    (lambda: EngineConfig(brake_level_mps2=1e308),
     "brake_level_mps2: expected in [-1e+12, 0], got 1e+308"),
    (lambda: EngineConfig(brake_level_mps2=0.5),
     "brake_level_mps2: expected in [-1e+12, 0], got 0.5"),
    (lambda: EngineConfig(brake_level_mps2=math.nan),
     "brake_level_mps2: expected in [-1e+12, 0], got nan"),
], ids=["budget", "actuation", "range", "margin", "lookahead", "cap", "capacity",
        "negative-budget-run", "dbuffer-zero", "dbuffer-negative", "dbuffer-nan",
        "sigma-negative", "jitter-negative", "inputs-twice", "outputs-twice",
        "range-nan", "sigma-nan", "lookahead-nan", "speed-huge", "lateral-nan",
        "accel-infinite", "segment-accel-huge", "brake-huge", "brake-positive", "brake-nan"])
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
