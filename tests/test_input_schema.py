"""The table-driven input schema: the bytes it writes, save -> load ->
save round trips, and the defaults of a config that leaves every
optional field out."""

import hashlib
import json

import pytest

from hypothesis import given, settings, strategies as st

from avpipesim.config import load_config
from avpipesim.mitigation import MitigationConfig
from avpipesim.pipeline import (ChannelPolicy, LatencyModel, NodeRole, load_pipeline,
                                save_pipeline)
from avpipesim.safety import RssParams
from avpipesim.scenario import AgentKind, AgentState, Scenario, load_scenario, save_scenario
from avpipesim.simkernel import ms, sec

import fixtures
import test_pipeline
from conftest import chain_pipeline
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
