import numpy as np
import pytest

from avpipesim.engine import EngineConfig, ProcessorGroup
from avpipesim.mitigation import MitigationConfig
from avpipesim.pipeline import (Channel, ChannelPolicy, ExecutionPattern,
                                FusionSpec, LatencyModel, NodeRole, NodeSpec,
                                NoiseKind, NoiseSpec, PipelineGraph)
from avpipesim.safety import SafetyLevel, check_safety
from avpipesim.scenario import (AgentKind, AgentState, Scenario, TrajectorySpec)

ZERO_SENSOR = LatencyModel(offset_us=0)


def make_node(name, pattern, inputs, outputs, latency, role=NodeRole.OTHER, **kw):
    return NodeSpec(name=name, pattern=pattern, inputs=tuple(inputs),
                    outputs=tuple(outputs), latency=latency, role=role, **kw)


def chain_pipeline(stage_offsets_us, sensor_period_us=100_000,
                   channel_policy=ChannelPolicy.FIFO, per_vehicle_us=0,
                   fast=None, lookahead_m=None, fast_lookahead_cost=0.0):
    """sensor -> p1 -> p2 -> ... -> control linear chain.

    stage_offsets_us maps stage name -> (offset, role); stages run in
    insertion order. fast maps stage name -> fast LatencyModel.
    """
    nodes = {}
    channels = {}
    prev_ch = "ch_sensor"
    channels[prev_ch] = Channel(prev_ch, channel_policy, 16)
    nodes["sensor"] = make_node("sensor", ExecutionPattern.TIMING, (), (prev_ch,),
                                ZERO_SENSOR, role=NodeRole.SENSOR,
                                period_us=sensor_period_us)
    for name, (offset, role) in stage_offsets_us.items():
        out = f"ch_{name}"
        channels[out] = Channel(out, channel_policy, 16)
        kinds = ({AgentKind.VEHICLE: per_vehicle_us, AgentKind.PEDESTRIAN: per_vehicle_us,
                  AgentKind.CYCLIST: per_vehicle_us} if per_vehicle_us else {})
        model = LatencyModel(offset_us=offset, per_kind_cost_us=kinds,
                             lookahead_cost_us_per_m=(fast_lookahead_cost
                                                      if role == NodeRole.PLANNING
                                                      else 0.0))
        nodes[name] = make_node(
            name, ExecutionPattern.INTERRUPT, (prev_ch,), (out,), model, role=role,
            fast_latency=(fast or {}).get(name),
            lookahead_m=(lookahead_m if role == NodeRole.PLANNING else None))
        prev_ch = out
    return PipelineGraph(nodes=nodes, channels=channels)


def one_group(graph, workers=4, budget_us=1_000_000_000, name="main"):
    return [ProcessorGroup(name, workers, tuple(graph.nodes), budget_us=budget_us)]


@pytest.fixture
def following_scenario():
    """Ego at 10 m/s behind a lead that brakes hard at t=2 s."""
    lead = TrajectorySpec(
        initial=AgentState(s_m=30.0, l_m=0.0, v_mps=10.0, a_mps2=0.0),
        segments=((2_000_000, -6.0),))
    return Scenario(
        ego_initial=AgentState(s_m=0.0, l_m=0.0, v_mps=10.0, a_mps2=0.0),
        agents=(("lead", AgentKind.VEHICLE, lead),),
        duration_us=8_000_000,
        hazard_events=((2_000_000, "lead", "lead-brakes"),),
        d_buffer_m=3.0)


@pytest.fixture
def quiet_config():
    return EngineConfig()


def assert_same_lines(got: str, expected: str):
    """got == expected, reporting the first differing line rather than
    diffing two long strings."""
    got_lines, expected_lines = got.split("\n"), expected.split("\n")
    for i, (g, e) in enumerate(zip(got_lines, expected_lines), start=1):
        assert g == e, f"line {i} differs:\n  got      {g}\n  expected {e}"
    assert len(got_lines) == len(expected_lines), (
        f"{len(got_lines)} lines, expected {len(expected_lines)}")


def check_safety_many(ego, s_m, l_m, v_mps, a_mps2, p, d_buffer_m):
    """check_safety for every agent of one instant, from numpy rows.

    Returns (level values, longitudinal gaps, lateral gaps) in input
    order: a list of SafetyLevel values and two float64 arrays, equal
    element for element to what check_safety gives per obstacle. The
    lateral test takes the ego's lateral offset at this instant. The
    reference for the engine's safety tick, which prices only the agents
    in lane at the run's start.
    """
    lon = s_m - ego.s_m
    lat = np.abs(l_m - ego.l_m) - p.lateral_mu_m
    levels = [SafetyLevel.SAFE.value] * len(lon)
    in_lane = np.flatnonzero(~(lat > 0)).tolist()
    s, l, v, a = (x[in_lane].tolist() for x in (s_m, l_m, v_mps, a_mps2))
    for j, i in enumerate(in_lane):
        obstacle = AgentState(s_m=s[j], l_m=l[j], v_mps=v[j], a_mps2=a[j])
        levels[i] = check_safety(ego, obstacle, p, d_buffer_m).level.value
    return levels, lon, lat
