"""Shared end-to-end fixtures: a five-stage AV pipeline and a corner-case
scenario suite."""

import dataclasses

from avpipesim.engine import EngineConfig, ProcessorGroup
from avpipesim.mitigation import MitigationConfig
from avpipesim.pipeline import (Channel, ChannelPolicy, ExecutionPattern,
                                LatencyModel, NodeRole, NodeSpec, PipelineGraph)
from avpipesim.safety import RssParams
from avpipesim.scenario import (AgentKind, AgentState, RoadSpec, Scenario,
                                TrajectorySpec, generate_traffic)
from avpipesim.simkernel import ms, sec

V, P, C = AgentKind.VEHICLE, AgentKind.PEDESTRIAN, AgentKind.CYCLIST


def av_pipeline(channel_policy=ChannelPolicy.LATEST_ONLY,
                prediction_proactive_us=0):
    """camera -> perception -> prediction -> planning -> control.

    Normal-path cost grows steeply with object count; prediction and
    planning carry cheap fastpath variants.
    """
    def ch(cid):
        return Channel(cid, channel_policy, 16)

    nodes = {
        "camera": NodeSpec("camera", ExecutionPattern.TIMING, (), ("raw",),
                           LatencyModel(offset_us=0), role=NodeRole.SENSOR,
                           period_us=ms(100)),
        "perception": NodeSpec(
            "perception", ExecutionPattern.INTERRUPT, ("raw",), ("det",),
            LatencyModel(per_kind_cost_us={V: 800, P: 800, C: 800},
                         offset_us=10_000),
            role=NodeRole.PERCEPTION),
        "prediction": NodeSpec(
            "prediction", ExecutionPattern.INTERRUPT, ("det",), ("pred",),
            LatencyModel(per_kind_cost_us={V: 5000, P: 4000, C: 4500},
                         offset_us=8000),
            fast_latency=LatencyModel(per_kind_cost_us={V: 800, P: 800, C: 800},
                                      offset_us=4000),
            role=NodeRole.PREDICTION,
            proactive_cost_us=prediction_proactive_us),
        "planning": NodeSpec(
            "planning", ExecutionPattern.INTERRUPT, ("pred",), ("traj",),
            LatencyModel(offset_us=8000, lookahead_cost_us_per_m=300.0),
            fast_latency=LatencyModel(offset_us=6000,
                                      lookahead_cost_us_per_m=300.0),
            lookahead_m=100.0,
            role=NodeRole.PLANNING),
        "control": NodeSpec(
            "control", ExecutionPattern.INTERRUPT, ("traj",), ("cmd",),
            LatencyModel(offset_us=2000), role=NodeRole.CONTROL),
    }
    channels = {c: ch(c) for c in ("raw", "det", "pred", "traj", "cmd")}
    return PipelineGraph(nodes=nodes, channels=channels)


def av_groups(workers=4, budget_us=1_000_000_000):
    return [ProcessorGroup("compute", workers,
                           ("camera", "perception", "prediction", "planning",
                            "control"), budget_us=budget_us)]


def traffic_scenario(density, seed, duration_us=sec(100), lead_gap_m=18.0,
                     hazards=(), lead_segments=(), extra_agents=()):
    """Ego plus a same-lane lead and seeded background traffic."""
    ego = AgentState(s_m=0, l_m=0, v_mps=10.0, a_mps2=0)
    lead = TrajectorySpec(
        initial=AgentState(s_m=lead_gap_m, l_m=0, v_mps=10.0, a_mps2=0),
        segments=tuple(lead_segments))
    agents = [("lead", V, lead)]
    agents.extend(extra_agents)
    road = RoadSpec(length_m=1600.0, speed_mps=10.0)
    for i, (kind, traj) in enumerate(generate_traffic(density, seed, road)):
        agents.append((f"bg{i:03d}", kind, traj))
    return Scenario(ego_initial=ego, agents=tuple(agents),
                    duration_us=duration_us, hazard_events=tuple(hazards),
                    d_buffer_m=3.0)


def corner_case_suite():
    """>= 20 marginal scenarios: vehicle following, encroaching cut-in and
    occluded cut-in at a range of speeds, gaps, and traffic densities."""
    suite = []
    seed = 0
    # vehicle following: lead brakes hard mid-run
    for v in (9.0, 10.0, 11.0):
        for gap in (16.0, 20.0):
            ego = AgentState(s_m=0, l_m=0, v_mps=v, a_mps2=0)
            lead = TrajectorySpec(
                initial=AgentState(s_m=gap, l_m=0, v_mps=v, a_mps2=0),
                segments=((sec(5), -7.0),))
            suite.append((f"follow_v{v}_g{gap}", _with_traffic(
                ego, [("lead", V, lead)], hazards=((sec(5), "lead", "lead-brakes"),),
                density=12.0, seed=seed)))
            seed += 1
    # encroaching cut-in: slow vehicle appears in lane at short gap
    for v in (9.0, 10.0, 11.0, 12.0):
        for gap in (24.0, 27.0):
            ego = AgentState(s_m=0, l_m=0, v_mps=v, a_mps2=0)
            cut = TrajectorySpec(
                initial=AgentState(s_m=v * 5.0 + gap, l_m=0, v_mps=2.0, a_mps2=0),
                visible_from_us=sec(5))
            suite.append((f"cutin_v{v}_g{gap}", _with_traffic(
                ego, [("cutter", V, cut)], hazards=((sec(5), "cutter", "cut-in"),),
                density=12.0, seed=seed)))
            seed += 1
    # occluded crossing: stationary pedestrian revealed at short range
    for v in (9.0, 10.0, 11.0):
        for gap in (20.0, 22.0):
            ego = AgentState(s_m=0, l_m=0, v_mps=v, a_mps2=0)
            ped = TrajectorySpec(
                initial=AgentState(s_m=v * 5.0 + gap, l_m=0, v_mps=0.0, a_mps2=0),
                visible_from_us=sec(5))
            suite.append((f"occluded_v{v}_g{gap}", _with_traffic(
                ego, [("ped", P, ped)], hazards=((sec(5), "ped", "revealed"),),
                density=12.0, seed=seed)))
            seed += 1
    return suite


def _with_traffic(ego, named_agents, hazards, density, seed,
                  duration_us=sec(20)):
    agents = list(named_agents)
    road = RoadSpec(length_m=600.0, speed_mps=ego.v_mps)
    for i, (kind, traj) in enumerate(generate_traffic(density, seed, road)):
        agents.append((f"bg{i:03d}", kind, traj))
    return Scenario(ego_initial=ego, agents=tuple(agents),
                    duration_us=duration_us, hazard_events=tuple(hazards),
                    d_buffer_m=3.0)


def baseline_config(**kw):
    return EngineConfig(mitigation=MitigationConfig(**kw))


def mitigated_config(**kw):
    kw.setdefault("fastpath", True)
    kw.setdefault("proactive", True)
    kw.setdefault("stealing", True)
    return EngineConfig(mitigation=MitigationConfig(**kw))


def safety_mix_scenario():
    """Two seconds with every safety level: a braking lead (violations),
    an agent overlapping the ego (collisions), a laterally clear parked
    car the ego passes, a late-visible agent and one far behind."""
    ego = AgentState(s_m=0.0, l_m=0.0, v_mps=10.0, a_mps2=0.0)

    def agent(s, l, v, segments=(), visible_from_us=0):
        return TrajectorySpec(initial=AgentState(s_m=s, l_m=l, v_mps=v, a_mps2=0.0),
                              segments=segments, visible_from_us=visible_from_us)

    agents = (("lead", V, agent(14.0, 0.0, 6.0, segments=((sec(1), -6.0),))),
              ("tailgater", V, agent(-1.5, 0.2, 10.0)),
              ("parked", V, agent(12.0, 3.5, 0.0)),
              ("late", C, agent(40.0, 0.0, 8.0, visible_from_us=sec(1))),
              ("behind", P, agent(-30.0, 0.0, 1.0)))
    return Scenario(ego_initial=ego, agents=agents, duration_us=sec(2),
                    hazard_events=((sec(1), "lead", "lead brakes"),), d_buffer_m=3.0)
