"""Input generators for the benchmark workloads.

Every input is built here from the workload seed, so the benchmark does
not depend on the test fixtures. Seed 0 reproduces the inputs of
acceptance criteria 1 (`mixed100_cli`) and 10 (`corner_suite`). Other
seeds re-place the background traffic and reseed the simulation, while
the number of agents stays that of seed 0, so every seed asks for the
same amount of work.
"""

from __future__ import annotations

import json
import os

from avpipesim.engine import EngineConfig, ProcessorGroup
from avpipesim.mitigation import MitigationConfig
from avpipesim.pipeline import (Channel, ChannelPolicy, ExecutionPattern,
                                FusionSpec, LatencyModel, NodeRole, NodeSpec,
                                NoiseKind, NoiseSpec, PipelineGraph,
                                save_pipeline)
from avpipesim.scenario import (AgentKind, AgentState, RoadSpec, Scenario,
                                TrajectorySpec, generate_traffic,
                                save_scenario)
from avpipesim.simkernel import ms, sec

V, P, C = AgentKind.VEHICLE, AgentKind.PEDESTRIAN, AgentKind.CYCLIST


def background(density: float, road: RoadSpec, seed: int, base_seed: int):
    """Seeded traffic with exactly as many agents as base_seed gives.

    With seed == base_seed this is generate_traffic's own output.
    """
    count = len(generate_traffic(density, base_seed, road))
    agents = generate_traffic(density, seed, road)
    top_up = seed
    while len(agents) < count:
        top_up += 1_000_003
        agents += generate_traffic(density, top_up, road)
    return agents[:count]


# -- the five-stage pipeline of criteria 1 and 10 ----------------------------

def av_pipeline() -> PipelineGraph:
    """camera -> perception -> prediction -> planning -> control."""
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
            role=NodeRole.PREDICTION),
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
    channels = {c: Channel(c, ChannelPolicy.LATEST_ONLY, 16)
                for c in ("raw", "det", "pred", "traj", "cmd")}
    return PipelineGraph(nodes=nodes, channels=channels)


def av_groups(workers: int) -> list[ProcessorGroup]:
    return [ProcessorGroup("compute", workers,
                           ("camera", "perception", "prediction", "planning",
                            "control"))]


# -- mixed100_cli: criterion 1 ----------------------------------------------

def mixed100(seed: int):
    """102 s of 7/50 m traffic with lead, walker and rider hazards."""
    ego = AgentState(s_m=0, l_m=0, v_mps=10.0, a_mps2=0)
    agents = [
        ("lead", V, TrajectorySpec(
            initial=AgentState(s_m=18.0, l_m=0, v_mps=10.0, a_mps2=0),
            segments=((sec(30), -7.0),))),
        ("walker", P, TrajectorySpec(
            initial=AgentState(s_m=340.0, l_m=0, v_mps=0, a_mps2=0),
            visible_from_us=sec(50))),
        ("rider", C, TrajectorySpec(
            initial=AgentState(s_m=330.0, l_m=0, v_mps=0, a_mps2=0),
            visible_from_us=sec(70))),
    ]
    road = RoadSpec(length_m=1600.0, speed_mps=10.0)
    for i, (kind, traj) in enumerate(background(7.0, road, 3 + seed, 3)):
        agents.append((f"bg{i:03d}", kind, traj))
    scenario = Scenario(
        ego_initial=ego, agents=tuple(agents), duration_us=sec(102),
        hazard_events=((sec(30), "lead", "lead-brakes"),
                       (sec(50), "walker", "revealed"),
                       (sec(70), "rider", "revealed")),
        d_buffer_m=3.0)
    return scenario, av_pipeline(), av_groups(4), {}, 5 + seed


# -- corner_suite: criterion 10 ---------------------------------------------

def corner_suite(seed: int):
    """20 marginal 20 s scenarios: following, cut-in, occluded pedestrian.

    Returns (named scenarios, graph, groups, [(tag, config)], sim seed).
    """
    suite = []
    cases = []
    for v in (9.0, 10.0, 11.0):
        for gap in (16.0, 20.0):
            lead = TrajectorySpec(
                initial=AgentState(s_m=gap, l_m=0, v_mps=v, a_mps2=0),
                segments=((sec(5), -7.0),))
            cases.append((f"follow_v{v}_g{gap}", v, ("lead", V, lead),
                          "lead-brakes"))
    for v in (9.0, 10.0, 11.0, 12.0):
        for gap in (24.0, 27.0):
            cut = TrajectorySpec(
                initial=AgentState(s_m=v * 5.0 + gap, l_m=0, v_mps=2.0, a_mps2=0),
                visible_from_us=sec(5))
            cases.append((f"cutin_v{v}_g{gap}", v, ("cutter", V, cut), "cut-in"))
    for v in (9.0, 10.0, 11.0):
        for gap in (20.0, 22.0):
            ped = TrajectorySpec(
                initial=AgentState(s_m=v * 5.0 + gap, l_m=0, v_mps=0.0, a_mps2=0),
                visible_from_us=sec(5))
            cases.append((f"occluded_v{v}_g{gap}", v, ("ped", P, ped), "revealed"))
    for i, (name, v, named, label) in enumerate(cases):
        agents = [named]
        road = RoadSpec(length_m=600.0, speed_mps=v)
        for j, (kind, traj) in enumerate(background(12.0, road, i + 20 * seed, i)):
            agents.append((f"bg{j:03d}", kind, traj))
        suite.append((name, Scenario(
            ego_initial=AgentState(s_m=0, l_m=0, v_mps=v, a_mps2=0),
            agents=tuple(agents), duration_us=sec(20),
            hazard_events=((sec(5), named[0], label),), d_buffer_m=3.0)))
    configs = [("baseline", EngineConfig(mitigation=MitigationConfig())),
               ("mitigated", EngineConfig(mitigation=MitigationConfig(
                   fastpath=True, proactive=True, stealing=True)))]
    return suite, av_pipeline(), av_groups(2), configs, 7 + seed


# -- dag_stress: a layered scheduler stress case ----------------------------

DAG_LAYERS = 5
DAG_WIDTH = 3


def dag_pipeline() -> tuple[PipelineGraph, list[ProcessorGroup]]:
    """Three sensors, per-sensor perception, five diamond-joined layers,
    a-of-n fusion, timing-driven prediction, planning and control.

    Every edge gets its own channel. Channel.take pops, so a channel read
    by two consumers would hand each message to only one of them and
    starve whole layers.
    """
    nodes: dict[str, NodeSpec] = {}
    inputs: dict[str, list[str]] = {}
    outputs: dict[str, list[str]] = {}
    channels: dict[str, Channel] = {}

    def edge(src: str, dst: str, policy: ChannelPolicy):
        cid = f"{src}>{dst}"
        channels[cid] = Channel(cid, policy, 8)
        outputs.setdefault(src, []).append(cid)
        inputs.setdefault(dst, []).append(cid)

    fifo, latest = ChannelPolicy.FIFO, ChannelPolicy.LATEST_ONLY
    sensors = (("cam", ms(50)), ("lidar", ms(100)), ("radar", ms(100)))
    specs: dict[str, dict] = {}
    for name, period in sensors:
        specs[name] = dict(pattern=ExecutionPattern.TIMING, role=NodeRole.SENSOR,
                           period_us=period, latency=LatencyModel(offset_us=0))
        percep = f"percep_{name}"
        specs[percep] = dict(
            pattern=ExecutionPattern.INTERRUPT, role=NodeRole.PERCEPTION,
            latency=LatencyModel(per_kind_cost_us={V: 500, P: 400, C: 450},
                                 offset_us=3000,
                                 noise=NoiseSpec(NoiseKind.LOGNORMAL, sigma=0.3)))
        edge(name, percep, fifo)
    prev = [f"percep_{name}" for name, _ in sensors]
    for layer in range(1, DAG_LAYERS + 1):
        cur = [f"L{layer}_{j}" for j in range(DAG_WIDTH)]
        for j, node in enumerate(cur):
            specs[node] = dict(
                pattern=ExecutionPattern.INTERRUPT, role=NodeRole.OTHER,
                latency=LatencyModel(per_kind_cost_us={V: 150, P: 100, C: 120},
                                     offset_us=1500 + 300 * j))
            # diamonds: each node joins two neighbours of the layer above
            edge(prev[j], node, fifo if (layer + j) % 2 else latest)
            edge(prev[(j + 1) % DAG_WIDTH], node, latest if (layer + j) % 2 else fifo)
        prev = cur
    specs["fusion"] = dict(pattern=ExecutionPattern.INTERRUPT, role=NodeRole.FUSION,
                           latency=LatencyModel(per_kind_cost_us={V: 100, P: 100, C: 100},
                                                offset_us=2000),
                           fusion=FusionSpec(a=2, n=3))
    for node in prev:
        edge(node, "fusion", fifo)
    specs["prediction"] = dict(
        pattern=ExecutionPattern.TIMING, role=NodeRole.PREDICTION, period_us=ms(50),
        latency=LatencyModel(per_kind_cost_us={V: 3000, P: 2500, C: 2800},
                             offset_us=5000),
        fast_latency=LatencyModel(per_kind_cost_us={V: 600, P: 600, C: 600},
                                  offset_us=2000),
        proactive_cost_us=4000)
    edge("fusion", "prediction", latest)
    specs["planning"] = dict(
        pattern=ExecutionPattern.INTERRUPT, role=NodeRole.PLANNING,
        latency=LatencyModel(offset_us=6000, lookahead_cost_us_per_m=200.0),
        fast_latency=LatencyModel(offset_us=3000, lookahead_cost_us_per_m=200.0),
        lookahead_m=80.0)
    edge("prediction", "planning", fifo)
    specs["control"] = dict(pattern=ExecutionPattern.INTERRUPT, role=NodeRole.CONTROL,
                            latency=LatencyModel(offset_us=1000))
    edge("planning", "control", fifo)
    channels["cmd"] = Channel("cmd", fifo, 8)
    outputs["control"] = ["cmd"]

    for name, kw in specs.items():
        nodes[name] = NodeSpec(name=name, inputs=tuple(inputs.get(name, ())),
                               outputs=tuple(outputs[name]), **kw)
    graph = PipelineGraph(nodes=nodes, channels=channels)
    groups = [
        ProcessorGroup("sense", 2, tuple(n for n, _ in sensors)
                       + tuple(f"percep_{n}" for n, _ in sensors), budget_us=ms(20)),
        ProcessorGroup("layers_a", 2, tuple(f"L{k}_{j}" for k in (1, 2, 3)
                                            for j in range(DAG_WIDTH)),
                       budget_us=ms(15)),
        ProcessorGroup("layers_b", 1, tuple(f"L{k}_{j}" for k in (4, 5)
                                            for j in range(DAG_WIDTH)) + ("fusion",),
                       budget_us=ms(12)),
        ProcessorGroup("plan", 1, ("prediction", "planning", "control"),
                       budget_us=ms(60)),
    ]
    return graph, groups


def dag_stress(seed: int):
    """30 s, a lead braking at 2 s plus eleven background agents.

    With the 125 ms deadline cap every object is urgent, so the ego brakes
    on each control output and its trajectory grows one segment per frame.
    """
    ego = AgentState(s_m=0, l_m=0, v_mps=10.0, a_mps2=0)
    agents = [("lead", V, TrajectorySpec(
        initial=AgentState(s_m=25.0, l_m=0, v_mps=10.0, a_mps2=0),
        segments=((sec(2), -5.0),)))]
    road = RoadSpec(length_m=200.0, speed_mps=10.0)
    for i, (kind, traj) in enumerate(background(2.75, road, 7 + seed, 7)):
        agents.append((f"bg{i:03d}", kind, traj))
    scenario = Scenario(ego_initial=ego, agents=tuple(agents), duration_us=sec(30),
                        hazard_events=((sec(2), "lead", "lead-brakes"),),
                        d_buffer_m=3.0)
    graph, groups = dag_pipeline()
    mitigation = {"fastpath": True, "proactive": True, "stealing": True,
                  "deadline_cap_us": ms(125)}
    return scenario, graph, groups, mitigation, 13 + seed


CLI_BUILDERS = {"mixed100_cli": mixed100, "dag_stress": dag_stress}


def write_cli_inputs(workload: str, seed: int, workdir: str):
    """Write scenario, pipeline and run config; returns (config path, out
    dir, scenario, graph, whether any mitigation is on)."""
    scenario, graph, groups, mitigation, sim_seed = CLI_BUILDERS[workload](seed)
    save_scenario(scenario, os.path.join(workdir, "scenario.json"))
    save_pipeline(graph, os.path.join(workdir, "pipeline.json"))
    config = {
        "format": 1, "scenario": "scenario.json", "pipeline": "pipeline.json",
        "groups": [{"name": g.name, "workers": g.worker_count,
                    "budget_us": g.budget_us, "pinned_nodes": list(g.pinned_nodes)}
                   for g in groups],
        "mitigation": mitigation, "seed": sim_seed, "out": "out",
    }
    config_path = os.path.join(workdir, "run.json")
    with open(config_path, "w", encoding="utf-8") as f:
        json.dump(config, f, indent=2, sort_keys=True)
    return (config_path, os.path.join(workdir, "out"), scenario, graph,
            any(mitigation.values()))
