"""Trace and report.json bytes pinned by sha256 for fixed runs.

A change that is meant to keep every output the same must pass this
unchanged. A change that alters outputs on purpose updates the digests
here and says why. The runs use neither generate_traffic nor latency
noise: numpy does not promise that those random streams stay the same
across versions.
"""

import dataclasses
import hashlib

import pytest

from avpipesim.cli import _write_run_outputs
from avpipesim.engine import EngineConfig, ProcessorGroup, run_simulation
from avpipesim.pipeline import (Channel, ChannelPolicy, ExecutionPattern, FusionSpec,
                                LatencyModel, NodeRole, NodeSpec, PipelineGraph)
from avpipesim.scenario import AgentKind
from avpipesim.simkernel import ms

import fixtures


def av_pipeline(policy, camera_period_us, **replace):
    """fixtures.av_pipeline with the camera period and the node specs in
    replace swapped in."""
    graph = fixtures.av_pipeline(policy, prediction_proactive_us=3000)
    nodes = {**graph.nodes, "camera": dataclasses.replace(graph.nodes["camera"],
                                                          period_us=camera_period_us)}
    nodes.update(replace)
    return PipelineGraph(nodes=nodes, channels=graph.channels)


def every_mitigation():
    """FIFO channels, a 30 ms camera and two one-worker groups: fastpath,
    residual passes, proactive precomputation, and admitted steals. An
    idle one-worker host rejects only a guest longer than its budget,
    which no node here is, so no steal is rejected."""
    groups = [ProcessorGroup("front", 1, ("camera", "perception", "control"), budget_us=ms(60)),
              ProcessorGroup("back", 1, ("prediction", "planning"), budget_us=ms(60))]
    return (av_pipeline(ChannelPolicy.FIFO, ms(30)), groups,
            fixtures.mitigated_config(deadline_cap_us=ms(80)))


def fusion_latest_only():
    """Perception as a 2-of-3 fusion node, on latest-only channels that a
    30 ms camera and one worker make supersede messages."""
    base = fixtures.av_pipeline()
    fusion = dataclasses.replace(base.nodes["perception"], role=NodeRole.FUSION,
                                 fusion=FusionSpec(a=2, n=3))
    graph = av_pipeline(ChannelPolicy.LATEST_ONLY, ms(30), perception=fusion)
    return graph, fixtures.av_groups(workers=1), fixtures.baseline_config()


def two_sensor_diamond():
    """Two sensors, one of them with a latency of its own, feed a diamond
    layer whose nodes each merge both on one FIFO and one latest-only
    input; prediction joins the diamond's two outputs. Three one-worker
    groups with tight budgets: fastpath, residual passes, proactive
    precomputation, and steals between all three groups, both admitted
    and rejected."""
    fifo, latest = ChannelPolicy.FIFO, ChannelPolicy.LATEST_ONLY
    interrupt, timing = ExecutionPattern.INTERRUPT, ExecutionPattern.TIMING
    channels = {}

    def ch(src, dst, policy=fifo):
        cid = f"{src}>{dst}"
        channels[cid] = Channel(cid, policy, 4)
        return cid

    def cost(offset_us, per_object_us):
        return LatencyModel(per_kind_cost_us=dict.fromkeys(AgentKind, per_object_us),
                            offset_us=offset_us)

    nodes = [
        NodeSpec("cam", timing, (), (ch("cam", "det_cam"),), LatencyModel(),
                 role=NodeRole.SENSOR, period_us=ms(30)),
        NodeSpec("lidar", timing, (), (ch("lidar", "det_lidar", latest),),
                 LatencyModel(offset_us=800), role=NodeRole.SENSOR, period_us=ms(50)),
        NodeSpec("det_cam", interrupt, ("cam>det_cam",),
                 (ch("det_cam", "mid_a"), ch("det_cam", "mid_b", latest)), cost(4000, 600),
                 role=NodeRole.PERCEPTION),
        NodeSpec("det_lidar", interrupt, ("lidar>det_lidar",),
                 (ch("det_lidar", "mid_a", latest), ch("det_lidar", "mid_b")), cost(5000, 500),
                 role=NodeRole.PERCEPTION),
        NodeSpec("mid_a", interrupt, ("det_cam>mid_a", "det_lidar>mid_a"),
                 (ch("mid_a", "prediction"),), cost(3000, 300)),
        NodeSpec("mid_b", interrupt, ("det_cam>mid_b", "det_lidar>mid_b"),
                 (ch("mid_b", "prediction", latest),), cost(3500, 250)),
        NodeSpec("prediction", interrupt, ("mid_a>prediction", "mid_b>prediction"),
                 (ch("prediction", "planning"),), cost(8000, 3000), role=NodeRole.PREDICTION,
                 fast_latency=cost(3000, 600), proactive_cost_us=3000),
        NodeSpec("planning", interrupt, ("prediction>planning",), (ch("planning", "control"),),
                 LatencyModel(offset_us=6000, lookahead_cost_us_per_m=100.0),
                 role=NodeRole.PLANNING, lookahead_m=60.0,
                 fast_latency=LatencyModel(offset_us=3000, lookahead_cost_us_per_m=100.0)),
        NodeSpec("control", interrupt, ("planning>control",), (ch("control", "cmd"),),
                 LatencyModel(offset_us=1000), role=NodeRole.CONTROL),
    ]
    groups = [ProcessorGroup("sense", 1, ("cam", "lidar", "det_cam", "det_lidar"),
                             budget_us=ms(25)),
              ProcessorGroup("mid", 1, ("mid_a", "mid_b"), budget_us=ms(20)),
              ProcessorGroup("plan", 1, ("prediction", "planning", "control"), budget_us=ms(60))]
    return (PipelineGraph(nodes={n.name: n for n in nodes}, channels=channels), groups,
            fixtures.mitigated_config(deadline_cap_us=ms(80)))


def fine_safety_ticks():
    """The AV pipeline on latest-only channels with a 10 ms safety tick:
    201 ticks over the two seconds, not a whole number of 32-tick
    blocks, with violations, collisions, ego braking, a laterally clear
    agent and a late-visible one."""
    return fixtures.av_pipeline(), fixtures.av_groups(workers=2), EngineConfig(tick_us=ms(10))


@pytest.mark.parametrize("build, seed, trace_sha, report_sha", [
    (every_mitigation, 3, "42aadd0e0bfd61373c76130ccacf820f2343af328e290d143537f90dc5dacfba",
     "388981a09cccc95260af0cd0dd641d20bf23301ac45f9ea5885f3894179cbfd7"),
    (fusion_latest_only, 5, "bd5b1d800ee00a299f618cc368d6fd65a74bcc2955fd4ff3fe5e7823017c6986",
     "a7a2552176bc778724a6c5307ee16858c1061002305c92c92b7b883d1e2990d4"),
    (two_sensor_diamond, 0, "db735e05be8281b1ec6a497aa2f42390ef8ead1082e60ea6358dad9519d8a9eb",
     "faf2864f55d60bbf448d359643f51fb4708e11572320d8a6cd0392df28348945"),
    (fine_safety_ticks, 1, "5ba5c55c7345cdcd71f8df2c1baf5f747d4077639292748ced0674e974857cc0",
     "a063d1da267619e8039067f3af14b1674651c7d7b4fca1b16b523aedba89acc2"),
], ids=["every-mitigation", "fusion-latest-only", "two-sensor-diamond", "fine-safety-ticks"])
def test_outputs_match_pinned_digests(tmp_path, build, seed, trace_sha, report_sha):
    graph, groups, config = build()
    trace = run_simulation(fixtures.safety_mix_scenario(), graph, groups, config, seed)
    _write_run_outputs(trace, str(tmp_path))
    digests = (hashlib.sha256(trace.to_ndjson().encode()).hexdigest(),
               hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest())
    assert digests == (trace_sha, report_sha)
