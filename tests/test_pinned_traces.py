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
from avpipesim.engine import ProcessorGroup, run_simulation
from avpipesim.pipeline import ChannelPolicy, FusionSpec, NodeRole, PipelineGraph
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
    residual passes, proactive precomputation, and steals both admitted
    and rejected."""
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


@pytest.mark.parametrize("build, seed, trace_sha, report_sha", [
    (every_mitigation, 3, "f5c12479a376f7b48f12b2eb6b642826dd8ca346f1565689eeadfc8c961581c4",
     "1182797726fddd5021bde98ad533e521da467f4de77811f6b6ea36b5bbeebf6a"),
    (fusion_latest_only, 5, "bd5b1d800ee00a299f618cc368d6fd65a74bcc2955fd4ff3fe5e7823017c6986",
     "a7a2552176bc778724a6c5307ee16858c1061002305c92c92b7b883d1e2990d4"),
], ids=["every-mitigation", "fusion-latest-only"])
def test_outputs_match_pinned_digests(tmp_path, build, seed, trace_sha, report_sha):
    graph, groups, config = build()
    trace = run_simulation(fixtures.safety_mix_scenario(), graph, groups, config, seed)
    _write_run_outputs(trace, str(tmp_path))
    digests = (hashlib.sha256(trace.to_ndjson().encode()).hexdigest(),
               hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest())
    assert digests == (trace_sha, report_sha)
