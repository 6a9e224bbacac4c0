"""The reaction chain against its closed-form bounds from real-time analysis.

A free camera feeds a chain of 1 to 4 nodes, each on its own one-worker
group, at a constant cost Cᵢ of 1 to 4 ms, over latest-only channels of
capacity 1, with every mitigation off. A timing node of period Tᵢ reads
the newest message at its tick, so data waits less than Tᵢ for it; an
interrupt node starts on arrival. No stage is ever busy when work
arrives (Cᵢ < Tᵢ, and the camera's period is at least 33 ms), so every
frame's end-to-end latency lies within

    Σ Cᵢ ≤ e2e ≤ Σ over timing nodes of (Tᵢ + Cᵢ) + Σ over interrupt nodes of Cᵢ,

the bound of Davare et al. (DAC 2007) with each response time Rᵢ = Cᵢ;
the upper bound is attained. A chain of interrupt nodes alone has no
wait at all: each frame's e2e is Σ Cᵢ exactly. FIFO channels are out
of scope: a backlog breaks the upper bound.
"""

from hypothesis import given, settings, strategies as st

from avpipesim.engine import EngineConfig, ProcessorGroup, run_simulation
from avpipesim.pipeline import (Channel, ChannelPolicy, ExecutionPattern, LatencyModel,
                                NodeRole, NodeSpec, PipelineGraph)
from avpipesim.simkernel import ms, sec

import fixtures
from conftest import ZERO_SENSOR

SCENARIO = fixtures.traffic_scenario(2.0, seed=1, duration_us=sec(20))

# a stage: (its period in ms, or None for an interrupt node; its cost in ms)
stage = st.tuples(st.sampled_from(["timing"] * 3 + ["interrupt"] * 2),
                  st.integers(5, 120), st.integers(1, 4)).map(
    lambda s: (s[1] if s[0] == "timing" else None, s[2]))


def chain(camera_ms, stages):
    """camera -> n1 -> ... -> nk, each node on its own one-worker group;
    nk's output channel has no consumer, so nk is the terminal."""
    nodes = {"camera": NodeSpec("camera", ExecutionPattern.TIMING, (), ("c0",), ZERO_SENSOR,
                                role=NodeRole.SENSOR, period_us=ms(camera_ms))}
    for i, (period_ms, cost_ms) in enumerate(stages, start=1):
        timing = period_ms is not None
        nodes[f"n{i}"] = NodeSpec(
            f"n{i}", ExecutionPattern.TIMING if timing else ExecutionPattern.INTERRUPT,
            (f"c{i - 1}",), (f"c{i}",),
            LatencyModel(offset_us=ms(cost_ms)), period_us=ms(period_ms) if timing else None)
    channels = {f"c{i}": Channel(f"c{i}", ChannelPolicy.LATEST_ONLY, 1)
                for i in range(len(stages) + 1)}
    groups = [ProcessorGroup(name, 1, (name,)) for name in nodes]
    return PipelineGraph(nodes=nodes, channels=channels), groups


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([33, 50, 100]), st.lists(stage, min_size=1, max_size=4))
def test_every_frame_lies_within_the_chain_bounds(camera_ms, stages):
    graph, groups = chain(camera_ms, stages)
    trace = run_simulation(SCENARIO, graph, groups, EngineConfig(), seed=0)
    work = sum(ms(cost) for _, cost in stages)
    bound = work + sum(ms(period) for period, _ in stages if period is not None)
    assert trace.frames
    e2e = [f.e2e_us for f in trace.frames]
    assert min(e2e) >= work and max(e2e) <= bound, (min(e2e), max(e2e), work, bound)
    if all(period is None for period, _ in stages):
        assert set(e2e) == {work}
