"""Properties every run must have, on random layered DAGs with every
mitigation on (the strategy of test_scheduler_incremental)."""

import dataclasses

from hypothesis import given, settings

from avpipesim.engine import ProcessorGroup, Simulation
from avpipesim.pipeline import (Channel, ChannelPolicy, ExecutionPattern, LatencyModel,
                                NodeRole, NodeSpec, NoiseKind, NoiseSpec, PipelineGraph)
from avpipesim.simkernel import ms

from test_scheduler_incremental import SCENARIO, layered_runs


@settings(max_examples=25, deadline=None)
@given(layered_runs())
def test_reaction_split_is_exact(run):
    """T1 - T0 = t_sensor + t_module + t_bubble for every reacted hazard,
    each part in its range, and T1 the completion of a recorded frame."""
    graph, groups, config, seed = run
    trace = Simulation(SCENARIO, graph, groups, config, seed).run()
    longest_period = max(spec.period_us for spec in graph.nodes.values()
                         if spec.role == NodeRole.SENSOR)
    done = {f.done_ts for f in trace.frames}
    for r in trace.reactions:
        if not r.reacted:
            continue
        assert r.t_sensor_us >= 0 and r.t_module_us > 0 and r.t_bubble_us >= 0, r
        assert r.t_sensor_us + r.t_module_us + r.t_bubble_us == r.decision_ts - r.hazard_ts, r
        assert r.t_sensor_us < longest_period, r
        assert r.decision_ts in done, r


@settings(max_examples=25, deadline=None)
@given(layered_runs())
def test_busy_time_is_the_spans_within_the_run(run):
    """A group's busy time is the part of its spans before the horizon, so
    it never exceeds its workers times the run's duration."""
    graph, groups, config, seed = run
    trace = Simulation(SCENARIO, graph, groups, config, seed).run()
    horizon = SCENARIO.duration_us
    within = dict.fromkeys(trace.busy_us_by_group, 0)
    for s in trace.spans:
        within[s.worker.rsplit("/", 1)[0]] += min(s.end_us, horizon) - s.start_us
    assert trace.busy_us_by_group == within
    for g in groups:
        assert trace.busy_us_by_group[g.name] <= g.worker_count * horizon, g


@settings(max_examples=15, deadline=None)
@given(layered_runs())
def test_noisy_node_leaves_other_nodes_spans_unchanged(run):
    """Each node draws from its own stream, so a noisy node on a group of
    its own, fed by a sensor through a channel of its own, changes no other
    node's spans. It is a timing node, so it never steals, and its group's
    zero budget admits no steal."""
    graph, groups, config, seed = run
    sensor = graph.nodes["sensor0"]
    nodes = {**graph.nodes,
             "sensor0": dataclasses.replace(sensor, outputs=(*sensor.outputs, "to_noisy")),
             "noisy": NodeSpec("noisy", ExecutionPattern.TIMING, ("to_noisy",), ("from_noisy",),
                               LatencyModel(offset_us=ms(5),
                                            noise=NoiseSpec(NoiseKind.LOGNORMAL, sigma=0.8)),
                               period_us=ms(40))}
    channels = {**graph.channels, "to_noisy": Channel("to_noisy", ChannelPolicy.FIFO, 4),
                "from_noisy": Channel("from_noisy", ChannelPolicy.LATEST_ONLY)}
    noisy = Simulation(SCENARIO, PipelineGraph(nodes=nodes, channels=channels),
                       [*groups, ProcessorGroup("noisy", 1, ("noisy",), budget_us=0)],
                       config, seed).run()
    plain = Simulation(SCENARIO, graph, groups, config, seed).run()
    assert any(s.node == "noisy" for s in noisy.spans)
    assert [s for s in noisy.spans if s.node != "noisy"] == plain.spans
