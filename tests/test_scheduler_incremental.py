"""The scheduler's memoized hot path against a from-scratch reference.

Simulation memoizes each node's predicted next cost (dropped when one of
its input channels is offered to or taken from) and prices a steal only
on a host with a free worker. UncachedSimulation below recomputes every
prediction on every call and merges inputs with a reference; both must
write the same trace, byte for byte, on random layered DAGs with every
mitigation on and tight budgets, so that steal admission both admits
and rejects.
"""

from collections import defaultdict
from unittest import mock

from hypothesis import given, settings, strategies as st

from avpipesim import engine
from avpipesim.engine import EngineConfig, ProcessorGroup, Simulation
from avpipesim.mitigation import MitigationConfig, steal_admission
from avpipesim.pipeline import (Channel, ChannelPolicy, ExecutionPattern, FrameMessage,
                                FusionSpec, LatencyModel, NodeRole, NodeSpec, NoiseKind,
                                NoiseSpec, ObjectTrack, PipelineGraph, kind_counts,
                                predict_latency)
from avpipesim.scenario import AgentKind, AgentState, Scenario, TrajectorySpec
from avpipesim.simkernel import ms, sec

from conftest import chain_pipeline, one_group

V, P, C = AgentKind.VEHICLE, AgentKind.PEDESTRIAN, AgentKind.CYCLIST


def reference_merge(msgs):
    """Union of input objects, newest message wins per agent id."""
    best = {}
    for m in msgs:
        for o in m.objects:
            cur = best.get(o.agent_id)
            if cur is None or m.created_ts >= cur[0]:
                best[o.agent_id] = (m.created_ts, o)
    return tuple(o for _, o in sorted(best.values(), key=lambda p: p[1].agent_id))


class UncachedSimulation(Simulation):
    """Predictions recomputed on every call, merges by the reference."""

    def _predict_next(self, node):
        spec = self.graph.nodes[node]
        preview = [self._channels[c].queued[0] for c in spec.inputs if self._channels[c].queued]
        counts = kind_counts(reference_merge(preview))
        return predict_latency(spec.latency, counts, spec.lookahead_m)

    def _try_steal(self, node, task):
        now = self.queue.clock
        cost = self._predict_next(node)
        for name in sorted(self.groups):
            host = self.groups[name]
            if host is self._home[node]:
                continue
            widx = next((i for i, end in enumerate(host.ends) if end is None), None)
            if widx is None:
                continue
            pending = [self._predict_next(t.node) for t in host.ready]
            if steal_admission(cost, host.worker_loads(now), pending, host.spec.budget_us,
                               self.config.mitigation.steal_safety_factor):
                self.trace.steals_admitted += 1
                self._start_task(task, host, widx)
                return True
            self.trace.steals_rejected += 1
        return False

    def run(self):
        with mock.patch.object(engine, "_merge_objects", reference_merge):
            return super().run()


@st.composite
def layered_runs(draw):
    """A random layered DAG with diamonds, its groups, and a run config."""
    specs, inputs, outputs, channels = {}, defaultdict(list), defaultdict(list), {}

    def edge(src, dst):
        cid = f"{src}>{dst}"
        policy = draw(st.sampled_from([ChannelPolicy.FIFO, ChannelPolicy.LATEST_ONLY]))
        channels[cid] = Channel(cid, policy, draw(st.integers(1, 4)))
        outputs[src].append(cid)
        inputs[dst].append(cid)

    def costs():
        return LatencyModel(per_kind_cost_us={V: draw(st.integers(0, 900)),
                                              P: draw(st.integers(0, 900))},
                            offset_us=draw(st.integers(500, 4000)))

    prev = []
    for i in range(draw(st.integers(1, 2))):
        sensor, percep = f"sensor{i}", f"percep{i}"
        specs[sensor] = dict(pattern=ExecutionPattern.TIMING, role=NodeRole.SENSOR,
                             period_us=draw(st.sampled_from([ms(30), ms(50), ms(100)])),
                             latency=LatencyModel(offset_us=draw(st.sampled_from([0, 800]))))
        specs[percep] = dict(pattern=ExecutionPattern.INTERRUPT, role=NodeRole.PERCEPTION,
                             latency=LatencyModel(
                                 per_kind_cost_us={V: 400, P: 300}, offset_us=2000,
                                 noise=NoiseSpec(NoiseKind.LOGNORMAL, sigma=0.3)))
        edge(sensor, percep)
        prev.append(percep)
    for layer in range(draw(st.integers(2, 4))):
        cur = [f"L{layer}_{j}" for j in range(draw(st.integers(1, 3)))]
        for j, node in enumerate(cur):
            specs[node] = dict(pattern=ExecutionPattern.INTERRUPT, latency=costs())
            # diamonds: each node joins two neighbours of the layer above
            for src in dict.fromkeys((prev[j % len(prev)], prev[(j + 1) % len(prev)])):
                edge(src, node)
        for src in prev:
            if not outputs[src]:
                edge(src, cur[0])
        prev = cur
    head = "fusion" if draw(st.booleans()) else None
    if head:
        specs[head] = dict(pattern=ExecutionPattern.INTERRUPT, role=NodeRole.FUSION,
                           latency=costs(), fusion=FusionSpec(a=2, n=3))
        for src in prev:
            edge(src, head)
        prev = [head]
    timing = draw(st.booleans())
    specs["prediction"] = dict(
        pattern=ExecutionPattern.TIMING if timing else ExecutionPattern.INTERRUPT,
        period_us=ms(50) if timing else 0, role=NodeRole.PREDICTION,
        latency=LatencyModel(per_kind_cost_us={V: 3000, P: 2500}, offset_us=5000),
        fast_latency=LatencyModel(per_kind_cost_us={V: 600, P: 600}, offset_us=2000),
        proactive_cost_us=draw(st.sampled_from([0, 3000])))
    for src in prev:
        edge(src, "prediction")
    specs["planning"] = dict(
        pattern=ExecutionPattern.INTERRUPT, role=NodeRole.PLANNING,
        latency=LatencyModel(offset_us=6000, lookahead_cost_us_per_m=100.0),
        fast_latency=LatencyModel(offset_us=3000, lookahead_cost_us_per_m=100.0),
        lookahead_m=60.0)
    edge("prediction", "planning")
    specs["control"] = dict(pattern=ExecutionPattern.INTERRUPT, role=NodeRole.CONTROL,
                            latency=LatencyModel(offset_us=1000))
    edge("planning", "control")
    channels["cmd"] = Channel("cmd", ChannelPolicy.FIFO, 8)
    outputs["control"].append("cmd")
    nodes = {name: NodeSpec(name=name, inputs=tuple(inputs[name]),
                            outputs=tuple(outputs[name]), **kw)
             for name, kw in specs.items()}

    n_groups = draw(st.integers(2, 4))
    pinned = defaultdict(list)
    for i, name in enumerate(nodes):
        pinned[i % n_groups if i < n_groups else draw(st.integers(0, n_groups - 1))].append(name)
    groups = [ProcessorGroup(f"g{k}", draw(st.integers(1, 2)), tuple(pinned[k]),
                             budget_us=draw(st.integers(ms(4), ms(30))))
              for k in range(n_groups)]
    cap = draw(st.sampled_from([ms(50), ms(80), ms(125)]))
    config = EngineConfig(mitigation=MitigationConfig(
        fastpath=True, proactive=True, stealing=True, deadline_cap_us=cap,
        criticality_radius_m=draw(st.sampled_from([10.0, 25.0]))))
    return PipelineGraph(nodes=nodes, channels=channels), groups, config, draw(
        st.integers(0, 2**32 - 1))


def traffic() -> Scenario:
    """A lead braking ahead of the ego, plus traffic near and far, so that
    fastpath splits objects into critical and residual ones."""
    def agent(aid, kind, s, v, brake_at=None):
        segs = ((brake_at, -5.0),) if brake_at is not None else ()
        return (aid, kind, TrajectorySpec(
            initial=AgentState(s_m=s, l_m=0.0, v_mps=v, a_mps2=0.0), segments=segs))

    agents = (agent("lead", V, 22.0, 10.0, sec(1)), agent("ped", P, 45.0, 1.0),
              agent("car b", V, 15.0, 11.0), agent("far", V, 58.0, 9.0),
              agent("Ω-rider", C, 35.0, 6.0))
    return Scenario(ego_initial=AgentState(s_m=0.0, l_m=0.0, v_mps=10.0, a_mps2=0.0),
                    agents=agents, duration_us=sec(2),
                    hazard_events=((sec(1), "lead", "lead-brakes"),))


SCENARIO = traffic()


@settings(max_examples=25, deadline=None)
@given(layered_runs())
def test_memoized_scheduler_matches_uncached_reference(run):
    graph, groups, config, seed = run
    fast = Simulation(SCENARIO, graph, groups, config, seed).run()
    slow = UncachedSimulation(SCENARIO, graph, groups, config, seed).run()
    lines, expected = list(fast.ndjson_lines()), list(slow.ndjson_lines())
    # a plain == on the whole traces would make pytest diff megabytes
    first = next((i for i, (a, b) in enumerate(zip(lines, expected)) if a != b),
                 None if len(lines) == len(expected) else min(len(lines), len(expected)))
    assert first is None, (lines[first:first + 1], expected[first:first + 1])

    by_worker = defaultdict(list)
    for s in fast.spans:
        by_worker[s.worker].append((s.start_us, s.end_us))
    for spans in by_worker.values():
        spans.sort()
        assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


def message(ids, created_ts):
    return FrameMessage(created_ts=created_ts,
                        objects=tuple(ObjectTrack(agent_id=aid, kind=(V, P)[i % 2],
                                                  s_m=0.0, deadline_us=i)
                                      for i, aid in enumerate(ids)))


@given(st.lists(st.tuples(st.lists(st.sampled_from("abcd")), st.integers(0, 2)),
                max_size=3))
def test_merge_matches_reference(inputs):
    """Unsorted, duplicate and equal-age inputs included: the same object
    must win for every agent id."""
    msgs = [message(ids, ts) for ids, ts in inputs]
    merged, expected = engine._merge_objects(msgs), reference_merge(msgs)
    assert len(merged) == len(expected)
    assert all(a is b for a, b in zip(merged, expected))


def test_prediction_prices_the_head_that_take_pops():
    """Steal admission prices a node's next run. On a FIFO input holding a
    head and a tail of different object counts that run takes the head,
    so the head is priced; a latest-only input holds one message."""
    for policy in ChannelPolicy:
        graph = chain_pipeline({"proc": (ms(1), NodeRole.CONTROL)}, channel_policy=policy,
                               per_vehicle_us=ms(2))
        scenario = Scenario(ego_initial=AgentState(s_m=0.0, l_m=0.0, v_mps=10.0, a_mps2=0.0),
                            agents=(), duration_us=sec(1))
        sim = Simulation(scenario, graph, one_group(graph), EngineConfig(), seed=0)
        channel = sim._channels["ch_sensor"]
        head, tail = message("a", 0), message("bcd", 1)
        channel.offer(head)
        channel.offer(tail)
        first = head if policy == ChannelPolicy.FIFO else tail
        spec = graph.nodes["proc"]
        assert sim._predict_next("proc") == predict_latency(
            spec.latency, kind_counts(first.objects), None) == ms(1) + len(first.objects) * ms(2)
        assert channel.take() is first
