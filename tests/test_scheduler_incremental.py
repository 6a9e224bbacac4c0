"""The scheduler's hot path against a from-scratch reference.

Simulation reads the kind counts each message's producer gave it,
prices every task from its node's compiled plan, takes two
inputs that carry one objects tuple as their own union, shares one
capture among the sensors that capture at one instant of one ego state,
prices a steal only on a host with a free worker and no queued work,
hands an admitted guest the price, objects and counts admission read,
starts a triggered task at once when its home group has a free worker
and nothing older waits, and after a task ends dispatches only the
groups that can have gained work. UncachedSimulation below prices every
task by the pricing rule written out here (rule_price) and draws it
through sample_latency, merges every
multi-input start and every steal's heads with a reference, captures
once per sensor, prices every guest again as any task, triggers a task
from scratch (a steal if no home worker is free, else queue it and
dispatch) and dispatches every group after each task. Both must write
the same trace, byte for byte, on random layered DAGs with every
mitigation on and tight budgets, once with int costs and once with
float ones; over each set of examples the property test must see a
steal admitted and a steal rejected. Most drawn DAGs share
channels between sibling consumers, where a sibling's take changes the
head the other is priced by. The reference merge sorts by id and the
engine's does not, so the equal traces also show that no trace reads an
object order; float costs are drawn in quarters, whose sums are exact
in any order, since a merge's order is the order its counts are summed
in. The run under test checks that every message it emits holds
distinct ids and carries its objects' kind counts in their order, that
every guest it admits finds its host's queue empty, and that every
capture holds what the world shows at its instant.
"""

from collections import Counter, defaultdict
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from avpipesim import engine
from avpipesim.engine import EngineConfig, ProcessorGroup, Simulation
from avpipesim.mitigation import MitigationConfig, steal_admission
from avpipesim.pipeline import (Channel, ChannelPolicy, ExecutionPattern, FrameMessage,
                                FusionSpec, LatencyModel, NodeRole, NodeSpec, NoiseKind,
                                NoiseSpec, ObjectTrack, PipelineGraph, kind_counts)
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


def reference_union(msgs):
    objects = reference_merge(msgs)
    return objects, kind_counts(objects)


def rule_price(model, counts, lookahead_m):
    """The pricing rule, written out: the offset, then each kind's cost
    times its count in counts' order, then the rounded lookahead term (0
    without a horizon)."""
    total = model.offset_us
    for kind, n in counts.items():
        total += model.per_kind_cost_us.get(kind, 0) * n
    term = 0 if lookahead_m is None else round(model.lookahead_cost_us_per_m * lookahead_m)
    return total + term


class PublicRulePlan:
    """A node's plan that prices by rule_price and draws every pass
    through sample_latency, which floors a noiseless model's price
    itself."""
    draws = True

    def __init__(self, plan, lookahead_m):
        self.model, self.free, self.lookahead_m = plan.model, plan.free, lookahead_m

    def price(self, counts):
        return rule_price(self.model, counts, self.lookahead_m)


class UncachedSimulation(Simulation):
    """Every task priced by the public rule, predictions and merges from a
    reference, one capture per sensor, no price handed to a stolen task,
    and its own trigger and end-of-task dispatch."""

    def __init__(self, *args):
        super().__init__(*args)
        for node in self._nodes.values():
            node.latency = PublicRulePlan(node.latency, node.spec.lookahead_m)
            if node.fast_latency is not None:
                fast_lookahead = (None if node.spec.lookahead_m is None
                                  else self.config.mitigation.fast_lookahead_m)
                node.fast_latency = PublicRulePlan(node.fast_latency, fast_lookahead)

    def _capture(self, node, t):
        objects = self._world.capture(t, self.ego_state(t), self.config.mitigation.deadline_cap_us)
        seq = len(self._capture_index)
        self._capture_index.append((t, tuple(o.agent_id for o in objects)))
        msg = FrameMessage(t, objects, kind_counts(objects), lineage={seq: (t, 0)})
        if node.latency.free:
            self._emit(node, msg)
        else:
            node.home.ready.append((node, t, [msg], None))
            self._dispatch(node.home)

    def _predict_next(self, node):
        spec = node.spec
        preview = [channel.queued[0] for channel in node.inputs if channel.queued]
        counts = kind_counts(reference_merge(preview))
        return rule_price(spec.latency, counts, spec.lookahead_m)

    def _try_steal(self, node, task):
        now = self.queue.clock
        cost = self._predict_next(node)
        for name in sorted(self.groups):
            host = self.groups[name]
            if host is node.home:
                continue
            widx = next((i for i, end in enumerate(host.ends) if end is None), None)
            if widx is None or host.ready:
                continue
            loads = [0 if end is None else end - now for end in host.ends]
            if steal_admission(cost, loads, host.spec.budget_us,
                               self.config.mitigation.steal_safety_factor):
                self.trace.steals_admitted += 1
                self._start_task(task, host, widx)
                return True
            self.trace.steals_rejected += 1
        return False

    def _emit(self, node, msg):
        now = self.queue.clock
        for channel, consumers in node.outputs:
            channel.offer(msg)
            for consumer in consumers:
                if consumer.proactive and consumer.arrival is None:
                    consumer.arrival = now
                if consumer.interrupt:
                    task, home = (consumer, now, None, None), consumer.home
                    if (None in home.ends or not self.config.mitigation.stealing
                            or not self._try_steal(consumer, task)):
                        home.ready.append(task)
                        self._dispatch(home)

    def _finish_task(self, *args):
        super()._finish_task(*args)
        for grp in self.groups.values():
            self._dispatch(grp)

    def run(self):
        with mock.patch.object(engine, "_union", reference_union):
            return super().run()


class CheckedSimulation(Simulation):
    """The run under test, asserting that every emitted message holds
    distinct agents, which the merge's one-input shortcut relies on, and
    that the kind counts it carries are its objects' counts, in the order
    kind_counts gives them. It also asserts that every admitted guest
    starts on a host with no queued work, and that every capture, shared
    or not, equals one taken afresh."""

    emitted = 0

    def _emit(self, node, msg):
        ids = [o.agent_id for o in msg.objects]
        assert len(set(ids)) == len(ids), (node.name, ids)
        assert list(msg.counts.items()) == list(kind_counts(msg.objects).items()), (
            node.name, msg.counts)
        self.emitted += 1
        super()._emit(node, msg)

    def _start_task(self, task, grp, widx, priced=None):
        assert priced is None or not grp.ready, (task[0].name, grp.spec.name)
        super()._start_task(task, grp, widx, priced)

    def _capture(self, node, t):
        fresh = self._world.capture(t, self.ego_state(t), self.config.mitigation.deadline_cap_us)
        super()._capture(node, t)
        assert self._shot[2] == fresh, (node.name, t)


@st.composite
def layered_runs(draw, float_costs=False):
    """A random layered DAG with diamonds, its groups, and a run config.
    In three DAGs of four, a node takes from each channel that also feeds
    its left sibling in the layer, so a take by one changes the heads the
    other is priced by. Layers of 2 or 3 nodes, 3 or 4 deep, make that
    price likely to be read, as a guest priced for a steal, and
    per-object costs up to 3 ms make an emptied channel move the price
    enough to change the steal. With float_costs, which no pipeline file
    holds, a per-object cost or an offset is an int or a float. A layer
    node may carry a lookahead term, and two sensors often share a
    period, so their captures share one instant."""
    specs, inputs, outputs, channels = {}, defaultdict(list), defaultdict(list), {}

    def edge(src, dst):
        cid = f"{src}>{dst}"
        policy = draw(st.sampled_from([ChannelPolicy.FIFO, ChannelPolicy.LATEST_ONLY]))
        channels[cid] = Channel(cid, policy, draw(st.integers(1, 4)))
        outputs[src].append(cid)
        inputs[dst].append(cid)

    # an int cost or offset, or a float one in quarters
    cost, offset = st.integers(0, 3000), st.integers(500, 4000)
    if float_costs:
        cost |= st.integers(0, 12000).map(lambda q: q / 4)
        offset |= st.integers(2000, 16000).map(lambda q: q / 4)

    def costs(lookahead_cost=0.0):
        return LatencyModel(per_kind_cost_us={V: draw(cost), P: draw(cost)},
                            offset_us=draw(offset), lookahead_cost_us_per_m=lookahead_cost)

    prev, periods = [], [ms(30), ms(50), ms(100)]
    period = draw(st.sampled_from(periods))
    for i in range(draw(st.integers(1, 2))):
        sensor, percep = f"sensor{i}", f"percep{i}"
        # two sensors of one period capture at the same instants
        specs[sensor] = dict(pattern=ExecutionPattern.TIMING, role=NodeRole.SENSOR,
                             period_us=draw(st.sampled_from([period, *periods])),
                             latency=LatencyModel(offset_us=draw(st.sampled_from([0, 800]))))
        specs[percep] = dict(pattern=ExecutionPattern.INTERRUPT, role=NodeRole.PERCEPTION,
                             latency=LatencyModel(
                                 per_kind_cost_us={V: 400, P: 300}, offset_us=2000,
                                 noise=NoiseSpec(NoiseKind.LOGNORMAL, sigma=0.3)))
        edge(sensor, percep)
        prev.append(percep)
    share = draw(st.integers(0, 3)) > 0
    for layer in range(draw(st.integers(3, 4))):
        cur = [f"L{layer}_{j}" for j in range(draw(st.integers(2, 3)))]
        for j, node in enumerate(cur):
            # a lookahead term, rounded on its own, in the price of an interrupt node
            lookahead = draw(st.sampled_from([None, 37.5]))
            specs[node] = dict(pattern=ExecutionPattern.INTERRUPT, lookahead_m=lookahead,
                               latency=costs(draw(st.sampled_from([0.0, 50.3]))))
            # diamonds: each node joins two neighbours of the layer above
            for src in dict.fromkeys((prev[j % len(prev)], prev[(j + 1) % len(prev)])):
                sibling = f"{src}>{cur[j - 1]}"
                if share and j and sibling in channels:
                    inputs[node].append(sibling)    # consumed by both siblings
                else:
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


def compare_with_reference(run, steals: Counter):
    """The run under test against the reference, adding its steal counts
    to steals."""
    graph, groups, config, seed = run
    checked = CheckedSimulation(SCENARIO, graph, groups, config, seed)
    fast = checked.run()
    assert checked.emitted
    steals.update(admitted=fast.steals_admitted, rejected=fast.steals_rejected)
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


def test_memoized_scheduler_matches_uncached_reference():
    for float_costs in (False, True):
        steals = Counter()      # summed over the examples

        @settings(max_examples=25, deadline=None)
        @given(layered_runs(float_costs=float_costs))
        def check(run):
            compare_with_reference(run, steals)

        check()
        assert steals["admitted"] and steals["rejected"], (float_costs, steals)


def message(ids, created_ts):
    objects = tuple(ObjectTrack(agent_id=aid, kind=(V, P)[i % 2], s_m=0.0, deadline_us=i)
                    for i, aid in enumerate(ids))
    return FrameMessage(created_ts=created_ts, objects=objects, counts=kind_counts(objects))


@given(st.lists(st.tuples(st.lists(st.sampled_from("abcd"), unique=True),
                          st.integers(0, 2)), max_size=3))
@example([("ab", 1), ("ba", 1)])
def test_merge_matches_reference(inputs):
    """Unsorted and equal-age inputs included, each holding distinct ids
    as every engine message does: the same object must win for every
    agent id, and no id may appear twice. The order is not compared; it
    carries no meaning."""
    msgs = [message(ids, ts) for ids, ts in inputs]
    merged, expected = engine._merge_objects(msgs), reference_merge(msgs)
    by_id = {o.agent_id: o for o in merged}
    assert len(by_id) == len(merged)
    assert by_id.keys() == {o.agent_id for o in expected}
    assert all(by_id[o.agent_id] is o for o in expected)


def test_prediction_prices_the_head_that_take_pops():
    """Steal admission prices a node's next run. On a FIFO input holding a
    head and a tail of different object counts that run takes the head,
    so the head is priced; a latest-only input holds one message. A take
    the node does not make, as another consumer of a shared channel
    makes, moves the price to the new head."""
    for policy in ChannelPolicy:
        graph = chain_pipeline({"proc": (ms(1), NodeRole.CONTROL)}, channel_policy=policy,
                               per_vehicle_us=ms(2))
        scenario = Scenario(ego_initial=AgentState(s_m=0.0, l_m=0.0, v_mps=10.0, a_mps2=0.0),
                            agents=(), duration_us=sec(1))
        sim = Simulation(scenario, graph, one_group(graph), EngineConfig(), seed=0)
        node = sim._nodes["proc"]
        channel, = node.inputs
        head, tail = message("a", 0), message("bcd", 1)
        channel.offer(head)
        channel.offer(tail)
        first = head if policy == ChannelPolicy.FIFO else tail
        spec = graph.nodes["proc"]
        price, objects, counts = sim._predict_next(node)
        assert price == rule_price(
            spec.latency, kind_counts(first.objects), None) == ms(1) + len(first.objects) * ms(2)
        assert (objects, counts) == (first.objects, first.counts)
        assert channel.take() is first
        left = channel.queued[0].objects if channel.queued else ()
        assert sim._predict_next(node)[0] == ms(1) + len(left) * ms(2)



def test_a_float_price_sums_in_predict_latency_order():
    """Offset 2.61 µs, 0.89 µs per vehicle and a 2 µs lookahead term:
    in the pricing rule's order, (2.61 + 0.89) + 2, the price of one
    vehicle is 5.5 µs and its pass 6 µs; the term added first would give
    5.499999999999999 and 5."""
    graph = chain_pipeline({"plan": (2.61, NodeRole.PLANNING)}, per_vehicle_us=0.89,
                           lookahead_m=2.0, fast_lookahead_cost=1.0)
    scenario = Scenario(ego_initial=AgentState(s_m=0.0, l_m=0.0, v_mps=10.0, a_mps2=0.0),
                        agents=(), duration_us=sec(1))
    sim = Simulation(scenario, graph, one_group(graph), EngineConfig(), seed=0)
    node = sim._nodes["plan"]
    node.inputs[0].offer(message("a", 0))   # one vehicle
    assert sim._predict_next(node)[0] == rule_price(
        graph.nodes["plan"].latency, {V: 1}, 2.0) == 5.5
    sim._start_task((node, 0, None, None), node.home, 0)
    span, = sim.trace.spans
    assert span.end_us - span.start_us == 6


def test_a_capture_is_shared_only_while_the_ego_state_holds():
    """cam and lidar capture at one instant of one ego state: the second
    capture is the first one's objects, ids and counts. A brake that a
    caller dates before that instant changes the ego there, so the next
    capture at the same instant is taken afresh, and its lead's deadline
    moves; CheckedSimulation also checks each capture against a fresh one."""
    def sensor(name, out):
        return NodeSpec(name, ExecutionPattern.TIMING, (), (out,), LatencyModel(),
                        role=NodeRole.SENSOR, period_us=ms(50))
    graph = PipelineGraph(nodes={"cam": sensor("cam", "c"), "lidar": sensor("lidar", "l")},
                          channels={c: Channel(c, ChannelPolicy.FIFO) for c in ("c", "l")})
    lead = TrajectorySpec(initial=AgentState(s_m=20.0, l_m=0.0, v_mps=0.0, a_mps2=0.0))
    scenario = Scenario(ego_initial=AgentState(s_m=0.0, l_m=0.0, v_mps=10.0, a_mps2=0.0),
                        agents=(("lead", V, lead),), duration_us=sec(1))
    sim = CheckedSimulation(scenario, graph, one_group(graph), EngineConfig(), seed=0)
    cam, lidar = sim._nodes["cam"], sim._nodes["lidar"]
    sim._capture(cam, ms(50))
    sim._capture(lidar, ms(50))
    sim.apply_control("brake", -6.0, 0)     # takes effect at 20 ms
    sim._capture(cam, ms(50))
    (first, again), (shared,) = (channel.queued for (channel, _), in (cam.outputs, lidar.outputs))
    assert shared.objects is first.objects and shared.counts is first.counts
    assert sim._capture_index[0][1] is sim._capture_index[1][1] == ("lead",)
    assert again.objects[0].deadline_us > first.objects[0].deadline_us
