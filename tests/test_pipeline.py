import math
import pickle

import pytest
from hypothesis import example, given, strategies as st

from avpipesim import pipeline
from avpipesim.pipeline import (Channel, ChannelPolicy, ContentionSpec, ExecutionPattern,
                                FusionSpec, LatencyModel, NodeRole, NodeSpec,
                                NoiseKind, NoiseSpec, ObjectTrack, PipelineError,
                                PipelineGraph, downstream_estimate, fusion_update,
                                kind_counts, latency_plan, pipeline_from_json,
                                pipeline_to_json, predict_latency, sample_latency)
from avpipesim.scenario import AgentKind
from avpipesim.simkernel import RandomStream, ms

V, P, C = AgentKind.VEHICLE, AgentKind.PEDESTRIAN, AgentKind.CYCLIST


def node(name, inputs, outputs, role=NodeRole.OTHER, pattern=ExecutionPattern.INTERRUPT,
         **kw):
    kw.setdefault("latency", LatencyModel(offset_us=1000))
    if pattern == ExecutionPattern.TIMING:
        kw.setdefault("period_us", 100_000)
    return NodeSpec(name=name, pattern=pattern, inputs=tuple(inputs),
                    outputs=tuple(outputs), role=role, **kw)


def graph(nodes, channel_ids):
    return PipelineGraph(nodes={n.name: n for n in nodes},
                         channels={c: Channel(c, ChannelPolicy.FIFO) for c in channel_ids})


class TestValidateGraph:
    """A graph is checked when it is built."""

    def test_linear_chain_ok(self):
        g = graph([node("s", (), ("a",), role=NodeRole.SENSOR,
                        pattern=ExecutionPattern.TIMING),
                   node("p", ("a",), ("b",)),
                   node("q", ("b",), ("c",))], ["a", "b", "c"])
        assert g.consumers_of("a") == ("p",) and g.consumers_of("c") == ()
        assert g.successors("s") == ("p",) and g.successors("q") == ()

    def test_cycle_reported_with_path(self):
        with pytest.raises(PipelineError, match="cycle: A->B->A"):
            graph([node("A", ("cb",), ("ca",)), node("B", ("ca",), ("cb",))],
                  ["ca", "cb"])

    def test_multi_producer_rejected(self):
        with pytest.raises(PipelineError) as e:
            graph([node("A", (), ("shared",)), node("B", (), ("shared",))],
                  ["shared"])
        assert "A" in str(e.value) and "B" in str(e.value)

    def test_dangling_channel_rejected(self):
        with pytest.raises(PipelineError, match="missing"):
            graph([node("A", ("missing",), ("out",))], ["out"])

    @pytest.mark.parametrize("nodes, channels, message", [
        ([node("A", ("missing",), ("out",))], ["out"],
         "node A: unknown input channel 'missing'"),
        ([node("A", (), ("out", "gone"))], ["out"], "node A: unknown output channel 'gone'"),
        ([node("B", (), ("shared",)), node("A", (), ("shared",))], ["shared"],
         "channel 'shared' has multiple producers: ['A', 'B']"),
        ([node("s", (), ("a",)), node("A", ("a", "cb"), ("ca",)), node("B", ("ca",), ("cb",))],
         ["a", "ca", "cb"], "cycle: A->B->A"),
    ], ids=["unknown-input", "unknown-output", "two-producers", "cycle"])
    def test_construction_refuses_with_the_full_message(self, nodes, channels, message):
        with pytest.raises(PipelineError) as e:
            graph(nodes, channels)
        assert str(e.value) == message

    def test_adjacency_is_not_a_field(self):
        g = self.fork()
        assert g == self.fork() and set(pipeline_to_json(g)) == {"format", "nodes", "channels"}
        clone = pickle.loads(pickle.dumps(g))
        assert clone == g and clone.consumers_of("a") == ("p", "q")
        assert g.successors("s") == ("p", "q")

    def fork(self):
        return graph([node("s", (), ("a",)), node("q", ("a",), ("c",)),
                      node("p", ("a",), ("b",))], ["a", "b", "c"])


class TestDownstreamEstimate:
    def ladder(self, layers=12, width=2):
        """Every node of a layer feeds every node of the next one."""
        nodes = []
        for k in range(layers):
            ins = [f"c{k - 1}_{j}" for j in range(width)] if k else []
            nodes += [node(f"n{k}_{j}", ins, (f"c{k}_{j}",),
                           latency=LatencyModel(offset_us=1000 + j))
                      for j in range(width)]
        return graph(nodes, [f"c{k}_{j}" for k in range(layers) for j in range(width)])

    def test_each_node_priced_once(self, monkeypatch):
        """From the plans the graph compiled when it was built: no model
        is compiled again, and each of the 22 nodes below n0_0 is priced
        once."""
        g = self.ladder()
        priced = []
        price = pipeline.LatencyPlan.price

        def counted(plan, counts):
            priced.append(plan)
            return price(plan, counts)

        monkeypatch.setattr(pipeline.LatencyPlan, "price", counted)
        monkeypatch.setattr(pipeline, "latency_plan", None)
        # 11 layers below n0_0, each costing at most 1001
        assert downstream_estimate(g, "n0_0", {}) == 11 * 1001
        below = [g.plan(n) for n in g.nodes if n not in ("n0_0", "n0_1")]
        assert len(priced) == 22 and {id(p) for p in priced} == {id(p) for p in below}
        assert downstream_estimate(g, "n11_0", {}) == 0

    @given(st.data())
    def test_the_longest_of_every_path(self, data):
        """On a small random DAG, the estimate below each node is the
        largest predict_latency sum over every path that leaves it."""
        size = data.draw(st.integers(1, 7))
        edges = [(i, j) for i in range(size) for j in range(i + 1, size)
                 if data.draw(st.booleans())]
        cost = st.integers(0, 10**6) | st.floats(0, 1e6)
        nodes = [node(f"n{j}", [f"c{i}" for i, k in edges if k == j], (f"c{j}",),
                      latency=LatencyModel(
                          per_kind_cost_us=data.draw(st.dictionaries(st.sampled_from([V, P]),
                                                                     cost)),
                          offset_us=data.draw(cost),
                          lookahead_cost_us_per_m=data.draw(st.floats(0, 1e3))),
                      lookahead_m=data.draw(st.none() | st.floats(0, 1e3)))
                 for j in range(size)]
        g = graph(nodes, [f"c{j}" for j in range(size)])
        counts = data.draw(st.dictionaries(st.sampled_from([V, P, C]), st.integers(0, 20)))

        def paths(j):
            """The predict_latency sum of every path that starts at node j."""
            spec = nodes[j]
            price = predict_latency(spec.latency, counts, spec.lookahead_m)
            below = [price + rest for i, k in edges if i == j for rest in paths(k)]
            return below or [price]

        for j in range(size):
            tails = [rest for i, k in edges if i == j for rest in paths(k)]
            assert downstream_estimate(g, f"n{j}", counts) == max(tails, default=0)

    def test_a_negative_count_is_refused_below_a_node(self):
        g = self.ladder(layers=2, width=1)
        with pytest.raises(PipelineError, match="negative count"):
            downstream_estimate(g, "n0_0", {V: -1})
        assert downstream_estimate(g, "n1_0", {V: -1}) == 0


class TestPredictLatency:
    def test_linear_formula(self):
        m = LatencyModel(per_kind_cost_us={V: 2000, P: 3000}, offset_us=5000)
        assert predict_latency(m, {V: 3, P: 2}) == 17_000

    def test_zero_counts_is_offset(self):
        m = LatencyModel(per_kind_cost_us={V: 2000}, offset_us=5000)
        assert predict_latency(m, {}) == 5000

    def test_lookahead_term(self):
        m = LatencyModel(offset_us=5000, lookahead_cost_us_per_m=100.0)
        assert predict_latency(m, {}, lookahead_m=100.0) == 15_000

    def test_monotone_in_counts_and_lookahead(self):
        m = LatencyModel(per_kind_cost_us={V: 500, P: 900, C: 700},
                         offset_us=2000, lookahead_cost_us_per_m=10.0)
        prev = 0
        for n in range(6):
            cur = predict_latency(m, {V: n, P: n, C: n}, lookahead_m=10.0 * n)
            assert cur >= prev
            prev = cur


class TestLatencyPlan:
    @given(st.dictionaries(st.sampled_from([V, P, C]), st.floats(0, 1e6) | st.integers(0, 10**6)),
           st.floats(0, 1e6) | st.integers(0, 10**6), st.floats(0, 1e3),
           st.none() | st.floats(0, 1e3),
           st.dictionaries(st.sampled_from([V, P, C]), st.integers(0, 50)))
    @example({V: 0.89}, 2.61, 1.0, 2.0, {V: 1})
    def test_its_sum_is_the_sum_written_here(self, costs, offset, per_m, lookahead_m, counts):
        """The offset, then each kind's cost times its count in the counts'
        order, then the rounded lookahead term, floats included; and
        predict_latency is that price. In the example, (2.61 + 0.89) + 2 is
        5.5, where the term added first would give 5.499999999999999."""
        m = LatencyModel(per_kind_cost_us=costs, offset_us=offset,
                         lookahead_cost_us_per_m=per_m)
        expected = offset
        for kind, n in counts.items():
            expected += costs.get(kind, 0) * n
        if lookahead_m is not None:
            expected += round(per_m * lookahead_m)
        price = latency_plan(m, lookahead_m).price(counts)
        assert price == expected and type(price) is type(expected)
        assert predict_latency(m, counts, lookahead_m) == expected

    def test_only_noise_or_contention_draws(self):
        assert not latency_plan(LatencyModel(offset_us=5)).draws
        assert latency_plan(LatencyModel(noise=NoiseSpec(NoiseKind.UNIFORM, jitter_us=2))).draws
        assert latency_plan(LatencyModel(contention=ContentionSpec(1, 1, 1.0))).draws

    def test_only_a_model_of_offset_0_and_nothing_else_is_free(self):
        """Whatever its offset_floor_us: a free sensor passes its capture
        on at once."""
        assert latency_plan(LatencyModel(offset_floor_us=5000)).free
        assert latency_plan(LatencyModel(), lookahead_m=50.0).free
        for costly in (LatencyModel(offset_us=1), LatencyModel(per_kind_cost_us={V: 0}),
                       LatencyModel(lookahead_cost_us_per_m=0.5),
                       LatencyModel(noise=NoiseSpec(NoiseKind.LOGNORMAL, sigma=0.0)),
                       LatencyModel(contention=ContentionSpec(0, 0))):
            assert not latency_plan(costly).free, costly

    def test_the_graph_compiles_each_node_plan_once(self):
        g = graph([node("s", (), ("a",)), node("p", ("a",), ("b",), lookahead_m=4.0,
                                              latency=LatencyModel(lookahead_cost_us_per_m=2.5))],
                  ["a", "b"])
        assert g.plan("p") is g.plan("p")
        assert g.plan("p") == latency_plan(g.nodes["p"].latency, 4.0)
        assert g.plan("p").price({}) == 10


class TestKindCounts:
    def test_kind_counts_counts_each_kind(self):
        objects = tuple(ObjectTrack(aid, kind, 0.0, 0)
                        for aid, kind in (("a", V), ("b", P), ("c", V), ("d", C)))
        assert kind_counts(objects) == {V: 2, P: 1, C: 1}
        assert kind_counts(()) == {}

    def test_a_track_is_a_tuple_of_its_fields(self):
        track = ObjectTrack("a", V, 1.5, 7)
        assert track == ("a", V, 1.5, 7, True)
        assert track.deadline_capped is True


class TestSampleLatency:
    def test_no_noise_equals_prediction(self):
        m = LatencyModel(per_kind_cost_us={V: 2000}, offset_us=5000)
        s = RandomStream(1, "n")
        base = predict_latency(m, {V: 4})
        assert sample_latency(m, base, 4, s) == base

    def test_contention_arithmetic(self):
        # 100 misses at 85.36 us each adds 8536 us
        m = LatencyModel(offset_us=10_000,
                         contention=ContentionSpec(slope_us_per_miss=85.36,
                                                   misses_per_unit=1.0))
        s = RandomStream(1, "n")
        assert sample_latency(m, 10_000, 100, s) == 10_000 + 8536

    def test_floor_always_respected(self):
        m = LatencyModel(offset_us=100, offset_floor_us=50,
                         noise=NoiseSpec(NoiseKind.UNIFORM, jitter_us=10_000))
        s = RandomStream(3, "n")
        for _ in range(200):
            assert sample_latency(m, 100, 0, s) >= 50

    def test_lognormal_tail_ratio_matches_analytic(self):
        # p99/median of lognormal(sigma) is exp(sigma * z_0.99)
        sigma = 0.25
        m = LatencyModel(offset_us=100_000,
                         noise=NoiseSpec(NoiseKind.LOGNORMAL, sigma=sigma))
        s = RandomStream(11, "n")
        draws = sorted(sample_latency(m, 100_000, 0, s) for _ in range(100_000))
        p99 = draws[math.ceil(0.99 * len(draws)) - 1]
        median = draws[len(draws) // 2]
        z99 = 2.3263478740408408
        analytic = math.exp(sigma * z99)
        assert abs((p99 / median) / analytic - 1.0) < 0.10

    def test_deterministic_per_stream(self):
        m = LatencyModel(offset_us=1000, noise=NoiseSpec(NoiseKind.LOGNORMAL, 0.5))
        a = [sample_latency(m, 1000, 0, RandomStream(5, "x")) for _ in range(3)]
        b = [sample_latency(m, 1000, 0, RandomStream(5, "x")) for _ in range(3)]
        assert a == b


class TestChannel:
    def test_latest_only_keeps_newest(self):
        ch = Channel("c", ChannelPolicy.LATEST_ONLY)
        for k in range(5):
            ch.offer(k)
        assert ch.take() == 4
        assert ch.take() is None

    def test_fifo_order_and_capacity(self):
        ch = Channel("c", ChannelPolicy.FIFO, capacity=3)
        for k in range(5):
            ch.offer(k)
        assert len(ch.queued) == 3
        assert [ch.take() for _ in range(3)] == [2, 3, 4]


class TestFusion:
    def run_frames(self, f, frames):
        hist = {}
        published = []
        for detections in frames:
            pub, hist = fusion_update(f, hist, set(detections))
            published.append(pub)
        return published

    def test_published_at_ath_detection(self):
        pubs = self.run_frames(FusionSpec(a=3, n=5), [{"x"}, {"x"}, {"x"}])
        assert pubs == [set(), set(), {"x"}]

    def test_degenerate_a1_publishes_immediately(self):
        pubs = self.run_frames(FusionSpec(a=1, n=5), [{"x"}])
        assert pubs == [{"x"}]

    def test_gap_in_window(self):
        # detections at frames 1,2,4: window holds 3 hits at frame 4
        pubs = self.run_frames(FusionSpec(a=3, n=5),
                               [{"x"}, {"x"}, set(), {"x"}, {"x"}])
        assert pubs == [set(), set(), set(), {"x"}, {"x"}]

    def test_stale_object_dropped(self):
        f = FusionSpec(a=2, n=3)
        hist = {}
        pub, hist = fusion_update(f, hist, {"x"})
        for _ in range(3):
            pub, hist = fusion_update(f, hist, set())
        assert "x" not in hist

    def test_never_published_below_a_and_always_by_ath(self):
        # exhaustive over all 6-frame detection patterns
        f = FusionSpec(a=3, n=4)
        for mask in range(64):
            frames = [{"x"} if mask & (1 << i) else set() for i in range(6)]
            hist = {}
            for i, det in enumerate(frames):
                pub, hist = fusion_update(f, hist, det)
                window = frames[max(0, i - f.n + 1):i + 1]
                hits = sum(1 for w in window if w)
                if "x" in pub:
                    assert hits >= f.a   # no ghost tracks
                else:
                    assert hits < f.a    # bounded publish delay

    def test_invalid_spec(self):
        with pytest.raises(PipelineError):
            FusionSpec(a=0, n=5)
        with pytest.raises(PipelineError):
            FusionSpec(a=6, n=5)


class TestSerialization:
    def make_graph(self):
        fast = LatencyModel(offset_us=2000, per_kind_cost_us={V: 100})
        return graph(
            [node("cam", (), ("raw",), role=NodeRole.SENSOR,
                  pattern=ExecutionPattern.TIMING, period_us=ms(100),
                  latency=LatencyModel(offset_us=0)),
             node("perc", ("raw",), ("det",), role=NodeRole.PERCEPTION,
                  latency=LatencyModel(per_kind_cost_us={V: 500}, offset_us=3000,
                                       noise=NoiseSpec(NoiseKind.LOGNORMAL, 0.2))),
             node("fuse", ("det",), ("trk",), role=NodeRole.FUSION,
                  fusion=FusionSpec(a=3, n=5)),
             node("plan", ("trk",), ("cmd",), role=NodeRole.PLANNING,
                  latency=LatencyModel(offset_us=4000, lookahead_cost_us_per_m=20.0),
                  fast_latency=fast, lookahead_m=100.0)],
            ["raw", "det", "trk", "cmd"])

    def test_roundtrip(self):
        g = self.make_graph()
        obj = pipeline_to_json(g)
        g2 = pipeline_from_json(obj)
        assert pipeline_to_json(g2) == obj

    def test_unknown_field_rejected(self):
        obj = pipeline_to_json(self.make_graph())
        obj["nodes"][0]["priority"] = 3
        with pytest.raises(PipelineError, match="priority"):
            pipeline_from_json(obj)

    def test_cycle_rejected_at_load(self):
        obj = {"format": 1,
               "nodes": [{"name": "A", "pattern": "interrupt", "inputs": ["cb"],
                          "outputs": ["ca"], "latency": {"offset_us": 10}},
                         {"name": "B", "pattern": "interrupt", "inputs": ["ca"],
                          "outputs": ["cb"], "latency": {"offset_us": 10}}],
               "channels": [{"id": "ca"}, {"id": "cb"}]}
        with pytest.raises(PipelineError) as e:
            pipeline_from_json(obj)
        # a graph error carries the prefix of every other pipeline record's error
        assert str(e.value) == "pipeline: cycle: A->B->A"


class TestNodeSpecInvariants:
    def test_timing_requires_period(self):
        with pytest.raises(PipelineError, match="period"):
            NodeSpec(name="t", pattern=ExecutionPattern.TIMING, inputs=(),
                     outputs=("o",), latency=LatencyModel())

    def test_sensor_with_inputs_rejected(self):
        with pytest.raises(PipelineError, match="sensor"):
            node("s", ("x",), ("o",), role=NodeRole.SENSOR)

    def test_sensor_with_interrupt_pattern_rejected(self):
        """Nothing could trigger it: a run once went by without a frame."""
        with pytest.raises(PipelineError, match="^node s: sensor nodes use the timing pattern$"):
            node("s", (), ("o",), role=NodeRole.SENSOR)

    def test_fastpath_limited_to_prediction_planning(self):
        fast = LatencyModel(offset_us=100)
        perc = node("p", ("a",), ("b",), role=NodeRole.PERCEPTION, fast_latency=fast)
        assert not perc.supports_fastpath
        plan = node("q", ("a",), ("b",), role=NodeRole.PLANNING, fast_latency=fast)
        assert plan.supports_fastpath
