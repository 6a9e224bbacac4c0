import pytest

from avpipesim import engine
from avpipesim.engine import (EngineConfig, EngineError, ProcessorGroup,
                              RunTrace, Simulation, run_simulation)
from avpipesim.mitigation import MitigationConfig
from avpipesim.pipeline import (Channel, ChannelPolicy, ExecutionPattern, FrameMessage,
                                LatencyModel, NodeRole, NodeSpec, PipelineGraph)
from avpipesim.scenario import AgentKind, AgentState, Scenario, TrajectorySpec
from avpipesim.simkernel import ms, sec

from conftest import ZERO_SENSOR, chain_pipeline, one_group


def simple_scenario(duration_us=sec(2), hazards=(), lead_s=30.0, lead_segments=()):
    lead = TrajectorySpec(initial=AgentState(s_m=lead_s, l_m=0, v_mps=10, a_mps2=0),
                          segments=tuple(lead_segments))
    return Scenario(ego_initial=AgentState(s_m=0, l_m=0, v_mps=10, a_mps2=0),
                    agents=(("lead", AgentKind.VEHICLE, lead),),
                    duration_us=duration_us, hazard_events=tuple(hazards),
                    d_buffer_m=3.0)


class TestBasicExecution:
    def test_sensor_emits_at_period(self):
        g = chain_pipeline({"proc": (ms(10), NodeRole.CONTROL)})
        trace = run_simulation(simple_scenario(sec(1)), g, one_group(g),
                               EngineConfig(), seed=1)
        # the zero-cost sensor hands capture k to proc at its capture time
        assert ([(s.frame_seq, s.ready_us) for s in trace.spans]
                == [(k, ms(100) * k) for k in range(11)])

    def test_single_interrupt_node_output_time(self):
        g = chain_pipeline({"proc": (ms(30), NodeRole.CONTROL)})
        trace = run_simulation(simple_scenario(sec(1)), g, one_group(g),
                               EngineConfig(), seed=1)
        frame1 = next(f for f in trace.frames if f.seq == 1)
        assert frame1.sensor_ts == ms(100)
        assert frame1.done_ts == ms(130)

    def test_saturated_fifo_queueing_hand_trace(self):
        # 150 ms service at 10 Hz on one worker: outputs 150/300/450,
        # bubbles 0/50/100
        g = chain_pipeline({"proc": (ms(150), NodeRole.CONTROL)})
        trace = run_simulation(simple_scenario(sec(1)), g,
                               one_group(g, workers=1), EngineConfig(), seed=1)
        first3 = sorted(trace.frames, key=lambda f: f.seq)[:3]
        assert [f.done_ts for f in first3] == [ms(150), ms(300), ms(450)]
        assert [f.bubble_us for f in first3] == [0, ms(50), ms(100)]

    def test_input_less_timing_node_runs_every_period(self):
        # the criterion-6 host's own tick: 20 ms every 100 ms, no inputs
        nodes = {
            "feed": NodeSpec("feed", ExecutionPattern.TIMING, (), ("a",),
                             ZERO_SENSOR, role=NodeRole.SENSOR, period_us=ms(100)),
            "heavy": NodeSpec("heavy", ExecutionPattern.INTERRUPT, ("a",), ("b",),
                              LatencyModel(offset_us=ms(150))),
            "tick": NodeSpec("tick", ExecutionPattern.TIMING, (), ("c",),
                             LatencyModel(offset_us=ms(20)), period_us=ms(100)),
        }
        graph = PipelineGraph(nodes=nodes, channels={
            c: Channel(c, ChannelPolicy.LATEST_ONLY) for c in ("a", "b", "c")})
        groups = [ProcessorGroup("guest", 1, ("feed", "heavy")),
                  ProcessorGroup("host", 1, ("tick",), budget_us=ms(200))]
        sc = Scenario(ego_initial=AgentState(s_m=0, l_m=0, v_mps=10.0, a_mps2=0),
                      agents=(), duration_us=sec(10))
        trace = run_simulation(sc, graph, groups, EngineConfig(), seed=0)
        ticks = [(s.start_us, s.end_us, s.worker) for s in trace.spans
                 if s.node == "tick"]
        assert ticks == [(ms(100) * k, ms(100) * k + ms(20), "host/0")
                         for k in range(101)]
        # the 101st tick starts at the horizon: none of it falls within the run
        assert trace.busy_us_by_group["host"] == 100 * ms(20)

    def test_noiseless_chain_e2e_is_sum_of_offsets(self):
        g = chain_pipeline({"a": (ms(20), NodeRole.PERCEPTION),
                            "b": (ms(30), NodeRole.PREDICTION),
                            "c": (ms(40), NodeRole.CONTROL)})
        trace = run_simulation(simple_scenario(sec(2)), g, one_group(g),
                               EngineConfig(), seed=1)
        assert trace.frames
        for f in trace.frames:
            assert f.e2e_us == ms(90)
            assert f.bubble_us == 0


class TestReactionMeasurement:
    def test_sensor_component_is_next_capture(self):
        g = chain_pipeline({"a": (ms(20), NodeRole.PERCEPTION),
                            "b": (ms(30), NodeRole.PREDICTION),
                            "c": (ms(40), NodeRole.CONTROL)})
        sc = simple_scenario(sec(2), hazards=((ms(35), "lead", "h"),))
        trace = run_simulation(sc, g, one_group(g), EngineConfig(), seed=1)
        r = trace.reactions[0]
        assert r.reacted
        assert r.t_sensor_us == ms(65)
        assert r.t_module_us == ms(90)
        assert r.t_bubble_us == 0
        assert r.decision_ts == ms(190)

    def test_blocked_stage_bubble_matches_hand_trace(self):
        # stage b serves 150 ms; hazard frame (capture 100 ms) waits for
        # the frame-0 service to finish at 170 ms: bubble = 50 ms
        g = chain_pipeline({"a": (ms(20), NodeRole.PERCEPTION),
                            "b": (ms(150), NodeRole.CONTROL)})
        sc = simple_scenario(sec(2), hazards=((ms(35), "lead", "h"),))
        trace = run_simulation(sc, g, one_group(g, workers=1), EngineConfig(), seed=1)
        r = trace.reactions[0]
        # hand trace: cap0 at 0: a [0,20], b [20,170]; cap1 at 100:
        # a waits for the worker until 170? one worker serves both a and b.
        assert r.reacted
        assert r.t_bubble_us == (r.decision_ts - r.hazard_ts
                                 - r.t_sensor_us - r.t_module_us)
        assert r.t_bubble_us > 0

    def test_identity_holds_exactly(self):
        g = chain_pipeline({"a": (ms(20), NodeRole.PERCEPTION),
                            "b": (ms(150), NodeRole.CONTROL)})
        sc = simple_scenario(sec(2), hazards=((ms(35), "lead", "h"),
                                              (ms(400), "lead", "h2")))
        trace = run_simulation(sc, g, one_group(g, workers=1), EngineConfig(), seed=1)
        for r in trace.reactions:
            if r.reacted:
                assert (r.decision_ts - r.hazard_ts
                        == r.t_sensor_us + r.t_module_us + r.t_bubble_us)

    def test_no_reaction_marker(self):
        # hazard agent never becomes visible
        lead = TrajectorySpec(initial=AgentState(s_m=30, l_m=0, v_mps=10, a_mps2=0),
                              visible_from_us=sec(10))
        sc = Scenario(ego_initial=AgentState(s_m=0, l_m=0, v_mps=10, a_mps2=0),
                      agents=(("lead", AgentKind.VEHICLE, lead),),
                      duration_us=sec(1),
                      hazard_events=((ms(100), "lead", "h"),))
        g = chain_pipeline({"proc": (ms(10), NodeRole.CONTROL)})
        trace = run_simulation(sc, g, one_group(g), EngineConfig(), seed=1)
        assert not trace.reactions[0].reacted

    def test_lineage_follows_the_newest_carrier(self):
        """Each origin's module time continues from the newest input that
        carries it, from the first such input on a tie; seq is the newest
        origin."""
        a = FrameMessage(created_ts=10, objects=(), lineage={0: (0, 5), 1: (3, 2)})
        b = FrameMessage(created_ts=20, objects=(), lineage={0: (0, 9)})
        c = FrameMessage(created_ts=20, objects=(), lineage={0: (0, 7), 1: (3, 4)})
        assert engine._advance_lineage([a, b, c], 100) == {0: (0, 109), 1: (3, 104)}
        assert (a.seq, b.seq, FrameMessage(created_ts=0, objects=()).seq) == (1, 0, -1)


class TestControlApplication:
    def make_sim(self, scenario):
        g = chain_pipeline({"proc": (ms(10), NodeRole.CONTROL)})
        return Simulation(scenario, g, one_group(g), EngineConfig(), seed=1)

    def test_brake_applies_after_actuation_delay(self):
        sim = self.make_sim(simple_scenario())
        sim.apply_control("brake", -6.0, sec(1))
        assert sim.ego_segments == [(sec(1) + ms(20), -6.0)]
        st = sim.ego_state(sec(1) + ms(20) + sec(1))
        assert st.v_mps == pytest.approx(4.0)

    def test_hold_is_noop(self):
        sim = self.make_sim(simple_scenario())
        sim.apply_control("hold", 0.0, sec(1))
        assert sim.ego_segments == []

    def test_accelerating_slower_agent_in_lane_triggers_a_brake(self):
        """Its closure peaks before the 2 s horizon and falls back, yet it
        reaches the buffer after ~225 ms: the deadline is real, not the cap."""
        agent = TrajectorySpec(initial=AgentState(s_m=30.0, l_m=0.0, v_mps=10.0, a_mps2=10.0))
        sc = Scenario(ego_initial=AgentState(s_m=0.0, l_m=0.0, v_mps=20.0, a_mps2=0.0),
                      agents=(("merging", AgentKind.VEHICLE, agent),), duration_us=sec(1),
                      d_buffer_m=2.0)
        g = chain_pipeline({"proc": (ms(10), NodeRole.CONTROL)})
        trace = run_simulation(sc, g, one_group(g), EngineConfig(), seed=1)
        # the first capture's output, decided at 10 ms, plus the actuation delay
        assert trace.ego_segments[0] == (ms(10) + ms(20), -6.0)

    def test_later_decision_overrides(self):
        sim = self.make_sim(simple_scenario())
        sim.apply_control("brake", -2.0, sec(1))
        sim.apply_control("brake", -6.0, sec(1) + ms(100))
        # from the second segment on, the newer level governs
        st = sim.ego_state(sec(1) + ms(120) + sec(1))
        expected_v = 10.0 - 2.0 * 0.1 - 6.0 * 1.0
        assert st.v_mps == pytest.approx(expected_v)


class TestFastpath:
    def test_residual_pass_carries_a_far_object_to_the_terminal(self):
        """Every frame takes the fastpath: the near obstacle's deadline
        (300 ms) leaves less than plan's 400 ms normal cost. The far
        obstacle, beyond the 20 m criticality radius, goes to the residual
        pass; its deadline is real (also 300 ms, under the 2 s cap), so the
        residual output is delivered, and only through it does the far
        obstacle reach the terminal."""
        def still(s_m):
            return TrajectorySpec(initial=AgentState(s_m=s_m, l_m=0.0, v_mps=0.0, a_mps2=0.0))
        sc = Scenario(ego_initial=AgentState(s_m=0.0, l_m=0.0, v_mps=10.0, a_mps2=0.0),
                      agents=(("near", AgentKind.VEHICLE, still(10.0)),
                              ("far", AgentKind.VEHICLE, still(45.0))),
                      duration_us=sec(1), hazard_events=((0, "far", "far-ahead"),))
        g = chain_pipeline({"plan": (ms(400), NodeRole.PLANNING), "sink": (ms(5), NodeRole.OTHER)},
                           fast={"plan": LatencyModel(offset_us=ms(10))})
        cfg = EngineConfig(mitigation=MitigationConfig(fastpath=True))
        trace = run_simulation(sc, g, one_group(g, workers=8), cfg, seed=1)    # no queueing
        plan = [s for s in trace.spans if s.node == "plan"]
        assert {s.path for s in plan if not s.residual} == {"fastpath"}
        assert any(s.residual for s in plan)
        (reaction,) = trace.reactions
        # capture 0's residual pass ends at 10 + 400 ms; sink then takes 5 ms
        assert (reaction.reacted, reaction.decision_ts) == (True, ms(415))


class TestDeterminism:
    def test_same_seed_byte_identical_traces(self, following_scenario):
        g = chain_pipeline({"a": (ms(20), NodeRole.PERCEPTION),
                            "b": (ms(40), NodeRole.CONTROL)})
        t1 = run_simulation(following_scenario, g, one_group(g),
                            EngineConfig(), seed=9)
        t2 = run_simulation(following_scenario, g, one_group(g),
                            EngineConfig(), seed=9)
        assert t1.to_ndjson() == t2.to_ndjson()

    def test_graph_reused_across_runs(self):
        # a saturated FIFO stage leaves a backlog queued when the run ends
        g = chain_pipeline({"proc": (ms(150), NodeRole.CONTROL)})
        traces = [Simulation(simple_scenario(sec(2)), g, one_group(g, workers=1),
                             EngineConfig(), seed=1).run().to_ndjson()
                  for _ in range(2)]
        assert traces[0] == traces[1]
        assert all(not ch.queued for ch in g.channels.values())

    def test_trace_ndjson_roundtrip(self, following_scenario):
        g = chain_pipeline({"a": (ms(20), NodeRole.PERCEPTION),
                            "b": (ms(40), NodeRole.CONTROL)})
        t = run_simulation(following_scenario, g, one_group(g),
                           EngineConfig(), seed=9)
        t2 = RunTrace.from_ndjson(t.to_ndjson())
        assert t2.to_ndjson() == t.to_ndjson()


class TestWorkConservation:
    def run_with_workers(self, n):
        g = chain_pipeline({"proc": (ms(150), NodeRole.CONTROL)})
        return run_simulation(simple_scenario(sec(3)), g,
                              one_group(g, workers=n), EngineConfig(), seed=1)

    def test_doubling_workers_never_hurts(self):
        t1 = {f.seq: f.e2e_us for f in self.run_with_workers(1).frames}
        t2 = {f.seq: f.e2e_us for f in self.run_with_workers(2).frames}
        for seq in t1:
            assert t2.get(seq, 0) <= t1[seq]


class TestLatestOnlyChannel:
    def test_busy_consumer_sees_only_newest(self):
        # 300 ms service at 10 Hz via latest-only: while busy, older
        # frames are overwritten
        g = chain_pipeline({"proc": (ms(300), NodeRole.CONTROL)},
                           channel_policy=ChannelPolicy.LATEST_ONLY)
        trace = run_simulation(simple_scenario(sec(2)), g,
                               one_group(g, workers=1), EngineConfig(), seed=1)
        seqs = sorted(f.seq for f in trace.frames)
        # frame 0 runs [0,300]; frames 1,2 arrive meanwhile, only the
        # newest (2) is served next
        assert 0 in seqs and 2 in seqs and 1 not in seqs


class TestValidationErrors:
    def test_unpinned_node_rejected(self):
        g = chain_pipeline({"proc": (ms(10), NodeRole.CONTROL)})
        with pytest.raises(EngineError, match="not pinned"):
            Simulation(simple_scenario(), g,
                       [ProcessorGroup("g", 1, ("sensor",))], EngineConfig(), 1)

    def test_bad_tick_rejected(self):
        with pytest.raises(EngineError, match="tick"):
            EngineConfig(tick_us=0)
