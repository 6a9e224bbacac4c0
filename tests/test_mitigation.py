import pytest

from avpipesim.mitigation import (MitigationConfig, PathChoice, choose_path,
                                  message_deadline, partial_update, proactive_credit,
                                  residual_needs_downstream, steal_admission)
from avpipesim.pipeline import (ExecutionPattern, LatencyModel, NodeRole, NodeSpec,
                                ObjectTrack, latency_plan)
from avpipesim.scenario import AgentKind, AgentState
from avpipesim.simkernel import ms

V = AgentKind.VEHICLE


def track(aid, s_m, deadline_us, capped=False):
    return ObjectTrack(agent_id=aid, kind=V, s_m=s_m,
                       deadline_us=deadline_us, deadline_capped=capped)


class TestMessageDeadline:
    def test_min_of_deadlines(self):
        objs = [track("a", 5, ms(500)), track("b", 6, ms(300)), track("c", 7, ms(800))]
        assert message_deadline(objs, 0) == ms(300)

    def test_empty_uses_cap(self):
        assert message_deadline([], ms(1000), deadline_cap_us=ms(2000)) == ms(3000)

    def test_single_object_identity(self):
        assert message_deadline([track("a", 5, ms(450))], 0) == ms(450)


class TestChoosePath:
    """choose_path decides by the normal path's price it is handed: the
    node's own models are not read."""

    def make_node(self):
        return NodeSpec(name="plan", pattern=ExecutionPattern.INTERRUPT,
                        inputs=("i",), outputs=("o",),
                        latency=LatencyModel(offset_us=ms(60)),
                        fast_latency=LatencyModel(offset_us=ms(15)),
                        role=NodeRole.PLANNING)

    def test_fastpath_when_normal_does_not_fit(self):
        # deadline 125 ms after capture, now 40 ms in, downstream 40 ms:
        # remaining 45 ms < normal 60 ms
        assert choose_path(self.make_node(), ms(60), ms(125), ms(40), ms(40)) == PathChoice.FASTPATH

    def test_normal_when_it_fits(self):
        assert choose_path(self.make_node(), ms(30), ms(125), ms(40), ms(40)) == PathChoice.NORMAL

    def test_normal_when_the_cost_is_exactly_the_budget_left(self):
        assert choose_path(self.make_node(), ms(45), ms(125), ms(40), ms(40)) == PathChoice.NORMAL
        assert choose_path(self.make_node(), ms(45) + 1, ms(125), ms(40), ms(40)) \
            == PathChoice.FASTPATH

    def test_saturating_when_budget_exhausted(self):
        assert choose_path(self.make_node(), ms(1), ms(125), ms(200), 0) == PathChoice.FASTPATH

    def test_fastpath_when_no_budget_is_left_whatever_the_cost(self):
        # remaining exactly 0 and below it: even a free pass takes the fastpath
        for now in (ms(85), ms(86)):
            assert choose_path(self.make_node(), 0, ms(125), now, ms(40)) == PathChoice.FASTPATH

    def test_rejects_non_fastpath_node(self):
        node = NodeSpec(name="perc", pattern=ExecutionPattern.INTERRUPT,
                        inputs=("i",), outputs=("o",),
                        latency=LatencyModel(offset_us=100), role=NodeRole.PERCEPTION)
        with pytest.raises(ValueError):
            choose_path(node, 100, 0, 0, 0)


class TestPartialUpdate:
    EGO = AgentState(s_m=0, l_m=0, v_mps=10, a_mps2=0)

    def test_split_by_radius(self):
        objs = (track("near", 5, ms(100)), track("far", 30, ms(200)))
        crit, resid = partial_update(objs, self.EGO, 20.0)
        assert [o.agent_id for o in crit] == ["near"]
        assert [o.agent_id for o in resid] == ["far"]

    def test_all_within_radius(self):
        objs = (track("a", 5, ms(100)), track("b", 10, ms(200)))
        crit, resid = partial_update(objs, self.EGO, 20.0)
        assert len(crit) == 2 and resid == ()

    def test_critical_holds_exactly_the_objects_within_radius(self):
        """The halves are sets: a message's object order means nothing."""
        objs = (track("late", 5, ms(900)), track("far", 25, ms(50)), track("soon", 8, ms(100)),
                track("edge", -20, ms(300)), track("mid", 3, ms(400)))
        crit, resid = partial_update(objs, self.EGO, 20.0)
        assert {o.agent_id for o in crit} == {"late", "soon", "edge", "mid"}
        assert {o.agent_id for o in resid} == {"far"}
        assert len(crit) + len(resid) == len(objs) and set(crit) | set(resid) == set(objs)

    def test_conservation_and_disjointness(self):
        objs = tuple(track(f"o{i}", i * 7.0, ms(100 * (i + 1))) for i in range(10))
        crit, resid = partial_update(objs, self.EGO, 20.0)
        assert set(crit) | set(resid) == set(objs)
        assert set(crit) & set(resid) == set()

    def test_residual_propagation_rule(self):
        assert residual_needs_downstream((track("a", 30, ms(500), capped=False),))
        assert not residual_needs_downstream((track("a", 30, ms(500), capped=True),))


class TestFastpathPlanningLatency:
    def test_lookahead_saving(self):
        m = LatencyModel(offset_us=ms(10), lookahead_cost_us_per_m=100.0)
        full = latency_plan(m, 100.0).price({})
        short = latency_plan(m, 40.0).price({})
        assert full - short == 6000    # 60 m at 0.1 ms/m

    def test_zero_cost_no_saving(self):
        m = LatencyModel(offset_us=ms(10), lookahead_cost_us_per_m=0.0)
        assert latency_plan(m, 100.0).price({}) == latency_plan(m, 40.0).price({})

    def test_monotone_over_lookahead_grid(self):
        m = LatencyModel(offset_us=ms(10), lookahead_cost_us_per_m=50.0)
        vals = [latency_plan(m, d).price({}) for d in (20, 40, 60, 80, 100)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestProactiveCredit:
    def test_full_credit_when_gap_exceeds_cost(self):
        assert proactive_credit(ms(8), arrival_us=0, trigger_us=ms(20),
                                cancelled=False) == ms(8)

    def test_partial_credit(self):
        assert proactive_credit(ms(8), arrival_us=0, trigger_us=ms(3),
                                cancelled=False) == ms(3)

    def test_cancelled_forfeits(self):
        assert proactive_credit(ms(8), arrival_us=0, trigger_us=ms(20),
                                cancelled=True) == 0


class TestStealAdmission:
    def test_admit_within_budget(self):
        assert steal_admission(ms(3), [ms(6)], ms(10),
                               safety_factor=1.0)

    def test_reject_over_budget(self):
        assert not steal_admission(ms(5), [ms(6)], ms(10),
                                   safety_factor=1.0)

    def test_empty_host_admits_small_guest(self):
        assert steal_admission(ms(4), [0, 0], ms(10),
                               safety_factor=1.0)

    def test_safety_factor_inflates_guest(self):
        assert steal_admission(ms(8), [0], ms(10), safety_factor=1.0)
        assert not steal_admission(ms(8), [0], ms(10),
                                   safety_factor=1.3)

    def test_overloaded_host_rejects_everything(self):
        assert not steal_admission(1, [ms(20)], ms(10),
                                   safety_factor=1.0)


class TestConfig:
    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError):
            MitigationConfig(criticality_radius_m=0.0)

    def test_bad_safety_factor_rejected(self):
        with pytest.raises(ValueError):
            MitigationConfig(steal_safety_factor=0.5)
