import random

import pytest
from hypothesis import given, settings, strategies as st

from avpipesim.safety import (DEFAULT_HORIZON_US, RssParams, SafetyLevel, check_safety,
                              closure_distance, object_deadline, reaction_budget,
                              rss_longitudinal_min_distance)
from avpipesim.scenario import AgentState
from avpipesim.simkernel import ms, sec


def state(s=0.0, v=0.0, a=0.0, l=0.0):
    return AgentState(s_m=s, l_m=l, v_mps=v, a_mps2=a)


class TestRssMinDistance:
    def test_equal_speeds_zero_rho_symmetric_brakes(self):
        p = RssParams(response_time_us=1, a_max_accel=2.0,
                      a_min_brake=4.0, a_max_brake=4.0)
        d = rss_longitudinal_min_distance(10.0, 10.0, p)
        assert d == pytest.approx(0.0, abs=1e-3)

    def test_hand_computed_value(self):
        # v_r=10, v_f=0, rho=0.1, a_accel=2, a_min=4, a_max=8:
        # 10*0.1 + 0.5*2*0.01 + 10.2^2/8 - 0 = 1 + 0.01 + 13.005 = 14.015
        p = RssParams(response_time_us=100_000, a_max_accel=2.0,
                      a_min_brake=4.0, a_max_brake=8.0)
        assert rss_longitudinal_min_distance(10.0, 0.0, p) == pytest.approx(14.015)

    def test_negative_clamped(self):
        p = RssParams(response_time_us=1, a_max_accel=0.1,
                      a_min_brake=4.0, a_max_brake=4.0)
        assert rss_longitudinal_min_distance(0.0, 10.0, p) == 0.0


class TestClosure:
    def test_constant_closing_speed(self):
        # ego 5 m/s faster than a steady obstacle
        d = closure_distance(state(v=10.0), state(s=20, v=5.0), ms(100))
        assert d == pytest.approx(0.5)

    def test_zero_relative_motion(self):
        for t in (0, ms(10), sec(1)):
            assert closure_distance(state(v=8.0), state(s=30, v=8.0), t) == 0.0

    def test_braking_lead(self):
        d = closure_distance(state(v=10.0), state(s=30, v=10.0, a=-6.0), sec(1))
        assert d == pytest.approx(3.0)   # 0.5 * 6 * 1^2


class TestReactionBudget:
    P = RssParams()

    def test_constant_closing_exact(self):
        rb = reaction_budget(state(v=10.0), state(s=20, v=5.0), 1.0, self.P)
        assert rb.budget_us == ms(200)   # 1 m / 5 m/s

    def test_unbounded_when_not_closing(self):
        rb = reaction_budget(state(v=0.0), state(s=100, v=0.0), 1.0, self.P)
        assert rb.unbounded

    def test_bisection_matches_stepping_oracle(self):
        rng = random.Random(7)
        for _ in range(1000):
            v_e = rng.uniform(0.5, 20.0)
            v_o = rng.uniform(0.0, v_e - 0.1)
            a_o = rng.uniform(-8.0, 0.0)
            buf = rng.uniform(0.3, 5.0)
            ego, obs = state(v=v_e), state(s=20, v=v_o, a=a_o)
            rb = reaction_budget(ego, obs, buf, self.P)
            # brute force: step 1 ms until closure >= buffer
            oracle = None
            t = 0
            while t <= 2_000_000:
                if closure_distance(ego, obs, t) >= buf:
                    oracle = t - 1000
                    break
                t += 1000
            if oracle is None:
                assert rb.unbounded
            else:
                assert not rb.unbounded
                assert abs(rb.budget_us - oracle) <= 1000

    def test_accelerating_slower_obstacle_priced_to_its_first_unsafe_instant(self):
        # closure 10 t - 5 t^2 peaks at 5 m after 1 s and falls back to 0 at
        # the 2 s horizon; it first reaches 2 m at t = 1 - sqrt(0.6) s
        rb = reaction_budget(state(v=20.0), state(s=10.0, v=10.0, a=10.0), 2.0, self.P)
        assert rb.budget_us == pytest.approx(ms(225), abs=ms(1))

    @settings(max_examples=300, deadline=None)
    @given(v_ego=st.sampled_from([0.0, 10.0, 20.0]) | st.floats(0, 40),
           v_obs=st.sampled_from([0.0, 10.0]) | st.floats(0, 40),
           a_obs=st.sampled_from([0.0, -8.0, 10.0]) | st.floats(-12, 12),
           buf=st.sampled_from([2.0, 3.0]) | st.floats(0.01, 20))
    def test_budget_against_the_first_unsafe_ms_step(self, v_ego, v_obs, a_obs, buf):
        """The budget is the last safe microsecond rounded to the nearest ms,
        so it is at most 1 ms before the first unsafe 1 ms step and never
        after it, whatever the sign of the obstacle's acceleration."""
        ego, obs = state(v=v_ego), state(s=20.0, v=v_obs, a=a_obs)
        budget = reaction_budget(ego, obs, buf, self.P).budget_us
        first_unsafe = next((t for t in range(0, DEFAULT_HORIZON_US + 1, ms(1))
                             if closure_distance(ego, obs, t) >= buf), None)
        if first_unsafe is not None:
            assert budget is not None and 0 <= first_unsafe - budget <= ms(1)
        elif budget is not None:
            # unsafe only between two 1 ms steps, at an accelerating obstacle's peak
            assert a_obs > 0 and any(closure_distance(ego, obs, t) >= buf
                                     for t in range(max(0, budget - ms(1)), budget + ms(1)))

    def test_monotone_in_ego_speed(self):
        budgets = []
        for v in (5.0, 8.0, 11.0, 14.0):
            rb = reaction_budget(state(v=v), state(s=30, v=2.0), 2.0, self.P)
            budgets.append(rb.budget_us if not rb.unbounded else 10**9)
        assert budgets == sorted(budgets, reverse=True)

    def test_monotone_in_buffer(self):
        budgets = []
        for buf in (0.5, 1.0, 2.0, 4.0):
            rb = reaction_budget(state(v=10.0), state(s=30, v=2.0), buf, self.P)
            budgets.append(rb.budget_us)
        assert budgets == sorted(budgets)


class TestObjectDeadline:
    P = RssParams()

    def test_now_plus_budget(self):
        dl, capped = object_deadline(sec(1), state(v=10.0), state(s=20, v=5.0),
                                     1.0, self.P)
        assert dl == sec(1) + ms(200)
        assert not capped

    def test_unbounded_maps_to_cap(self):
        dl, capped = object_deadline(sec(1), state(v=0.0), state(s=100, v=0.0),
                                     1.0, self.P, deadline_cap_us=sec(2))
        assert dl == sec(3)
        assert capped

    def test_nearer_faster_obstacle_earlier_deadline(self):
        ego = state(v=12.0)
        slow_far = state(s=50, v=10.0)
        fast_near = state(s=15, v=2.0)
        d1, _ = object_deadline(0, ego, slow_far, 2.0, self.P)
        d2, _ = object_deadline(0, ego, fast_near, 2.0, self.P)
        assert d2 < d1
        # oracle: the deadline ordering matches the budget ordering
        rb1 = reaction_budget(ego, slow_far, 2.0, self.P)
        rb2 = reaction_budget(ego, fast_near, 2.0, self.P)
        assert rb2.budget_us < (rb1.budget_us or 10**9)


class TestCheckSafety:
    P = RssParams()

    def test_zero_gap_collision(self):
        st = check_safety(state(v=10.0), state(s=0.0, v=0.0), self.P, 2.0)
        assert st.level == SafetyLevel.COLLISION

    def test_large_gap_safe(self):
        st = check_safety(state(v=10.0), state(s=200.0, v=10.0), self.P, 2.0)
        assert st.level == SafetyLevel.SAFE

    def test_just_inside_threshold_violation(self):
        threshold = rss_longitudinal_min_distance(10.0, 0.0, self.P) + 2.0
        st = check_safety(state(v=10.0), state(s=threshold - 0.01, v=0.0),
                          self.P, 2.0)
        assert st.level == SafetyLevel.VIOLATION

    def test_lateral_clearance_safe(self):
        st = check_safety(state(v=10.0), state(s=1.0, v=0.0, l=3.5), self.P, 2.0)
        assert st.level == SafetyLevel.SAFE

    def test_far_behind_safe(self):
        st = check_safety(state(s=100.0, v=10.0), state(s=0.0, v=0.0), self.P, 2.0)
        assert st.level == SafetyLevel.SAFE

    def test_violation_consistent_with_budget(self):
        # inside the violation band, the remaining reaction budget is small:
        # no larger than the configured response time
        p = self.P
        ego = state(v=10.0)
        threshold = rss_longitudinal_min_distance(10.0, 0.0, p) + 1.0
        obs = state(s=threshold - 0.5, v=0.0)
        assert check_safety(ego, obs, p, 1.0).level == SafetyLevel.VIOLATION
        rb = reaction_budget(ego, obs, 1.0, p)
        assert not rb.unbounded
        assert rb.budget_us <= p.response_time_us


class TestValidation:
    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            RssParams(a_min_brake=9.0, a_max_brake=4.0)
        with pytest.raises(ValueError):
            RssParams(response_time_us=0)

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            rss_longitudinal_min_distance(-1.0, 0.0, RssParams())

    def test_bad_buffer_rejected(self):
        with pytest.raises(ValueError):
            reaction_budget(state(v=5.0), state(s=10), 0.0, RssParams())
