import json
import math
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from avpipesim.scenario import (MAX_MAGNITUDE, MAX_TIME_US, AgentKind, AgentState,
                                CompiledTrajectory, RoadSpec, Scenario, ScenarioError,
                                TrajectorySpec, agent_state_at, generate_traffic,
                                load_scenario, save_scenario, scenario_from_json,
                                scenario_to_json, visible_agents)
from avpipesim.simkernel import sec


def traj(v0=10.0, segments=(), s0=0.0, visible_from=0):
    return TrajectorySpec(
        initial=AgentState(s_m=s0, l_m=0.0, v_mps=v0, a_mps2=0.0),
        segments=tuple(segments), visible_from_us=visible_from)


class TestKinematics:
    def test_braking_one_second(self):
        t = traj(v0=10.0, segments=((0, -5.0),))
        st = agent_state_at(t, sec(1))
        assert st.v_mps == pytest.approx(5.0)
        assert st.s_m == pytest.approx(7.5)

    def test_braking_clamps_at_stop(self):
        t = traj(v0=10.0, segments=((0, -5.0),))
        st = agent_state_at(t, sec(3))
        assert st.v_mps == 0.0
        assert st.s_m == pytest.approx(10.0)   # stopped at t=2 s

    def test_constant_velocity_identity(self):
        t = traj(v0=7.0)
        for t_us in (0, 123_456, sec(5)):
            st = agent_state_at(t, t_us)
            assert st.v_mps == pytest.approx(7.0)
            assert st.s_m == pytest.approx(7.0 * t_us / 1e6)

    def test_continuity_at_segment_boundary_and_stop(self):
        t = traj(v0=10.0, segments=((sec(1), -5.0), (sec(4), 1.0)))
        eps = 100  # 0.1 ms
        for boundary in (sec(1), sec(3), sec(4)):  # stop occurs at t=3 s
            before = agent_state_at(t, boundary - eps)
            after = agent_state_at(t, boundary + eps)
            dt = 2 * eps / 1e6
            # displacement bounded by speed over the window: no position jump
            assert abs(after.s_m - before.s_m) <= 15.0 * dt + 1e-9
            assert abs(after.v_mps - before.v_mps) <= 5.0 * dt + 1e-9

    def test_closed_form_matches_euler_oracle(self):
        # 1 ms forward Euler within 1 cm over 30 s
        t = traj(v0=12.0, segments=((sec(3), -2.0), (sec(10), 0.5), (sec(20), -4.0)))
        s, v = t.initial.s_m, t.initial.v_mps
        dt = 1e-3
        steps = 30_000
        for i in range(steps):
            now_us = round(i * dt * 1e6)
            a = t.initial.a_mps2
            for seg_t, seg_a in t.segments:
                if seg_t <= now_us:
                    a = seg_a
            if v <= 0 and a < 0:
                a = 0.0
            s += v * dt + 0.5 * a * dt * dt
            v = max(0.0, v + a * dt)
        st = agent_state_at(t, sec(30))
        assert abs(st.s_m - s) < 0.01


class TestVisibility:
    def make_scenario(self, agents):
        return Scenario(ego_initial=AgentState(0, 0, 10, 0), agents=tuple(agents),
                        duration_us=sec(10))

    def test_occluded_agent_excluded_before_visible_from(self):
        sc = self.make_scenario([("p", AgentKind.PEDESTRIAN,
                                  traj(v0=0.0, s0=10.0, visible_from=sec(3)))])
        assert visible_agents(sc, sec(2), 50.0) == []
        seen = visible_agents(sc, sec(3), 50.0)
        assert [a[0] for a in seen] == ["p"]

    def test_range_boundary(self):
        sc = self.make_scenario([
            ("near", AgentKind.VEHICLE, traj(v0=0.0, s0=20.0)),
            ("far", AgentKind.VEHICLE, traj(v0=0.0, s0=30.0))])
        ids = [a[0] for a in visible_agents(sc, 0, 25.0)]
        assert ids == ["near"]

    def test_pedestrian_appears_exactly_at_visible_from(self):
        vf = 2_500_000
        sc = self.make_scenario([("p", AgentKind.PEDESTRIAN,
                                  traj(v0=1.0, s0=15.0, visible_from=vf))])
        assert visible_agents(sc, vf - 1, 50.0) == []
        assert [a[0] for a in visible_agents(sc, vf, 50.0)] == ["p"]


class TestTrafficGeneration:
    def test_zero_density_empty(self):
        assert generate_traffic(0.0, 1, RoadSpec()) == []

    @pytest.mark.parametrize("density", [-1.0, math.nan, math.inf])
    def test_density_must_be_finite_and_non_negative(self, density):
        with pytest.raises(ValueError, match=f"density must be finite and >= 0, got {density}"):
            generate_traffic(density, 1, RoadSpec())

    def test_deterministic_per_seed(self):
        a = generate_traffic(5.0, 42, RoadSpec())
        b = generate_traffic(5.0, 42, RoadSpec())
        assert a == b
        c = generate_traffic(5.0, 43, RoadSpec())
        assert a != c

    def test_mean_in_radius_count_matches_density(self):
        # Monte Carlo over seeds: expected agents within 25 m of the ego
        density = 5.0
        total = 0
        n_seeds = 1000
        for seed in range(n_seeds):
            agents = generate_traffic(density, seed, RoadSpec())
            total += sum(1 for _, t in agents if abs(t.initial.s_m) <= 25.0)
        mean = total / n_seeds
        assert 4.5 <= mean <= 5.5


class TestSerialization:
    def test_minimal_scenario_roundtrip(self, tmp_path):
        sc = Scenario(ego_initial=AgentState(0, 0, 5, 0), agents=(),
                      duration_us=sec(1))
        p = tmp_path / "s.json"
        save_scenario(sc, p)
        assert load_scenario(p) == sc

    def test_following_fixture_roundtrip(self, following_scenario, tmp_path):
        p = tmp_path / "s.json"
        save_scenario(following_scenario, p)
        loaded = load_scenario(p)
        assert loaded == following_scenario
        assert len(loaded.hazard_events) == 1
        # a second round-trip is byte-identical
        p2 = tmp_path / "s2.json"
        save_scenario(loaded, p2)
        assert p.read_bytes() == p2.read_bytes()

    def test_duplicate_agent_id_rejected(self):
        obj = scenario_to_json(Scenario(
            ego_initial=AgentState(0, 0, 5, 0),
            agents=(("a", AgentKind.VEHICLE, traj()),), duration_us=sec(1)))
        obj["agents"].append(dict(obj["agents"][0]))
        with pytest.raises(ScenarioError, match="'a'"):
            scenario_from_json(obj)

    def test_unknown_field_rejected(self):
        obj = scenario_to_json(Scenario(ego_initial=AgentState(0, 0, 5, 0),
                                        agents=(), duration_us=sec(1)))
        obj["speed_limit"] = 30
        with pytest.raises(ScenarioError, match="speed_limit"):
            scenario_from_json(obj)

    def test_missing_format_rejected(self):
        obj = scenario_to_json(Scenario(ego_initial=AgentState(0, 0, 5, 0),
                                        agents=(), duration_us=sec(1)))
        del obj["format"]
        with pytest.raises(ScenarioError, match="format"):
            scenario_from_json(obj)

    def test_malformed_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ScenarioError, match="malformed"):
            load_scenario(p)


class TestInvariants:
    def test_non_monotone_segments_rejected(self):
        with pytest.raises(ScenarioError, match=re.escape(
                "segments[1].start_us: expected > segments[0].start_us (2000000), got 1000000")):
            TrajectorySpec(initial=AgentState(0, 0, 5, 0),
                           segments=((sec(2), -1.0), (sec(1), 0.0)))

    def test_negative_duration_rejected(self):
        with pytest.raises(ScenarioError, match="duration"):
            Scenario(ego_initial=AgentState(0, 0, 5, 0), agents=(), duration_us=0)

    def test_hazard_beyond_duration_rejected(self):
        with pytest.raises(ScenarioError, match="hazard"):
            Scenario(ego_initial=AgentState(0, 0, 5, 0),
                     agents=(("a", AgentKind.VEHICLE, traj()),),
                     duration_us=sec(1),
                     hazard_events=((sec(2), "a", "late"),))

    def test_negative_hazard_time_rejected(self):
        """A hazard before the run starts was once reported as a reaction
        with t_sensor_us = 5."""
        with pytest.raises(ScenarioError, match=r"^hazards\[1\]\.time_us: expected in "
                                                r"\[0, duration_us \(1000000\)\), got -5$"):
            Scenario(ego_initial=AgentState(0, 0, 5, 0),
                     agents=(("a", AgentKind.VEHICLE, traj()),),
                     duration_us=sec(1),
                     hazard_events=((0, "a", "start"), (-5, "a", "early")))


# magnitudes and times anywhere up to their bounds, of every scale
scales = st.sampled_from([0.0, 1e-6, 1.0, 1e3, 1e6, 1e9, MAX_MAGNITUDE])
signed = st.builds(lambda k, x: k * x, st.floats(-1.0, 1.0), scales)
speeds = signed.map(abs) | signed       # a negative one is refused
spans = st.sampled_from([*(10**k for k in range(19)), MAX_TIME_US])
instants = st.builds(min, st.integers(0, MAX_TIME_US), spans)


def checked(state: AgentState) -> AgentState:
    """state through AgentState's own checks."""
    return AgentState(state.s_m, state.l_m, state.v_mps, state.a_mps2, state.lane_index)


class TestReachBound:
    """Scenario bounds every state a run derives: each agent's over
    [0, duration_us], and the ego's under any brake decisions."""

    @settings(max_examples=250, deadline=None)
    @given(ego=st.tuples(signed, signed, speeds, signed),
           initial=st.tuples(signed, signed, speeds, signed),
           segments=st.lists(st.tuples(instants, signed), max_size=4,
                             unique_by=lambda seg: seg[0]).map(sorted),
           brakes=st.lists(st.tuples(instants, signed.map(lambda a: -abs(a))), max_size=3,
                           unique_by=lambda seg: seg[0]).map(sorted),
           duration_us=st.builds(min, st.integers(1, MAX_TIME_US), spans), data=st.data())
    def test_derived_states_pass_the_input_checks(self, ego, initial, segments, brakes,
                                                  duration_us, data):
        """brakes are the ego's, at levels in [-MAX_MAGNITUDE, 0]."""
        try:
            ego = AgentState(*ego)
            traj = TrajectorySpec(AgentState(*initial), tuple(segments))
            Scenario(ego, (("a", AgentKind.VEHICLE, traj),), duration_us)
        except ScenarioError:
            assume(False)
        braked = CompiledTrajectory(TrajectorySpec(ego))
        for t, level in brakes:         # as Simulation.apply_control appends them
            braked.append(t, min(level, braked.states[-1][2]))
        edges = {t + d for t, _ in segments + brakes for d in (-1, 0, 1)}
        times = data.draw(st.lists(st.integers(0, duration_us), max_size=6))
        times += [0, duration_us, *(t for t in edges if 0 <= t <= duration_us)]
        for c in (CompiledTrajectory(traj), braked):
            for t in times:
                checked(c.state_at(t))

    def test_agent_past_the_bound_is_refused(self):
        agent = TrajectorySpec(AgentState(10.0, 0.0, 10.0, 0.0))
        with pytest.raises(ScenarioError, match=re.escape(
                "agent 'a': s_m within duration_us 9223372036854775807: expected magnitude "
                "<= 1e+12, got 92233720368557.75")):
            Scenario(AgentState(0.0, 0.0, 0.0, 0.0), (("a", AgentKind.VEHICLE, agent),),
                     duration_us=MAX_TIME_US)

    def test_peak_speed_at_a_segment_start_is_refused(self):
        """The speed peaks mid-run, where braking starts; at the end the
        agent has stopped, at s = 4.4e11 m."""
        agent = TrajectorySpec(AgentState(-1e12, 0.0, 0.0, 1e12), segments=((sec(1.2), -1e12),))
        with pytest.raises(ScenarioError, match=re.escape(
                "agent 'a': v_mps within duration_us 3000000: expected magnitude "
                "<= 1e+12, got 1200000000000.0")):
            Scenario(AgentState(0.0, 0.0, 0.0, 0.0), (("a", AgentKind.VEHICLE, agent),),
                     duration_us=sec(3))

    def test_the_bound_itself_is_admitted(self):
        agent = TrajectorySpec(AgentState(1e12 - 10.0, 0.0, 10.0, 0.0))
        assert Scenario(AgentState(0.0, 0.0, 0.0, 0.0), (("a", AgentKind.VEHICLE, agent),),
                        duration_us=sec(1))

    def test_a_braking_ego_is_bounded_as_given(self):
        """A brake never raises the ego's acceleration, so the ego is bounded
        as given: from 20 m/s at -8 m/s**2 it stops after 25 m, however long
        the run. Bounded at max(a, 0), it was refused."""
        assert Scenario(AgentState(0.0, 0.0, 20.0, -8.0), (), duration_us=MAX_TIME_US)
        assert Scenario(AgentState(0.0, 0.0, 1.0, -1.0), (), duration_us=sec(2e12))
        with pytest.raises(ScenarioError, match=re.escape(
                "ego: s_m within duration_us 2000000000000000000: expected magnitude "
                "<= 1e+12, got 2000000000000.0")):
            Scenario(AgentState(0.0, 0.0, 1.0, 0.0), (), duration_us=sec(2e12))
