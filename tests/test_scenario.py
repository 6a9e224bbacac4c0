import json
import math

import pytest

from avpipesim.scenario import (AgentKind, AgentState, RoadSpec, Scenario,
                                ScenarioError, TrajectorySpec, agent_state_at,
                                generate_traffic, load_scenario, save_scenario,
                                scenario_from_json, scenario_to_json,
                                visible_agents)
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
        with pytest.raises(ScenarioError, match="increasing"):
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
