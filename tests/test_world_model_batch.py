"""The engine's compiled world model against the scalar references.

agent_state_at, visible_agents, check_safety and object_deadline define
the world model; the engine evaluates compiled trajectories in numpy
instead, a block of instants per pass. Every comparison here is exact
(float.hex), not approximate: the trace must stay byte-identical.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avpipesim import scenario as scenario_module
from avpipesim.engine import EngineConfig, Simulation, _round6
from avpipesim.pipeline import NodeRole
from avpipesim.safety import RssParams, check_safety, check_safety_many, object_deadline
from avpipesim.scenario import (WORLD_BLOCK, AgentArrays, AgentKind, AgentState,
                                CompiledTrajectory, Scenario, TrajectorySpec,
                                agent_arrays_at, agent_state_at, visible_agents)
from avpipesim.simkernel import US_PER_S, ms, sec

from conftest import chain_pipeline, one_group

HORIZON_US = sec(6)


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


states = st.builds(
    AgentState,
    s_m=st.sampled_from([0.0, 12.5]) | finite(-300, 300),
    l_m=st.sampled_from([0.0, 0.5, -0.5, 3.5, -3.5]) | finite(-5, 5),
    v_mps=st.sampled_from([0.0, 10.0]) | finite(0, 30),
    a_mps2=st.sampled_from([0.0, -0.0, -6.0]) | finite(-12, 4),
    lane_index=st.integers(-1, 1))

segments = st.lists(
    st.tuples(st.integers(0, HORIZON_US), st.sampled_from([0.0, -8.0]) | finite(-12, 4)),
    max_size=4, unique_by=lambda seg: seg[0]).map(lambda segs: tuple(sorted(segs)))

trajectories = st.builds(TrajectorySpec, initial=states, segments=segments,
                         visible_from_us=st.integers(0, HORIZON_US))


def critical_times(traj: TrajectorySpec) -> set[int]:
    """Segment starts and stop instants, each with its neighbours."""
    out = set()
    c = CompiledTrajectory(traj)
    for start, (_, v, a) in zip(c.starts, c.states):
        points = [start, traj.visible_from_us]
        t_stop_us = v / -a * US_PER_S if a < 0 < v else math.inf
        if t_stop_us < 2 * HORIZON_US:
            points.append(start + int(t_stop_us))
        for p in points:
            out.update((p - 1, p, p + 1))
    return out


@st.composite
def worlds(draw):
    agents = tuple((f"a{i}", draw(st.sampled_from(list(AgentKind))), draw(trajectories))
                   for i in range(draw(st.integers(0, 6))))
    ego = draw(trajectories)
    scenario = Scenario(ego_initial=ego.initial, agents=agents,
                        duration_us=HORIZON_US + 2)
    times = set(draw(st.lists(st.integers(0, HORIZON_US), max_size=4)))
    for traj in [ego] + [a[2] for a in agents]:
        times |= critical_times(traj)
    times = sorted(t for t in times if 0 <= t <= scenario.duration_us)
    return scenario, ego, times


def bits(*values) -> tuple:
    return tuple(float(v).hex() for v in values)


def state_bits(st_: AgentState) -> tuple:
    return bits(st_.s_m, st_.l_m, st_.v_mps, st_.a_mps2) + (st_.lane_index,)


def sim_of(scenario: Scenario, config=EngineConfig(), sensor_period_us=100_000,
           cls=Simulation) -> Simulation:
    g = chain_pipeline({"proc": (ms(10), NodeRole.CONTROL)}, sensor_period_us=sensor_period_us)
    return cls(scenario, g, one_group(g), config, seed=1)


class CaptureProbe(Simulation):
    """The engine's capture at any t, for an ego given per call."""

    def tracks(self, t: int, ego: AgentState):
        """The tracks the sensor emits at t."""
        self.probe_ego = ego
        self._capture(self._nodes["sensor"], t)
        return self.emitted

    def ego_state(self, t_us):
        return self.probe_ego

    def _emit(self, node, msg):
        self.emitted = msg.objects


def track_bits(tracks) -> list:
    return [(o.agent_id, o.kind, bits(o.s_m), o.deadline_us, o.deadline_capped)
            for o in tracks]


def scalar_tracks(scenario, t, ego, config) -> list:
    """visible_agents, then object_deadline per agent: the capture's reference."""
    out = []
    for aid, kind, x in visible_agents(scenario, t, config.sensor_range_m, ego_state=ego):
        dl, capped = object_deadline(t, ego, x, scenario.d_buffer_m, config.rss,
                                     deadline_cap_us=config.mitigation.deadline_cap_us)
        out.append((aid, kind, bits(x.s_m), dl, capped))
    return out


@settings(max_examples=250, deadline=None)
@given(worlds(), finite(1.0, 120.0), st.sampled_from([0.5, 0.25, 2.0]))
def test_compiled_world_equals_scalar_references(case, sensor_range_m, mu):
    scenario, ego_traj, times = case
    config = EngineConfig(sensor_range_m=sensor_range_m, rss=RssParams(lateral_mu_m=mu))
    rss = config.rss
    world = AgentArrays(scenario.agents)
    compiled = [CompiledTrajectory(traj) for _, _, traj in scenario.agents]
    sim = sim_of(scenario, config, cls=CaptureProbe)
    block = agent_arrays_at(world, times)       # every instant in one pass
    for k, t in enumerate(times):
        ego = agent_state_at(ego_traj, t)
        assert state_bits(CompiledTrajectory(ego_traj).state_at(t)) == state_bits(ego)
        scalar = [agent_state_at(traj, t) for _, _, traj in scenario.agents]
        expect = [bits(x.s_m, x.v_mps, x.a_mps2) for x in scalar]
        for s, v, a in ([x[k] for x in block], [x[0] for x in agent_arrays_at(world, [t])],
                        sim._world.at(t)):
            assert [bits(*x) for x in zip(s.tolist(), v.tolist(), a.tolist())] == expect
        assert [state_bits(c.state_at(t)) for c in compiled] == \
            [state_bits(x) for x in scalar]

        levels, lon, lat = check_safety_many(ego, s, world.l_m, v, a, rss,
                                             scenario.d_buffer_m)
        statuses = [check_safety(ego, x, rss, scenario.d_buffer_m) for x in scalar]
        assert levels == [x.level.value for x in statuses]
        assert [bits(g) for g in lon.tolist()] == \
            [bits(x.longitudinal_gap_m) for x in statuses]
        assert [bits(g) for g in lat.tolist()] == \
            [bits(x.lateral_gap_m) for x in statuses]

        assert track_bits(sim.tracks(t, ego)) == scalar_tracks(scenario, t, ego, config)


def test_capture_at_the_lateral_margin_prices_the_agent():
    """An agent exactly lateral_mu_m off the ego is in lane: object_deadline
    prices it. One ulp further out it is clear and gets the cap."""
    mu = 0.5
    config = EngineConfig(rss=RssParams(lateral_mu_m=mu))
    ego = AgentState(s_m=0.0, l_m=0.0, v_mps=20.0, a_mps2=0.0)
    lateral = [mu, -mu, math.nextafter(mu, math.inf), -math.nextafter(mu, math.inf), 0.0]
    agents = tuple((f"a{i}", AgentKind.VEHICLE,
                    TrajectorySpec(initial=AgentState(s_m=25.0, l_m=l, v_mps=5.0, a_mps2=0.0)))
                   for i, l in enumerate(lateral))
    scenario = Scenario(ego_initial=ego, agents=agents, duration_us=sec(2))
    tracks = sim_of(scenario, config, cls=CaptureProbe).tracks(0, ego)
    assert track_bits(tracks) == scalar_tracks(scenario, 0, ego, config)
    assert [o.deadline_capped for o in tracks] == [False, False, True, True, False]


def run_instants(duration_us, periods_us) -> list[int]:
    return sorted({k for p in periods_us for k in range(0, duration_us + 1, p)})


@settings(max_examples=40, deadline=None)
@given(worlds(), st.sampled_from([30_000, 50_000, 70_000]), st.integers(-3, 3))
def test_world_blocks_over_a_whole_run(case, sensor_period_us, extra_ticks):
    """World.at at every instant of a run whose instant count is not a
    multiple of WORLD_BLOCK equals agent_state_at."""
    scenario, _, _ = case
    duration_us = sec(1) + extra_ticks * 10_000
    scenario = Scenario(ego_initial=scenario.ego_initial, agents=scenario.agents,
                        duration_us=duration_us)
    sim = sim_of(scenario, sensor_period_us=sensor_period_us)
    instants = run_instants(duration_us, (100_000, sensor_period_us))
    assert len(instants) % WORLD_BLOCK != 0
    for t in instants:
        s, v, a = sim._world.at(t)
        assert [bits(*x) for x in zip(s.tolist(), v.tolist(), a.tolist())] == \
            [bits(x.s_m, x.v_mps, x.a_mps2)
             for x in (agent_state_at(traj, t) for _, _, traj in scenario.agents)]


@pytest.mark.parametrize("sensor_period_us", [100_000, 33_000, 250_000])
def test_a_run_evaluates_each_instant_once(monkeypatch, following_scenario, sensor_period_us):
    evaluated = []

    def recording(world, times_us):
        evaluated.extend(times_us)
        return agent_arrays_at(world, times_us)

    monkeypatch.setattr(scenario_module, "agent_arrays_at", recording)
    sim_of(following_scenario, sensor_period_us=sensor_period_us).run()
    assert evaluated == run_instants(following_scenario.duration_us,
                                     (EngineConfig().tick_us, sensor_period_us))


def test_scenario_without_agents():
    scenario = Scenario(ego_initial=AgentState(0.0, 0.0, 10.0, 0.0), agents=(),
                        duration_us=sec(2))
    block = agent_arrays_at(AgentArrays(()), [0, sec(1)])
    assert [x.shape for x in block] == [(2, 0)] * 3
    sim = sim_of(scenario, cls=CaptureProbe)
    assert [x.shape for x in sim._world.at(sec(1))] == [(0,)] * 3
    assert sim.tracks(sec(1), scenario.ego_initial) == ()
    assert sim_of(scenario).run().closest == []


# -- incremental ego ---------------------------------------------------------

controls = st.lists(st.tuples(st.sampled_from(["brake", "hold"]),
                              st.integers(0, sec(5)), finite(-9, 2)), max_size=8)


@settings(max_examples=120, deadline=None)
@given(states, controls, st.lists(st.integers(0, sec(8)), max_size=5))
def test_incremental_ego_equals_fresh_rebuild(ego0, decisions, extra_times):
    sc = Scenario(ego_initial=ego0, agents=(), duration_us=sec(8))
    g = chain_pipeline({"proc": (ms(10), NodeRole.CONTROL)})
    sim = Simulation(sc, g, one_group(g), EngineConfig(), seed=1)
    for decision, decided_us, level in decisions:
        sim.apply_control(decision, level, decided_us)
        rebuilt = TrajectorySpec(initial=ego0, segments=tuple(sim.ego_segments))
        times = set(extra_times) | {0, decided_us}
        for start, _ in sim.ego_segments:
            times.update((start - 1, start, start + 1))
        for t in sorted(times):
            assert state_bits(sim.ego_state(t)) == state_bits(agent_state_at(rebuilt, t))


# -- rounding of recorded gaps -----------------------------------------------

def assert_round6_matches(values):
    x = np.array(values, dtype=float)
    assert [repr(r) for r in _round6(x).tolist()] == [repr(round(v, 6)) for v in x.tolist()]


@given(st.lists(st.floats(), max_size=20))
def test_round6_equals_round_on_any_float(values):
    assert_round6_matches(values)


@given(st.lists(st.integers(-10 ** 12, 10 ** 12), min_size=1, max_size=20))
def test_round6_equals_round_next_to_half_way_points(ks):
    values = []
    for k in ks:
        half = (k + 0.5) / 1e6
        values += [half, np.nextafter(half, math.inf), np.nextafter(half, -math.inf)]
    assert_round6_matches(values)


def test_round6_edge_values():
    assert_round6_matches([0.0, -0.0, 1e-7, -1e-7, 5e-7, -5e-7, 0.0078125, 2.675,
                           2.0 ** 20, -(2.0 ** 20), 1e16, -1e300, math.inf,
                           -math.inf, math.nan, 5e-324])
