"""The engine's compiled world model against the scalar references.

agent_state_at, visible_agents and check_safety define the world model;
the engine evaluates compiled trajectories in numpy instead. Every
comparison here is exact (float.hex), not approximate: the trace must
stay byte-identical.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from avpipesim.engine import EngineConfig, Simulation, _round6
from avpipesim.pipeline import NodeRole
from avpipesim.safety import RssParams, check_safety, check_safety_many
from avpipesim.scenario import (AgentArrays, AgentKind, AgentState,
                                CompiledTrajectory, Scenario, TrajectorySpec,
                                agent_arrays_at, agent_state_at, visible_agents,
                                visible_in)
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


@settings(max_examples=250, deadline=None)
@given(worlds(), finite(1.0, 120.0), st.sampled_from([0.5, 0.25, 2.0]))
def test_compiled_world_equals_scalar_references(case, sensor_range_m, mu):
    scenario, ego_traj, times = case
    rss = RssParams(lateral_mu_m=mu)
    world = AgentArrays(scenario.agents)
    compiled = [CompiledTrajectory(traj) for _, _, traj in scenario.agents]
    for t in times:
        ego = agent_state_at(ego_traj, t)
        assert state_bits(CompiledTrajectory(ego_traj).state_at(t)) == state_bits(ego)
        scalar = [agent_state_at(traj, t) for _, _, traj in scenario.agents]
        s, v, a = agent_arrays_at(world, t)
        assert [bits(*x) for x in zip(s.tolist(), v.tolist(), a.tolist())] == \
            [bits(x.s_m, x.v_mps, x.a_mps2) for x in scalar]
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

        batch = visible_in(world, t, sensor_range_m, ego)
        ref = visible_agents(scenario, t, sensor_range_m, ego_state=ego)
        assert [(aid, kind, state_bits(x)) for aid, kind, x in batch] == \
            [(aid, kind, state_bits(x)) for aid, kind, x in ref]


def test_scenario_without_agents():
    world = AgentArrays(())
    s, v, a = agent_arrays_at(world, sec(1))
    assert s.shape == v.shape == a.shape == (0,)
    assert visible_in(world, sec(1), 60.0, AgentState(0.0, 0.0, 10.0, 0.0)) == []


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
    assert [repr(r) for r in _round6(x)] == [repr(round(v, 6)) for v in x.tolist()]


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
