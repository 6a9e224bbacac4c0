"""The engine's compiled world model against the scalar references.

agent_state_at and visible_agents (tests/reference.py), check_safety and
object_deadline define the world model; the engine evaluates compiled trajectories in numpy
instead, a block of instants per pass. Every comparison here is exact
(float.hex), not approximate: the trace must stay byte-identical.
"""

import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from avpipesim import world as world_module
from avpipesim.engine import EngineConfig, Simulation
from avpipesim.pipeline import NodeRole
from avpipesim.safety import RssParams, check_safety, object_deadline
from avpipesim.scenario import (AgentKind, AgentState, CompiledTrajectory, Scenario,
                                TrajectorySpec)
from avpipesim.simkernel import US_PER_S, ms, sec
from avpipesim.world import WORLD_BLOCK, World, _round6, agent_arrays_at

from conftest import chain_pipeline, check_safety_many, one_group
from reference import agent_state_at, visible_agents

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
    for start, (_, v, a) in zip([0] + [t for t, _ in c.segments], c.states):
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


def sim_of(scenario: Scenario, config=EngineConfig(), sensor_period_us=100_000) -> Simulation:
    g = chain_pipeline({"proc": (ms(10), NodeRole.CONTROL)}, sensor_period_us=sensor_period_us)
    return Simulation(scenario, g, one_group(g), config, seed=1)


def world_of(scenario: Scenario, config=EngineConfig(), sensor_period_us=100_000) -> World:
    """The world model sim_of's run uses."""
    return World(scenario, [config.tick_us, sensor_period_us], config.sensor_range_m,
                 config.rss)


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
    world = world_of(scenario, config)
    compiled = [CompiledTrajectory(traj) for _, _, traj in scenario.agents]
    block = agent_arrays_at(world, times)       # every instant in one pass
    for k, t in enumerate(times):
        ego = agent_state_at(ego_traj, t)
        assert state_bits(CompiledTrajectory(ego_traj).state_at(t)) == state_bits(ego)
        scalar = [agent_state_at(traj, t) for _, _, traj in scenario.agents]
        expect = [bits(x.s_m, x.v_mps, x.a_mps2) for x in scalar]
        for s, v, a in ([x[k] for x in block], [x[0] for x in agent_arrays_at(world, [t])],
                        world.at(t)):
            assert [bits(*x) for x in zip(s.tolist(), v.tolist(), a.tolist())] == expect
        assert [state_bits(c.state_at(t)) for c in compiled] == \
            [state_bits(x) for x in scalar]

        levels, lon, lat = check_safety_many(ego, s, np.array(world.l_m), v, a, rss,
                                             scenario.d_buffer_m)
        statuses = [check_safety(ego, x, rss, scenario.d_buffer_m) for x in scalar]
        assert levels == [x.level.value for x in statuses]
        assert [bits(g) for g in lon.tolist()] == \
            [bits(x.longitudinal_gap_m) for x in statuses]
        assert [bits(g) for g in lat.tolist()] == \
            [bits(x.lateral_gap_m) for x in statuses]
        assert [(x.agent_id, x.level, bits(x.lon_gap_m, x.lat_gap_m))
                for x in world.safety_tick(t, ego)] == \
            [(aid, level, bits(round(g, 6), round(l, 6)))
             for aid, level, g, l in zip(world.ids, levels, lon.tolist(), lat.tolist())
             if level != "safe"]

        cap = config.mitigation.deadline_cap_us
        assert track_bits(world.capture(t, ego, cap)) == scalar_tracks(scenario, t, ego, config)


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
    tracks = world_of(scenario, config).capture(0, ego, config.mitigation.deadline_cap_us)
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
    world = world_of(scenario, sensor_period_us=sensor_period_us)
    instants = run_instants(duration_us, (100_000, sensor_period_us))
    assert len(instants) % WORLD_BLOCK != 0
    for t in instants:
        s, v, a = world.at(t)
        assert [bits(*x) for x in zip(s.tolist(), v.tolist(), a.tolist())] == \
            [bits(x.s_m, x.v_mps, x.a_mps2)
             for x in (agent_state_at(traj, t) for _, _, traj in scenario.agents)]


@pytest.mark.parametrize("sensor_period_us", [100_000, 33_000, 250_000])
def test_a_run_evaluates_each_instant_once(monkeypatch, following_scenario, sensor_period_us):
    evaluated = []

    def recording(world, times_us):
        evaluated.extend(times_us)
        return agent_arrays_at(world, times_us)

    monkeypatch.setattr(world_module, "agent_arrays_at", recording)
    sim_of(following_scenario, sensor_period_us=sensor_period_us).run()
    assert evaluated == run_instants(following_scenario.duration_us,
                                     (EngineConfig().tick_us, sensor_period_us))


def test_scenario_without_agents():
    scenario = Scenario(ego_initial=AgentState(0.0, 0.0, 10.0, 0.0), agents=(),
                        duration_us=sec(2))
    world = world_of(scenario)
    block = agent_arrays_at(world, [0, sec(1)])
    assert [x.shape for x in block] == [(2, 0)] * 3
    assert [x.shape for x in world.at(sec(1))] == [(0,)] * 3
    assert world.capture(sec(1), scenario.ego_initial, sec(2)) == ()
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


@settings(max_examples=60, deadline=None)
@given(states, controls, st.lists(st.integers(0, sec(8)), max_size=5))
def test_ego_never_moves_laterally(ego0, decisions, extra_times):
    """The engine tests each agent's lateral clearance once per run, against
    the ego's initial offset; that holds only while braking leaves the
    ego's lateral offset as it was."""
    sc = Scenario(ego_initial=ego0, agents=(), duration_us=sec(8))
    sim = sim_of(sc)
    for decision, decided_us, level in decisions:
        sim.apply_control(decision, level, decided_us)
    for t in {0, *extra_times, *(start for start, _ in sim.ego_segments)}:
        assert bits(sim.ego_state(t).l_m) == bits(ego0.l_m)


# -- closest approaches, folded a block of safety ticks at a time -------------

def near_half_way(k: int) -> list[float]:
    half = (k + 0.5) / 1e6
    return [half, math.nextafter(half, math.inf), math.nextafter(half, -math.inf)]


gap_values = (st.sampled_from([0.0, -0.0, 1.0, 2.5e-6, -1.0, math.inf, -math.inf, math.nan])
              | st.integers(-10 ** 7, 10 ** 7).map(near_half_way).flatmap(st.sampled_from)
              | st.floats())


@st.composite
def gap_rows(draw):
    """Per safety tick, every agent's longitudinal gap; the ticks after
    which the engine folds its pending ticks."""
    n = draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(gap_values, min_size=n, max_size=n), max_size=70))
    return rows, draw(st.sets(st.integers(1, len(rows) or 1)))


def per_tick_closest(rows) -> dict:
    """Per agent, the smallest round(gap, 6) >= 0 and the first tick it
    occurred at, updated tick by tick."""
    best = {}
    for k, row in enumerate(rows):
        for i, gap in enumerate(row):
            g = round(gap, 6)
            if 0 <= g < best.get(i, (math.inf,))[0]:
                best[i] = (g, k)
    return best


@settings(max_examples=300, deadline=None)
@given(gap_rows())
@example(([[1.0], [1.0]], {1}))             # a tie across a block boundary
@example(([[0.0], [-0.0], [0.0]], {1}))     # equal zeros of either sign
@example(([[], []], {1}))                   # no agents
def test_block_closest_equals_the_per_tick_rule(case):
    rows, flushes = case
    n = len(rows[0]) if rows else 0

    def gap_rows_at(world, times_us):       # tick k at t = k us: row k as the agents' s_m
        s = np.array([rows[t] if t < len(rows) else [0.0] * n for t in times_us],
                     dtype=float).reshape(len(times_us), n)
        return s, np.zeros_like(s), np.zeros_like(s)

    agent = TrajectorySpec(initial=AgentState(0.0, 3.5, 0.0, 0.0))     # laterally clear
    ego = AgentState(0.0, 0.0, 0.0, 0.0)
    world = World(Scenario(ego_initial=ego, duration_us=sec(1),
                           agents=tuple((f"a{i}", AgentKind.VEHICLE, agent) for i in range(n))),
                  [1], 60.0, RssParams())
    with patch.object(world_module, "agent_arrays_at", gap_rows_at):
        for k in range(len(rows)):
            assert world.safety_tick(k, ego) == []
            if k + 1 in flushes:
                world.closest()     # folds the ticks so far, as every WORLD_BLOCK ticks do
        got = {int(c.agent_id[1:]): (repr(c.lon_gap_m), c.t_us) for c in world.closest()}
    assert got == {i: (repr(g), k) for i, (g, k) in per_tick_closest(rows).items()}


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
