"""Kinematic world model.

Ego and traffic agents move with piecewise constant-acceleration
longitudinal trajectories in a lane frame (longitudinal s, lateral l).
Velocity clamps at zero: a braking agent stops and stays stopped.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .jsonio import InputError, Key, from_json, load_json, save_json, to_json
from .simkernel import US_PER_S, RandomStream

SCENARIO_FORMAT = 1


class ScenarioError(InputError):
    """Scenario file failed validation; message names the offending field."""


class AgentKind(str, Enum):
    VEHICLE = "vehicle"
    PEDESTRIAN = "pedestrian"
    CYCLIST = "cyclist"


@dataclass(frozen=True)
class AgentState:
    s_m: float          # longitudinal position
    l_m: float          # lateral offset within lane frame
    v_mps: float        # longitudinal velocity, >= 0
    a_mps2: float
    lane_index: int = 0

    def __post_init__(self):
        if self.v_mps < -1e-12:
            raise ScenarioError(f"velocity must be >= 0, got {self.v_mps}")


@dataclass(frozen=True)
class TrajectorySpec:
    """Piecewise constant-acceleration trajectory.

    segments: ordered (start_time_us, acceleration) pairs; the first
    segment takes effect at its start time, with the initial state's
    acceleration before that. visible_from_us models occlusion: the
    agent cannot be detected before this time.
    """

    initial: AgentState
    segments: tuple[tuple[int, float], ...] = ()
    visible_from_us: int = 0

    def __post_init__(self):
        times = [t for t, _ in self.segments]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ScenarioError(f"segment start times must be strictly increasing: {times}")
        if times and times[0] < 0:
            raise ScenarioError(f"segment start time must be >= 0: {times[0]}")


@dataclass(frozen=True)
class Scenario:
    ego_initial: AgentState
    agents: tuple[tuple[str, AgentKind, TrajectorySpec], ...]
    duration_us: int
    hazard_events: tuple[tuple[int, str, str], ...] = ()   # (time, agent_id, label)
    d_buffer_m: float = 3.0

    def __post_init__(self):
        if self.duration_us <= 0:
            raise ScenarioError(f"duration must be > 0, got {self.duration_us}")
        ids = [a[0] for a in self.agents]
        seen = set()
        for i in ids:
            if i in seen:
                raise ScenarioError(f"duplicate agent id: {i!r}")
            seen.add(i)
        for t, aid, _ in self.hazard_events:
            if t >= self.duration_us:
                raise ScenarioError(f"hazard time {t} not before duration {self.duration_us}")
            if aid not in seen:
                raise ScenarioError(f"hazard references unknown agent id: {aid!r}")


def _advance(s: float, v: float, a: float, dt_s: float) -> tuple[float, float]:
    """Advance (s, v) by dt under constant a, clamping v at zero."""
    if dt_s <= 0:
        return s, v
    if a < 0 and v > 0:
        t_stop = v / -a
        if dt_s >= t_stop:
            return s + v * t_stop + 0.5 * a * t_stop * t_stop, 0.0
    elif a < 0 and v == 0:
        return s, 0.0  # no reverse gear
    return s + v * dt_s + 0.5 * a * dt_s * dt_s, v + a * dt_s


def agent_state_at(traj: TrajectorySpec, t_us: int) -> AgentState:
    """State at time t by closed-form piecewise integration."""
    if t_us < 0:
        raise ValueError(f"t must be >= 0, got {t_us}")
    s, v = traj.initial.s_m, traj.initial.v_mps
    a = traj.initial.a_mps2
    now = 0
    for seg_start, seg_a in traj.segments:
        if seg_start >= t_us:
            break
        s, v = _advance(s, v, a, (seg_start - now) / US_PER_S)
        a = seg_a
        now = seg_start
    s, v = _advance(s, v, a, (t_us - now) / US_PER_S)
    eff_a = a if not (v == 0.0 and a < 0) else 0.0
    return AgentState(s_m=s, l_m=traj.initial.l_m, v_mps=v, a_mps2=eff_a,
                      lane_index=traj.initial.lane_index)


def visible_agents(scenario: Scenario, t_us: int, sensor_range_m: float,
                   ego_state: Optional[AgentState] = None):
    """Agents detectable at time t: visible_from reached and within range.

    Range is longitudinal distance from the ego in the lane frame. Without
    ego_state, the ego follows its initial state with no control applied.
    """
    if t_us > scenario.duration_us:
        raise ValueError(f"t {t_us} beyond scenario duration {scenario.duration_us}")
    ego = (ego_state if ego_state is not None
           else agent_state_at(TrajectorySpec(initial=scenario.ego_initial), t_us))
    out = []
    for aid, kind, traj in scenario.agents:
        if traj.visible_from_us > t_us:
            continue
        st = agent_state_at(traj, t_us)
        if abs(st.s_m - ego.s_m) <= sensor_range_m:
            out.append((aid, kind, st))
    return out


# ---------------------------------------------------------------------------
# compiled trajectories: the engine's path; agent_state_at and
# visible_agents above are the scalar references it must equal exactly

class CompiledTrajectory:
    """A trajectory integrated once: (s, v, a) at every segment start.

    state_at(t) is one bisect plus one _advance and equals
    agent_state_at bit for bit, because the breakpoints come from the
    same _advance calls in the same order. append() adds a segment, as a
    control decision does for the ego.
    """

    def __init__(self, traj: TrajectorySpec):
        init = traj.initial
        self.l_m, self.lane_index = init.l_m, init.lane_index
        self.seg_starts: list[int] = []
        self.starts = [0]
        self.states = [(init.s_m, init.v_mps, init.a_mps2)]
        for t, a in traj.segments:
            self.append(t, a)

    def append(self, start_us: int, a_mps2: float):
        if self.seg_starts and start_us <= self.seg_starts[-1]:
            raise ScenarioError(f"segment start {start_us} not after {self.seg_starts[-1]}")
        s, v, a = self.states[-1]
        s, v = _advance(s, v, a, (start_us - self.starts[-1]) / US_PER_S)
        self.seg_starts.append(start_us)
        self.starts.append(start_us)
        self.states.append((s, v, a_mps2))

    def state_at(self, t_us: int) -> AgentState:
        if t_us < 0:
            raise ValueError(f"t must be >= 0, got {t_us}")
        k = bisect_left(self.seg_starts, t_us)
        s, v, a = self.states[k]
        s, v = _advance(s, v, a, (t_us - self.starts[k]) / US_PER_S)
        eff_a = a if not (v == 0.0 and a < 0) else 0.0
        return AgentState(s_m=s, l_m=self.l_m, v_mps=v, a_mps2=eff_a,
                          lane_index=self.lane_index)


class AgentArrays:
    """Every agent of a scenario compiled for evaluation in one numpy pass.

    The breakpoints of all agents sit in flat arrays; agent i's start at
    index first[i]. Values are float64, so a field given as a Python int
    comes back as a float.
    """

    def __init__(self, agents):
        compiled = [CompiledTrajectory(traj) for _, _, traj in agents]
        self.ids = [aid for aid, _, _ in agents]
        self.kinds = [kind for _, kind, _ in agents]
        self.l_list = [c.l_m for c in compiled]
        self.lane_index = [c.lane_index for c in compiled]
        self.l_m = np.array(self.l_list, dtype=float)
        self.visible_from_us = np.array([traj.visible_from_us for _, _, traj in agents],
                                        dtype=np.int64)
        counts = np.array([len(c.starts) for c in compiled], dtype=np.int64)
        self.first = np.cumsum(counts) - counts
        self.start_us = np.array([t for c in compiled for t in c.starts], dtype=np.int64)
        self.s, self.v, self.a = np.array(
            [st for c in compiled for st in c.states], dtype=float).reshape(-1, 3).T
        self.segmented = [(i, c.seg_starts) for i, c in enumerate(compiled) if c.seg_starts]


def agent_arrays_at(world: AgentArrays, t_us: int):
    """(s, v, a) of every agent at t, in scenario order.

    Element i equals agent_state_at(agent i, t) field for field: the
    same breakpoint, then _advance's branches and expression order
    elementwise.
    """
    idx = world.first
    if world.segmented:
        idx = idx.copy()
        for i, seg_starts in world.segmented:
            idx[i] += bisect_left(seg_starts, t_us)
    s, v, a = world.s[idx], world.v[idx], world.a[idx]
    dt = (t_us - world.start_us[idx]) / US_PER_S
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t_stop = v / -a
        s_stop = s + v * t_stop + 0.5 * a * t_stop * t_stop
    braking = a < 0
    stops = braking & (v > 0) & (dt >= t_stop)
    halted = braking & (v == 0)
    moving = dt > 0
    s_out = np.where(moving & stops, s_stop,
                     np.where(moving & ~halted, s + v * dt + 0.5 * a * dt * dt, s))
    v_out = np.where(moving & (stops | halted), 0.0,
                     np.where(moving, v + a * dt, v))
    a_out = np.where((v_out == 0.0) & braking, 0.0, a)
    return s_out, v_out, a_out


def visible_in(world: AgentArrays, t_us: int, sensor_range_m: float,
               ego: AgentState) -> list[tuple[str, AgentKind, AgentState]]:
    """visible_agents for a compiled scenario: same agents, same order."""
    s, v, a = agent_arrays_at(world, t_us)
    seen = np.flatnonzero((world.visible_from_us <= t_us)
                          & (np.abs(s - ego.s_m) <= sensor_range_m)).tolist()
    s, v, a = s[seen].tolist(), v[seen].tolist(), a[seen].tolist()
    return [(world.ids[i], world.kinds[i],
             AgentState(s_m=s[j], l_m=world.l_list[i], v_mps=v[j], a_mps2=a[j],
                        lane_index=world.lane_index[i]))
            for j, i in enumerate(seen)]


# ---------------------------------------------------------------------------
# traffic generation

DENSITY_RADIUS_M = 25.0
DEFAULT_KIND_MIX = ((AgentKind.VEHICLE, 0.7), (AgentKind.PEDESTRIAN, 0.2),
                    (AgentKind.CYCLIST, 0.1))


@dataclass(frozen=True)
class RoadSpec:
    length_m: float = 400.0
    lanes: int = 3
    speed_mps: float = 10.0


def generate_traffic(density: float, seed: int, road: RoadSpec,
                     kind_mix=DEFAULT_KIND_MIX) -> list[tuple[AgentKind, TrajectorySpec]]:
    """Synthetic background traffic, deterministic per seed.

    density is the expected agent count within DENSITY_RADIUS_M of the
    ego longitudinally (a 2*radius window). Agents are placed uniformly
    along the road, centered on the ego start, in non-ego lanes so they
    load the pipeline without forcing interactions.
    """
    if density < 0:
        raise ValueError(f"density must be >= 0, got {density}")
    if density == 0:
        return []
    stream = RandomStream(seed, "traffic-gen")
    window = 2.0 * DENSITY_RADIUS_M
    lam = density * road.length_m / window
    n = stream.poisson(lam)
    kinds = [k for k, _ in kind_mix]
    weights = [w for _, w in kind_mix]
    out = []
    for _ in range(n):
        s = stream.uniform(-road.length_m / 2.0, road.length_m / 2.0)
        lane = 1 if stream.uniform(0.0, 1.0) < 0.5 else -1
        kind = kinds[int(stream.choice(len(kinds), p=weights))]
        speed = road.speed_mps if kind == AgentKind.VEHICLE else road.speed_mps * 0.15
        st = AgentState(s_m=s, l_m=3.5 * lane, v_mps=speed, a_mps2=0.0, lane_index=lane)
        out.append((kind, TrajectorySpec(initial=st)))
    return out


# ---------------------------------------------------------------------------
# serialization (JSON, units in key names, versioned, unknown keys rejected)

# JSON keys, types and defaults come from the dataclasses; this table
# lists the exceptions (see jsonio.Key). An agent is one object holding
# its id, its kind and its trajectory's fields.
_SCHEMA = {
    Scenario: {"ego_initial": Key("ego"),
               "agents": Key(default=[], cols=(Key("id"), Key("kind"), Key(flat=True))),
               "hazard_events": Key("hazards", cols=(Key("time_us"), Key("agent_id"),
                                                     Key("label", default="")))},
    TrajectorySpec: {"segments": Key(cols=(Key("start_us"), Key("a_mps2")))},
}


def scenario_to_json(sc: Scenario) -> dict:
    return to_json(sc, SCENARIO_FORMAT, _SCHEMA)


def scenario_from_json(obj: dict) -> Scenario:
    return from_json(Scenario, obj, "scenario", SCENARIO_FORMAT, ScenarioError, _SCHEMA)


def load_scenario(path) -> Scenario:
    return load_json(path, scenario_from_json, ScenarioError)


def save_scenario(sc: Scenario, path):
    save_json(scenario_to_json(sc), path)
