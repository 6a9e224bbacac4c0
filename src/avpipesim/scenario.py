"""Kinematic world model.

Ego and traffic agents move with piecewise constant-acceleration
longitudinal trajectories in a lane frame (longitudinal s, lateral l).
Velocity clamps at zero: a braking agent stops and stays stopped.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .jsonio import InputError, Key, check_min, from_json, load_json, save_json, shown, to_json
from .simkernel import US_PER_S, RandomStream

SCENARIO_FORMAT = 1


class ScenarioError(InputError):
    """Scenario file failed validation; message names the offending field."""


class AgentKind(str, Enum):
    VEHICLE = "vehicle"
    PEDESTRIAN = "pedestrian"
    CYCLIST = "cyclist"


MAX_MAGNITUDE = 1e12    # of a state's fields and segment accelerations (README)
MAX_TIME_US = 2**63 - 1     # of a duration and of agents' times: engine instants are int64


def _check_magnitude(name: str, value: float):
    if not abs(value) <= MAX_MAGNITUDE:     # NaN fails too
        raise ScenarioError(f"{name}: expected magnitude <= {MAX_MAGNITUDE:g}, got {value}")


@dataclass(frozen=True)
class AgentState:
    s_m: float          # longitudinal position
    l_m: float          # lateral offset within lane frame
    v_mps: float        # longitudinal velocity, >= 0
    a_mps2: float
    lane_index: int = 0

    def __post_init__(self):
        check_min(self, 0, "v_mps", error=ScenarioError)
        if not abs(self.s_m) + abs(self.l_m) + abs(self.v_mps) + abs(self.a_mps2) <= MAX_MAGNITUDE:
            for name in ("s_m", "l_m", "v_mps", "a_mps2"):      # or only their sum is over
                _check_magnitude(name, getattr(self, name))


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
        for k, (t, a) in enumerate(self.segments):
            if not 0 <= t <= MAX_TIME_US:
                raise ScenarioError(f"segments[{k}].start_us: expected in [0, 2**63 - 1], "
                                    f"got {shown(t)}")
            if k and t <= self.segments[k - 1][0]:
                raise ScenarioError(f"segments[{k}].start_us: expected > segments[{k - 1}]"
                                    f".start_us ({self.segments[k - 1][0]}), got {t}")
            _check_magnitude(f"segments[{k}].a_mps2", a)
        if not abs(self.visible_from_us) <= MAX_TIME_US:
            raise ScenarioError(f"visible_from_us: expected magnitude <= 2**63 - 1, "
                                f"got {shown(self.visible_from_us)}")


@dataclass(frozen=True)
class Scenario:
    ego_initial: AgentState
    agents: tuple[tuple[str, AgentKind, TrajectorySpec], ...]
    duration_us: int
    hazard_events: tuple[tuple[int, str, str], ...] = ()   # (time, agent_id, label)
    d_buffer_m: float = 3.0

    def __post_init__(self):
        if not 0 < self.duration_us <= MAX_TIME_US:
            raise ScenarioError(f"duration_us: expected > 0 and <= 2**63 - 1, "
                                f"got {shown(self.duration_us)}")
        check_min(self, 0, "d_buffer_m", error=ScenarioError, strict=True)
        seen = set()
        for aid, _, _ in self.agents:
            if aid in seen:
                raise ScenarioError(f"duplicate agent id: {aid!r}")
            seen.add(aid)
        for k, (t, aid, _) in enumerate(self.hazard_events):
            if not 0 <= t < self.duration_us:
                raise ScenarioError(f"hazards[{k}].time_us: expected in [0, duration_us "
                                    f"({self.duration_us})), got {t}")
            if aid not in seen:
                raise ScenarioError(f"hazard references unknown agent id: {aid!r}")
        # bound every state a run may derive, which then goes unchecked: speeds
        # are >= 0, so |s| peaks at 0 or at duration_us; a brake never raises the
        # ego's acceleration, so held as given it goes furthest
        for who, traj in [("ego", TrajectorySpec(self.ego_initial)),
                          *((f"agent {aid!r}", traj) for aid, _, traj in self.agents)]:
            s, _, _, v_peak = _integrate(traj, self.duration_us)
            for name, value in (("s_m", s), ("v_mps", v_peak)):
                _check_magnitude(f"{who}: {name} within duration_us {self.duration_us}", value)

    @cached_property
    def digest(self) -> str:
        """The first 16 hex digits of the sha256 of the scenario's JSON,
        keys sorted; a run's trace names its scenario by it."""
        src = json.dumps(scenario_to_json(self), sort_keys=True)
        return hashlib.sha256(src.encode()).hexdigest()[:16]


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


def _state(s_m: float, l_m: float, v_mps: float, a_mps2: float, lane_index: int = 0):
    """An AgentState built without __post_init__: a state that Scenario bounded at load."""
    st = object.__new__(AgentState)
    st.__dict__.update(s_m=s_m, l_m=l_m, v_mps=v_mps, a_mps2=a_mps2, lane_index=lane_index)
    return st


def _integrate(traj: TrajectorySpec, t_us: int) -> tuple[float, float, float, float]:
    """(s, v, a) at time t by closed-form piecewise integration, and the peak speed
    over [0, t]: a is constant between segment starts, so v peaks at one or at t."""
    s, v, a = traj.initial.s_m, traj.initial.v_mps, traj.initial.a_mps2
    now, v_peak = 0, v
    for seg_start, seg_a in traj.segments:
        if seg_start >= t_us:
            break
        s, v = _advance(s, v, a, (seg_start - now) / US_PER_S)
        now, a, v_peak = seg_start, seg_a, max(v_peak, v)
    s, v = _advance(s, v, a, (t_us - now) / US_PER_S)
    return s, v, a, max(v_peak, v)


# ---------------------------------------------------------------------------
# compiled trajectories: the engine's path (with world.World); it equals the
# scalar references agent_state_at and visible_agents of tests/reference.py exactly

class CompiledTrajectory:
    """A trajectory integrated once: (s, v, a) at every segment start.

    state_at(t) is one bisect plus one _advance and equals
    agent_state_at bit for bit, because the breakpoints come from the
    same _advance calls in the same order. append() adds a segment after
    the last one, as a control decision does for the ego. Its states go
    unchecked: Scenario bounds them at load.
    """

    def __init__(self, traj: TrajectorySpec):
        init = traj.initial
        self.l_m, self.lane_index = init.l_m, init.lane_index
        self.segments: list[tuple[int, float]] = []      # (start_us, a_mps2), as in traj
        self.states = [(init.s_m, init.v_mps, init.a_mps2)]     # from 0, then per segment
        for t, a in traj.segments:
            self.append(t, a)

    def append(self, start_us: int, a_mps2: float):
        last = self.segments[-1][0] if self.segments else 0
        s, v, a = self.states[-1]
        s, v = _advance(s, v, a, (start_us - last) / US_PER_S)
        self.segments.append((start_us, a_mps2))
        self.states.append((s, v, a_mps2))

    def state_at(self, t_us: int) -> AgentState:
        k = bisect_left(self.segments, (t_us,))     # the segments starting before t
        s, v, a = self.states[k]
        s, v = _advance(s, v, a, (t_us - (self.segments[k - 1][0] if k else 0)) / US_PER_S)
        return _state(s, self.l_m, v, a if not (v == 0.0 and a < 0) else 0.0, self.lane_index)


# ---------------------------------------------------------------------------
# traffic generation

DENSITY_RADIUS_M = 25.0
DEFAULT_KIND_MIX = ((AgentKind.VEHICLE, 0.7), (AgentKind.PEDESTRIAN, 0.2),
                    (AgentKind.CYCLIST, 0.1))


@dataclass(frozen=True)
class RoadSpec:
    length_m: float = 400.0
    speed_mps: float = 10.0


def generate_traffic(density: float, seed: int, road: RoadSpec,
                     kind_mix=DEFAULT_KIND_MIX) -> list[tuple[AgentKind, TrajectorySpec]]:
    """Synthetic background traffic, deterministic per seed.

    density is the expected agent count within DENSITY_RADIUS_M of the
    ego longitudinally (a 2*radius window). Agents are placed uniformly
    along the road, centered on the ego start, in non-ego lanes so they
    load the pipeline without forcing interactions.
    """
    if not 0 <= density < np.inf:
        raise ValueError(f"density must be finite and >= 0, got {density}")
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
