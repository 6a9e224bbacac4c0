"""The world model of one run: every agent's state at the engine's instants,
the captures and safety ticks taken from it, and the closest approaches.
The ego is passed in per call: braking it is the engine's control decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import repeat

import numpy as np

from .pipeline import ObjectTrack
from .safety import RssParams, SafetyLevel, check_safety, object_deadline
from .scenario import AgentState, CompiledTrajectory, Scenario, _state
from .simkernel import US_PER_S

_new_track = partial(tuple.__new__, ObjectTrack)     # an ObjectTrack from one field tuple, in C
# instants per numpy pass; 128 buys ~2% speed for ~5% more peak RSS (README)
WORLD_BLOCK = 32


@dataclass
class SafetySample:
    t_us: int
    agent_id: str
    level: str
    lon_gap_m: float
    lat_gap_m: float


@dataclass
class ClosestApproach:
    """An agent's smallest longitudinal gap >= 0 and when it first occurred."""
    agent_id: str
    t_us: int
    lon_gap_m: float


class World:
    """A scenario's agents at the engine's instants: the multiples of periods_us
    up to the scenario's duration. The breakpoints of all agents sit in flat
    float64 arrays; agent i's start at index first[i]. at(t) returns t's (s, v, a)
    rows. Unless t is in the last block, it first evaluates t and the next
    WORLD_BLOCK - 1 instants in one numpy pass, so a capture and a safety tick
    at the same t share one evaluation."""

    def __init__(self, scenario: Scenario, periods_us, sensor_range_m: float,
                 rss: RssParams):
        agents = scenario.agents
        compiled = [CompiledTrajectory(traj) for _, _, traj in agents]
        self.ids = [aid for aid, _, _ in agents]
        self._id_of = np.array(self.ids, object)      # a capture indexes these by its seen agents
        self._kind_of = np.array([kind for _, kind, _ in agents], object)
        self.l_m = [float(c.l_m) for c in compiled]
        self.visible_from_us = np.array([tr.visible_from_us for _, _, tr in agents], np.int64)
        counts = np.array([len(c.states) for c in compiled], dtype=np.int64)
        self.first = np.cumsum(counts) - counts
        seg_starts = [[t for t, _ in c.segments] for c in compiled]
        self.start_us = np.array([t for starts in seg_starts for t in (0, *starts)], np.int64)
        self.s, self.v, self.a = np.array(
            [st for c in compiled for st in c.states], dtype=float).reshape(-1, 3).T
        self.segmented = [(i, starts) for i, starts in enumerate(seg_starts) if starts]
        self.periods_us, self.horizon_us = set(periods_us), scenario.duration_us
        self.sensor_range_m, self.rss, self.d_buffer_m = sensor_range_m, rss, scenario.d_buffer_m
        self._rows: dict = {}       # instant -> its (s, v, a) rows of the last block
        # neither the ego nor any agent moves laterally (the engine's control
        # adds longitudinal segments only), so lateral clearance is a run constant
        self._clear = np.abs(np.array(self.l_m) - scenario.ego_initial.l_m) - rss.lateral_mu_m > 0
        self._in_lane = np.flatnonzero(~self._clear)
        # per agent, the smallest rounded lon_gap_m >= 0 so far and its first time
        self._closest_gap = np.full(len(agents), math.inf)
        self._closest_t = np.zeros(len(agents), dtype=np.int64)
        # the safety ticks not yet folded into those: (instant, ego s_m, agent s_m row)
        self._pending: list[tuple] = []

    def at(self, t_us: int):
        if t_us not in self._rows:
            after = (range(t_us // p * p + p, self.horizon_us + 1, p)[:WORLD_BLOCK]
                     for p in self.periods_us)        # the next multiples of each period
            times = sorted({t_us}.union(*after))[:WORLD_BLOCK]
            self._rows = dict(zip(times, zip(*agent_arrays_at(self, times))))
        return self._rows[t_us]

    def capture(self, t: int, ego: AgentState, deadline_cap_us: int) -> tuple[ObjectTrack, ...]:
        """The agents the sensor detects at t, in agent order, each with its
        object-level deadline: visible_agents plus object_deadline. A
        laterally clear agent's deadline is the cap."""
        s, v, a = self.at(t)
        seen = ((self.visible_from_us <= t)
                & (np.abs(s - ego.s_m) <= self.sensor_range_m)).nonzero()[0]
        objects = list(map(_new_track, zip(self._id_of[seen].tolist(),
                                           self._kind_of[seen].tolist(), s[seen].tolist(),
                                           repeat(t + deadline_cap_us), repeat(True))))
        pos = (~self._clear[seen]).nonzero()[0]         # the laterally in-lane tracks
        for j, i in zip(pos.tolist(), seen[pos].tolist()):
            dl, capped = object_deadline(
                t, ego, _state(objects[j].s_m, self.l_m[i], float(v[i]), float(a[i])),
                self.d_buffer_m, self.rss, deadline_cap_us=deadline_cap_us)
            objects[j] = objects[j]._replace(deadline_us=dl, deadline_capped=capped)
        return tuple(objects)

    def safety_tick(self, t: int, ego: AgentState) -> list[SafetySample]:
        """The non-safe samples at t, in agent order. A laterally clear agent
        is safe outright; every agent's gap goes to its closest approach."""
        s, v, a = self.at(t)
        self._pending.append((t, ego.s_m, s))
        if len(self._pending) == WORLD_BLOCK:
            self._fold_closest()
        samples, in_lane = [], self._in_lane
        for i, s_m, v_mps, a_mps2 in zip(in_lane.tolist(), s[in_lane].tolist(),
                                         v[in_lane].tolist(), a[in_lane].tolist()):
            status = check_safety(ego, _state(s_m, self.l_m[i], v_mps, a_mps2),
                                  self.rss, self.d_buffer_m)
            if status.level is not SafetyLevel.SAFE:
                samples.append(SafetySample(
                    t, self.ids[i], status.level.value, round(status.longitudinal_gap_m, 6),
                    round(status.lateral_gap_m, 6)))
        return samples

    def closest(self) -> list[ClosestApproach]:
        """Each agent's closest approach over the safety ticks so far, in agent
        order; an agent never at a gap >= 0 has none."""
        self._fold_closest()
        found = np.flatnonzero(self._closest_gap < math.inf)
        return [ClosestApproach(self.ids[i], t, gap)
                for i, t, gap in zip(found.tolist(), self._closest_t[found].tolist(),
                                     self._closest_gap[found].tolist())]

    def _fold_closest(self):
        """Fold the pending safety ticks into each agent's closest approach.
        Per agent, the block's first smallest rounded gap >= 0 replaces the
        one so far only if smaller: tick by tick, the first time wins."""
        if not self._pending:
            return
        times, ego_s, rows = zip(*self._pending)
        lon = np.array(rows) - np.array(ego_s, dtype=float)[:, None]
        gaps = _round6(lon.ravel()).reshape(lon.shape)
        gaps[~(gaps >= 0)] = math.inf       # NaN too
        first = gaps.argmin(axis=0)
        best = gaps[first, np.arange(gaps.shape[1])]
        closer = best < self._closest_gap
        self._closest_gap[closer] = best[closer]
        self._closest_t[closer] = np.array(times, dtype=np.int64)[first[closer]]
        self._pending.clear()


def agent_arrays_at(world: World, times_us) -> tuple[np.ndarray, ...]:
    """(s, v, a) of every agent at each of times_us, as (T, N) arrays.

    Element [k, i] equals agent_state_at(agent i, times_us[k]) field for
    field: the same breakpoint, then _advance's branches and expression
    order elementwise. One instant is the case T = 1.
    """
    t = np.array(times_us, dtype=np.int64)[:, None]
    idx = world.first + np.zeros_like(t)
    for i, seg_starts in world.segmented:
        idx[:, i] += np.searchsorted(seg_starts, t[:, 0])     # bisect_left
    s, v, a = world.s[idx], world.v[idx], world.a[idx]
    dt = (t - world.start_us[idx]) / US_PER_S
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


def _round6(x: np.ndarray) -> np.ndarray:
    """round(v, 6) of every element of x, mostly computed in numpy.

    round() is correctly rounded: the integer nearest x * 10**6, ties to
    even, divided by 10**6. rint(x * 1e6) / 1e6 gives the same float
    whenever the product's rounding error (below 2**-14 for |x| < 2**20)
    cannot carry it across a half-way point, and IEEE division of two
    exact doubles is correctly rounded. The few values near a half-way
    point, and huge or non-finite ones, go through round() itself.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = x * 1e6
        exact = (np.abs(x) < 2.0 ** 20) & (np.abs(scaled - np.floor(scaled) - 0.5) > 2.0 ** -12)
        out = np.rint(scaled) / 1e6
    if not exact.all():
        raw = x.tolist()
        for i in np.flatnonzero(~exact).tolist():
            out[i] = round(raw[i], 6)
    return out
