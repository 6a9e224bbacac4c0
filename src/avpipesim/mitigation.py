"""Tail-latency mitigations.

Object-level deadlines, fastpath selection against the remaining time
budget, partial (critical-first) updates, proactive precomputation
credit, and admission control for best-effort work stealing. These are
pure decision functions; the engine owns the schedule state they act on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .jsonio import check_min
from .pipeline import NodeSpec, ObjectTrack
from .safety import DEFAULT_DEADLINE_CAP_US
from .scenario import AgentState


@dataclass(frozen=True)
class MitigationConfig:
    fastpath: bool = False
    proactive: bool = False
    stealing: bool = False
    criticality_radius_m: float = 20.0
    fast_lookahead_m: float = 20.0
    deadline_cap_us: int = DEFAULT_DEADLINE_CAP_US
    steal_safety_factor: float = 1.25
    # test hook: cancel every proactive task before its trigger
    cancel_proactive_every_frame: bool = False

    def __post_init__(self):
        check_min(self, 0, "criticality_radius_m", strict=True)
        check_min(self, 1, "steal_safety_factor")
        check_min(self, 0, "fast_lookahead_m", "deadline_cap_us")


class PathChoice(str, Enum):
    NORMAL = "normal"
    FASTPATH = "fastpath"


def message_deadline(objects, now_us: int,
                     deadline_cap_us: int = DEFAULT_DEADLINE_CAP_US) -> int:
    """Earliest deadline among the frame's objects; cap when empty."""
    return min((o.deadline_us for o in objects), default=now_us + deadline_cap_us)


def choose_path(node: NodeSpec, normal_cost_us: int, deadline_us: int, now_us: int,
                downstream_us: int) -> PathChoice:
    """Fastpath iff normal_cost_us, the normal path's price of a message, does
    not fit the budget left before deadline_us after the downstream estimate."""
    if not node.supports_fastpath:
        raise ValueError(f"node {node.name} is not fastpath-enabled")
    left = deadline_us - now_us - downstream_us
    return PathChoice.FASTPATH if left <= 0 or normal_cost_us > left else PathChoice.NORMAL


def partial_update(objects: tuple[ObjectTrack, ...], ego: AgentState,
                   radius_m: float) -> tuple[tuple[ObjectTrack, ...],
                                             tuple[ObjectTrack, ...]]:
    """Split objects into (critical, residual) by distance from the ego.

    Critical objects are within radius; the union of the two halves is
    exactly the input set.
    """
    critical = [o for o in objects if abs(o.s_m - ego.s_m) <= radius_m]
    residual = [o for o in objects if abs(o.s_m - ego.s_m) > radius_m]
    return tuple(critical), tuple(residual)


def residual_needs_downstream(residual: tuple[ObjectTrack, ...]) -> bool:
    """Residual output re-triggers downstream only if it still carries an
    object whose deadline is real (not the configured cap)."""
    return any(not o.deadline_capped for o in residual)


def proactive_credit(precompute_cost_us: int, arrival_us: int, trigger_us: int,
                     cancelled: bool) -> int:
    """Latency credit earned by precomputation started at arrival.

    The node's effective cost drops by the portion of the precompute
    that completed before the trigger; cancellation forfeits it all.
    """
    if cancelled or trigger_us <= arrival_us:
        return 0
    return min(precompute_cost_us, trigger_us - arrival_us)


def steal_admission(guest_cost_us: int, host_worker_loads_us: list[int], budget_us: int,
                    safety_factor: float = 1.25) -> bool:
    """Admit a guest task into a host group only if no host work can miss
    the group budget.

    guest_cost_us: the guest task's predicted cost;
    host_worker_loads_us: remaining busy time per host worker.
    The engine asks only a host with a free worker and no queued work, so
    the guest, inflated by safety_factor, goes to the least-loaded worker;
    admit iff every worker then ends within the budget.
    """
    if not host_worker_loads_us:
        return False
    loads = sorted(host_worker_loads_us)
    loads[0] += round(guest_cost_us * safety_factor)
    return max(loads) <= budget_us
