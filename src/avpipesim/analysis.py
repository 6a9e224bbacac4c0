"""Statistics and reports over run traces.

Percentiles use the nearest-rank convention (ceil(p*N)-th order
statistic) so integer samples give integer, cross-platform-stable
results.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass
from typing import Optional

from .engine import RunTrace
from .safety import SafetyLevel


class AnalysisError(ValueError):
    pass


@dataclass(frozen=True)
class LatencyStats:
    count: int
    mean_us: int
    p50_us: int
    p95_us: int
    p99_us: int
    max_us: int


@dataclass(frozen=True)
class SafetyReport:
    violations: int
    collisions: int
    no_reaction: int
    min_gap_m: Optional[float]      # None when no sample has a gap >= 0


def nearest_rank(samples_sorted: list[int], p: float) -> int:
    n = len(samples_sorted)
    rank = max(1, math.ceil(p * n))
    return samples_sorted[rank - 1]


def compute_stats(samples: list[int]) -> LatencyStats:
    if not samples:
        raise AnalysisError("compute_stats requires at least one sample")
    s = sorted(samples)
    return LatencyStats(
        count=len(s),
        mean_us=round(sum(s) / len(s)),
        p50_us=nearest_rank(s, 0.50),
        p95_us=nearest_rank(s, 0.95),
        p99_us=nearest_rank(s, 0.99),
        max_us=s[-1],
    )


def safety_report(trace: RunTrace) -> SafetyReport:
    """Violations and collisions from the recorded (non-safe) samples; the
    smallest gap >= 0 from the per-agent closest approaches, the earliest
    on a tie (so a -0.0 met before a 0.0 is kept, as one pass over every
    sample in time order would)."""
    levels = [s.level for s in trace.safety_samples]
    closest = min(trace.closest, key=lambda c: (c.lon_gap_m, c.t_us), default=None)
    no_reaction = sum(1 for r in trace.reactions if not r.reacted)
    return SafetyReport(violations=levels.count(SafetyLevel.VIOLATION.value),
                        collisions=levels.count(SafetyLevel.COLLISION.value),
                        no_reaction=no_reaction,
                        min_gap_m=None if closest is None else round(closest.lon_gap_m, 6))


def compare_runs(baseline: RunTrace, treatment: RunTrace) -> dict:
    """Per-frame deltas between two runs of the same scenario and seed."""
    if baseline.scenario_digest != treatment.scenario_digest:
        raise AnalysisError("compare_runs requires the same scenario")
    b_frames = {f.seq: f for f in baseline.frames}
    t_frames = {f.seq: f for f in treatment.frames}
    common = sorted(set(b_frames) & set(t_frames))
    deltas = [t_frames[s].e2e_us - b_frames[s].e2e_us for s in common]
    b_stats = compute_stats([b_frames[s].e2e_us for s in common]) if common else None
    t_stats = compute_stats([t_frames[s].e2e_us for s in common]) if common else None
    b_safety = safety_report(baseline)
    t_safety = safety_report(treatment)
    per_node: dict[str, dict[str, int]] = {}
    for name, trace in (("baseline", baseline), ("treatment", treatment)):
        for key, _, start, end, _ in trace.spans.rows():   # key[0] is the node
            d = per_node.setdefault(key[0], {"baseline": 0, "treatment": 0})
            d[name] += end - start
    return {
        "frames_compared": len(common),
        "mean_delta_us": round(sum(deltas) / len(deltas)) if deltas else 0,
        "worst_delta_us": ((t_stats.max_us - b_stats.max_us)
                           if common else 0),
        "violation_delta": t_safety.violations - b_safety.violations,
        "collision_delta": t_safety.collisions - b_safety.collisions,
        "baseline": asdict(b_stats) if b_stats else None,
        "treatment": asdict(t_stats) if t_stats else None,
        "per_node_busy_us": {k: per_node[k] for k in sorted(per_node)},
    }


def export_cdf(samples: list[int], path) -> None:
    """Write (latency_us, cumulative_fraction) CSV; duplicates collapse to
    the highest fraction; final fraction is exactly 1.0."""
    if not samples:
        raise AnalysisError("export_cdf requires at least one sample")
    s = sorted(samples)
    n = len(s)
    rows = []
    for i, v in enumerate(s, start=1):
        if i < n and s[i] == v:
            continue
        rows.append((v, f"{i / n:.6f}"))
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["latency_us", "cumulative_fraction"])
        w.writerows(rows)
