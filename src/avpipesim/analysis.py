"""Statistics and reports over run traces.

Percentiles use the nearest-rank convention (ceil(p*N)-th order
statistic) so integer samples give integer, cross-platform-stable
results.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
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

    def to_json(self) -> dict:
        return {"count": self.count, "mean_us": self.mean_us, "p50_us": self.p50_us,
                "p95_us": self.p95_us, "p99_us": self.p99_us, "max_us": self.max_us}


@dataclass(frozen=True)
class SafetyReport:
    violations: int
    collisions: int
    no_reaction: int
    min_gap_m: Optional[float]      # None when no sample has a gap >= 0

    def to_json(self) -> dict:
        return {"violations": self.violations, "collisions": self.collisions,
                "no_reaction": self.no_reaction, "min_gap_m": self.min_gap_m}


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


def density_correlation(points: list[tuple[float, float]]) -> float:
    """Spearman rank correlation (average ranks on ties) between traffic
    density and a latency statistic."""
    if len(points) < 3:
        raise AnalysisError("density correlation needs at least 3 points")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    from scipy import stats as sstats   # ~1 s to import, needed only here
    rho, _ = sstats.spearmanr(xs, ys)
    return float(rho)


def safety_report(trace: RunTrace) -> SafetyReport:
    """Counts by level and the smallest gap >= 0, in one pass."""
    violation, collision = SafetyLevel.VIOLATION.value, SafetyLevel.COLLISION.value
    violations = collisions = 0
    min_gap = math.inf
    for s in trace.safety_samples:
        level, gap = s.level, s.lon_gap_m
        if level == violation:
            violations += 1
        elif level == collision:
            collisions += 1
        if 0 <= gap < min_gap:
            min_gap = gap
    no_reaction = sum(1 for r in trace.reactions if not r.reacted)
    return SafetyReport(violations=violations, collisions=collisions,
                        no_reaction=no_reaction,
                        min_gap_m=None if min_gap == math.inf else round(min_gap, 6))


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
        for sp in trace.spans:
            d = per_node.setdefault(sp.node, {"baseline": 0, "treatment": 0})
            d[name] += sp.end_us - sp.start_us
    return {
        "frames_compared": len(common),
        "mean_delta_us": round(sum(deltas) / len(deltas)) if deltas else 0,
        "worst_delta_us": ((t_stats.max_us - b_stats.max_us)
                           if common else 0),
        "violation_delta": t_safety.violations - b_safety.violations,
        "collision_delta": t_safety.collisions - b_safety.collisions,
        "baseline": b_stats.to_json() if b_stats else None,
        "treatment": t_stats.to_json() if t_stats else None,
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
