"""Correctness checks on every simulation run, plus the exact simulated
statistics the traced pass reports.

A run is reduced to `RunFacts`, either from the NDJSON trace the CLI
wrote (parsed strictly) or from the in-memory `RunTrace` of a library
call. The checks and statistics then read only `RunFacts`.
"""

from __future__ import annotations

import hashlib
import json
import math
from array import array
from dataclasses import dataclass, field


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_loads(text: str):
    """json.loads that refuses NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


@dataclass
class RunFacts:
    spans: list = field(default_factory=list)       # (node, worker, start, end, ready, path, guest, residual)
    e2e_us: list = field(default_factory=list)
    reactions: list = field(default_factory=list)   # (hazard_ts, agent, label, reacted, decision, sensor, module, bubble)
    violations: int = 0
    collisions: int = 0
    safety_samples: int = 0
    busy_frac_max: float = 0.0
    steals_admitted: int = 0
    steals_rejected: int = 0
    ego_segments: int = 0
    records: int = 0


def _busy_frac_max(busy: dict, workers: dict, duration_us: int) -> float:
    return max((busy[g] / (workers[g] * duration_us) for g in busy), default=0.0)


def facts_from_ndjson(path: str) -> RunFacts:
    """Parse a trace file line by line, strictly; raises ValueError."""
    f = RunFacts()
    summary = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            rec = strict_loads(line)
            f.records += 1
            kind = rec["type"]
            if kind == "span":
                f.spans.append((rec["node"], rec["worker"], rec["start_us"],
                                rec["end_us"], rec["ready_us"], rec["path"],
                                rec["guest"], rec["residual"]))
            elif kind == "frame":
                f.e2e_us.append(rec["e2e_us"])
            elif kind == "reaction":
                f.reactions.append((rec["hazard_ts"], rec["agent_id"], rec["label"],
                                    rec["reacted"], rec["decision_ts"],
                                    rec["t_sensor_us"], rec["t_module_us"],
                                    rec["t_bubble_us"]))
            elif kind == "safety":
                f.safety_samples += 1
                f.violations += rec["level"] == "violation"
                f.collisions += rec["level"] == "collision"
            elif kind == "summary":
                summary = rec
    if summary is None:
        raise ValueError(f"{path}: no summary record")
    f.busy_frac_max = _busy_frac_max(summary["busy_us_by_group"],
                                     summary["worker_count_by_group"],
                                     summary["duration_us"])
    f.steals_admitted = summary["steals_admitted"]
    f.steals_rejected = summary["steals_rejected"]
    f.ego_segments = len(summary["ego_segments"])
    return f


def facts_from_trace(trace) -> RunFacts:
    f = RunFacts()
    f.spans = [(s.node, s.worker, s.start_us, s.end_us, s.ready_us, s.path,
                s.guest, s.residual) for s in trace.spans]
    f.e2e_us = [fr.e2e_us for fr in trace.frames]
    f.reactions = [(r.hazard_ts, r.agent_id, r.label, r.reacted, r.decision_ts,
                    r.t_sensor_us, r.t_module_us, r.t_bubble_us)
                   for r in trace.reactions]
    levels = [s.level for s in trace.safety_samples]
    f.safety_samples = len(levels)
    f.violations = levels.count("violation")
    f.collisions = levels.count("collision")
    f.busy_frac_max = _busy_frac_max(trace.busy_us_by_group,
                                     trace.worker_count_by_group,
                                     trace.duration_us)
    f.steals_admitted = trace.steals_admitted
    f.steals_rejected = trace.steals_rejected
    f.ego_segments = len(trace.ego_segments)
    return f


def trace_digest(trace) -> str:
    """sha256 over every record of an in-memory trace, for runs that
    write no file. Values are taken as tuples so the digest depends on
    the data only."""
    h = hashlib.sha256()
    h.update(repr([tuple(vars(s).values()) for s in trace.spans]).encode())
    h.update(repr([tuple(vars(fr).values()) for fr in trace.frames]).encode())
    h.update(repr([tuple(vars(r).values()) for r in trace.reactions]).encode())
    samples = trace.safety_samples      # the bulk: hashed column by column
    h.update(array("q", [s.t_us for s in samples]).tobytes())
    h.update("\0".join([s.agent_id for s in samples]).encode())
    h.update("\0".join([s.level for s in samples]).encode())
    h.update(array("d", [s.lon_gap_m for s in samples]).tobytes())
    h.update(array("d", [s.lat_gap_m for s in samples]).tobytes())
    h.update(repr((trace.ego_segments, sorted(trace.busy_us_by_group.items()),
                   trace.budget_violations, trace.steals_admitted,
                   trace.steals_rejected)).encode())
    return h.hexdigest()


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_run(f: RunFacts, hazards, node_roles: dict) -> list[str]:
    """Failure messages for one run; empty when every check holds.

    hazards: (time_us, agent_id, label) per scripted hazard.
    node_roles: node name -> role value.
    """
    problems = []
    recorded = {(r[0], r[1], r[2]) for r in f.reactions}
    for h in hazards:
        if tuple(h) not in recorded:
            problems.append(f"hazard {tuple(h)} has no reaction record")
    for hz, agent, label, reacted, decision, t_s, t_m, t_b in f.reactions:
        if reacted and decision - hz != t_s + t_m + t_b:
            problems.append(f"reaction {agent}/{label}: T1-T0={decision - hz} "
                            f"!= {t_s}+{t_m}+{t_b}")
    by_worker: dict = {}
    for node, worker, start, end, *_ in f.spans:
        by_worker.setdefault(worker, []).append((start, end, node))
    for worker, spans in by_worker.items():
        spans.sort()
        for (s0, e0, n0), (s1, e1, n1) in zip(spans, spans[1:]):
            if s1 < e0:
                problems.append(f"worker {worker}: {n0} [{s0},{e0}) overlaps "
                                f"{n1} [{s1},{e1})")
                break
    ran = {s[0] for s in f.spans}
    for node, role in sorted(node_roles.items()):
        if role != "sensor" and node not in ran:
            problems.append(f"node {node} never ran")
    return problems


def nearest_rank(values, p: float):
    """The ceil(p*N)-th smallest value, as avpipesim.analysis defines
    percentiles; 0 for no values."""
    s = sorted(values)
    if not s:
        return 0
    return s[max(1, math.ceil(p * len(s))) - 1]


class PassStats:
    """Exact simulated statistics summed over the runs of one pass."""

    def __init__(self):
        self.n = {"spans": 0, "frames": 0, "guest_spans": 0, "residual_spans": 0,
                  "fastpath_spans": 0, "steals_admitted": 0, "steals_rejected": 0,
                  "ego_segments": 0, "trace_records": 0, "safety_samples": 0}
        self.waits: list = []
        self.e2e: list = []
        self.busy_frac_max = 0.0
        self.violations = {False: 0, True: 0}
        self.collisions = {False: 0, True: 0}
        self.reaction_max_us = 0

    def add(self, f: RunFacts, mitigated: bool):
        n = self.n
        n["spans"] += len(f.spans)
        n["frames"] += len(f.e2e_us)
        for _, _, start, _, ready, path, guest, residual in f.spans:
            self.waits.append(start - ready)
            n["guest_spans"] += guest
            n["residual_spans"] += residual
            n["fastpath_spans"] += path == "fastpath"
        n["steals_admitted"] += f.steals_admitted
        n["steals_rejected"] += f.steals_rejected
        n["ego_segments"] += f.ego_segments
        n["trace_records"] += f.records
        n["safety_samples"] += f.safety_samples
        self.e2e.extend(f.e2e_us)
        self.busy_frac_max = max(self.busy_frac_max, f.busy_frac_max)
        self.violations[mitigated] += f.violations
        self.collisions[mitigated] += f.collisions
        for r in f.reactions:
            if r[3]:
                self.reaction_max_us = max(self.reaction_max_us, r[4] - r[0])

    def metrics(self) -> dict:
        waits, e2e = self.waits, self.e2e
        out = {f"engine.{k}": v for k, v in self.n.items()}
        out.update({
            "engine.queue_wait_p50_us": nearest_rank(waits, 0.50),
            "engine.queue_wait_p99_us": nearest_rank(waits, 0.99),
            "engine.busy_frac_max": self.busy_frac_max,
            "analysis.e2e_p50_us": nearest_rank(e2e, 0.50),
            "analysis.e2e_p99_us": nearest_rank(e2e, 0.99),
            "analysis.violations": self.violations[False],
            "analysis.violations_mitigated": self.violations[True],
            "analysis.collisions": self.collisions[False],
            "analysis.collisions_mitigated": self.collisions[True],
            "analysis.reaction_max_us": self.reaction_max_us,
        })
        return out
