"""One pass of one workload, in a fresh process.

    python3 perfbench/one_pass.py --workload W --seed N --workdir DIR
                                  [--traced] [--setup-only] [--expect-trace SHA]

Measures set-up (importing avpipesim and generating and writing the
inputs), runs the workload's simulations back to back, checks every
run, and writes `result.json` into DIR. run.py starts this script once
per pass, so each pass pays its own import and reports its own peak RSS.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

from checks import (PassStats, check_run, facts_from_ndjson, facts_from_trace,
                    file_digest, strict_loads, trace_digest)
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SimTimer:
    """Host time and simulated time of each run_simulation call."""

    def __init__(self, fn):
        self.fn = fn
        self.host_s: list = []
        self.sim_us = 0

    def __call__(self, scenario, *args, **kwargs):
        t0 = time.perf_counter()
        result = self.fn(scenario, *args, **kwargs)
        self.host_s.append(time.perf_counter() - t0)
        self.sim_us += scenario.duration_us
        return result


def run_cli(workload: str, seed: int, workdir: str, tracer, t_start: float,
            expect_trace) -> dict:
    import avpipesim.cli as cli
    import workloads

    config_path, out_dir, scenario, graph, mitigated = workloads.write_cli_inputs(
        workload, seed, workdir)
    setup_s = time.perf_counter() - t_start
    if tracer is not None:
        tracer.install()
    timer = SimTimer(cli.run_simulation)
    cli.run_simulation = timer
    problems = []
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        rc = cli.main(["run", "--config", config_path, "--out", out_dir])
    except Exception:
        rc = None
        problems.append("avpipesim run raised:\n" + traceback.format_exc())
    wall_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
    rss = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
    if rc not in (0, None):
        problems.append(f"avpipesim run exited with code {rc}")

    trace_path = os.path.join(out_dir, "trace.ndjson")
    report_path = os.path.join(out_dir, "report.json")
    stats = PassStats()
    digests = {}
    if rc == 0:
        try:
            digests = {"trace": file_digest(trace_path),
                       "report": file_digest(report_path)}
            with open(report_path, "r", encoding="utf-8") as fh:
                strict_loads(fh.read())
            # a trace byte-identical to a checked one passes the same checks
            if digests["trace"] != expect_trace:
                facts = facts_from_ndjson(trace_path)
                problems += check_run(facts, scenario.hazard_events,
                                      {n: s.role.value for n, s in graph.nodes.items()})
                stats.add(facts, mitigated)
        except (OSError, ValueError, KeyError) as e:
            problems.append(f"output is not strict JSON: {e}")
            digests = {}
    trace_mb = (os.path.getsize(trace_path) / 1e6
                if os.path.exists(trace_path) else 0.0)
    return {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s, "rss_mb": rss,
            "sim_host_s": timer.host_s, "sim_us": timer.sim_us,
            "trace_mb": trace_mb, "ops": 1, "failed": int(bool(problems)),
            "problems": problems, "op_digests": [digests.get("trace", "")],
            "digests": digests, "stats": stats.metrics()}


def run_corner(seed: int, tracer, t_start: float) -> dict:
    import avpipesim.analysis as analysis
    import avpipesim.engine as engine
    import workloads

    suite, graph, groups, configs, sim_seed = workloads.corner_suite(seed)
    setup_s = time.perf_counter() - t_start
    if tracer is not None:
        tracer.install()
    roles = {n: s.role.value for n, s in graph.nodes.items()}
    stats = PassStats()
    wall_s = cpu_s = 0.0
    sim_host_s, sim_us, failed, problems, op_digests = [], 0, 0, [], []
    for name, scenario in suite:
        for tag, cfg in configs:
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                trace = engine.run_simulation(scenario, graph, groups, cfg, sim_seed)
                t1 = time.perf_counter()
                analysis.safety_report(trace)
            except Exception:
                failed += 1
                problems.append(f"{name}/{tag} raised:\n" + traceback.format_exc())
                op_digests.append("")
                continue
            t2, c2 = time.perf_counter(), time.process_time()
            wall_s += t2 - t0
            cpu_s += c2 - c0
            sim_host_s.append(t1 - t0)
            sim_us += scenario.duration_us
            facts = facts_from_trace(trace)
            found = check_run(facts, scenario.hazard_events, roles)
            if found:
                failed += 1
                problems += [f"{name}/{tag}: {p}" for p in found]
            stats.add(facts, tag != "baseline")
            op_digests.append(trace_digest(trace))
            del trace, facts
    rss = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
    return {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s, "rss_mb": rss,
            "sim_host_s": sim_host_s, "sim_us": sim_us, "trace_mb": 0.0,
            "ops": len(suite) * len(configs), "failed": failed,
            "problems": problems, "op_digests": op_digests,
            "digests": {"trace": hashlib.sha256(
                "\n".join(op_digests).encode()).hexdigest()},
            "stats": stats.metrics()}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--expect-trace", help="digest of an already checked trace")
    args = p.parse_args()

    t_start = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import avpipesim  # noqa: F401  (import time is part of set-up)
    import avpipesim.cli  # noqa: F401

    tracer = Tracer() if args.traced else None
    if args.setup_only:
        import workloads
        if args.workload == "corner_suite":
            workloads.corner_suite(args.seed)
        else:
            workloads.write_cli_inputs(args.workload, args.seed, args.workdir)
        result = {"setup_s": time.perf_counter() - t_start}
    elif args.workload == "corner_suite":
        result = run_corner(args.seed, tracer, t_start)
    else:
        result = run_cli(args.workload, args.seed, args.workdir, tracer, t_start,
                         args.expect_trace)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["timed_self_s"] = tracer.timed_self_s()
    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
