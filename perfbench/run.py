"""avpipesim benchmark: host-time metrics on three workloads.

    python3 perfbench/run.py [--workload mixed100_cli|corner_suite|dag_stress|all]
                             [--seed N] [--seconds S] [--trace 0|1]

With --trace 0, passes of the workload run one at a time, each in a fresh
process, until --seconds is used up (at least one pass). The end-to-end
metrics are means over the passes (set-up and peak RSS: medians). With
--trace 1, one untraced and one traced pass run, and the per-layer
metrics come from the traced one.
`--workload all` interleaves the three workloads across repeats. The last
line of output is one JSON object; the lines before it are for people.
See perfbench/README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from checks import nearest_rank
from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("mixed100_cli", "corner_suite", "dag_stress")
HARD_LIMIT_S = 170.0      # every run must end within 180 s
MIN_SETUPS = 3            # set-up is measured at least this many times per run
SETUP_SAMPLES = 5         # and up to this many while the time allows
PROBE_S = 1.6             # estimated length of a set-up-only process

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "sim_speed": ("sim_s/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
# printed with the end-to-end metrics but not gated: run_p50_s and
# run_p75_s repeat sim_speed on the single-run workloads, trace_mb is
# absent on corner_suite and fail_frac is 0 on correct code
REPORTED = {"run_p50_s": ("s", "lower"), "run_p75_s": ("s", "lower"),
            "trace_mb": ("MB", "lower"), "fail_frac": ("1", "lower")}

# name -> unit, for the traced pass
PER_LAYER = {
    "scenario.agent_state_at.calls": "count",
    "scenario.visible_agents.calls": "count",
    "scenario.objects_visible": "count",
    "scenario.self_s": "s",
    "safety.check_safety.calls": "count",
    "safety.check_safety.lateral_frac": "1",
    "safety.object_deadline.calls": "count",
    "safety.reaction_budget.calls": "count",
    "safety.self_s": "s",
    "engine.to_ndjson_s": "s",
    "engine.trace_records": "count",
    "engine.safety_samples": "count",
    "cli.write_s": "s",
    "cli.trace_mb": "MB",
    "pipeline.downstream_estimate.calls": "count",
    "pipeline.downstream_estimate.visits": "count",
    "pipeline.consumers_of.calls": "count",
    "pipeline.predict_latency.calls": "count",
    "pipeline.sample_latency.calls": "count",
    "pipeline.fusion_update.calls": "count",
    "pipeline.channel_offers": "count",
    "pipeline.take_hit_frac": "1",
    "pipeline.superseded": "count",
    "pipeline.self_s": "s",
    "mitigation.choose_path.calls": "count",
    "mitigation.fastpath_frac": "1",
    "mitigation.partial_update.calls": "count",
    "mitigation.steal_admission.calls": "count",
    "mitigation.steal_admit_frac": "1",
    "mitigation.proactive_credit.calls": "count",
    "mitigation.self_s": "s",
    "engine.self_s": "s",
    "engine.ego_state.calls": "count",
    "engine.ego_segments": "count",
    "simkernel.events": "count",
    "simkernel.cancelled": "count",
    "simkernel.self_s": "s",
    "cli.load_s": "s",
    "cli.self_s": "s",
    "config.self_s": "s",
    "analysis.self_s": "s",
    "engine.spans": "count",
    "engine.frames": "count",
    "engine.guest_spans": "count",
    "engine.residual_spans": "count",
    "engine.fastpath_spans": "count",
    "engine.steals_admitted": "count",
    "engine.steals_rejected": "count",
    "engine.queue_wait_p50_us": "us",
    "engine.queue_wait_p99_us": "us",
    "engine.busy_frac_max": "1",
    "analysis.e2e_p50_us": "us",
    "analysis.e2e_p99_us": "us",
    "analysis.violations": "count",
    "analysis.violations_mitigated": "count",
    "analysis.collisions": "count",
    "analysis.collisions_mitigated": "count",
    "analysis.reaction_max_us": "us",
    "bench.untraced_wall_s": "s",
    "bench.traced_wall_s": "s",
    "bench.trace_overhead_s": "s",
    "bench.untimed_s": "s",
    "bench.sha_match": "1",
    "bench.calib_s": "s",
}


def calibrate() -> float:
    """Time a fixed pure-Python loop, to show slow-host periods."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


class Runner:
    def __init__(self, seed: int):
        self.seed = seed
        self.start = time.perf_counter()
        self.count = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def one_pass(self, workload: str, traced=False, setup_only=False,
                 expect=None) -> dict:
        """Run one_pass.py in a fresh process; its result, or a failure.

        expect: trace digest of an earlier, fully checked pass at this seed.
        """
        self.count += 1
        workdir = os.path.join(WORK, f"{workload}-{os.getpid()}-{self.count}")
        os.makedirs(workdir, exist_ok=True)
        cmd = [sys.executable, os.path.join(HERE, "one_pass.py"),
               "--workload", workload, "--seed", str(self.seed),
               "--workdir", workdir]
        if traced:
            cmd.append("--traced")
        if setup_only:
            cmd.append("--setup-only")
        if expect:
            cmd += ["--expect-trace", expect]
        env = {k: v for k, v in os.environ.items() if k != "COLA_SIM_THREADS"}
        t0 = time.perf_counter()
        proc = None
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  text=True,
                                  timeout=max(5.0, HARD_LIMIT_S - self.elapsed()))
            with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
                result = json.load(fh)
        except subprocess.TimeoutExpired:
            result = {"error": "pass timed out"}
        except (OSError, ValueError) as e:
            result = {"error": f"pass failed: {e}" if proc is None else
                      f"pass exited with code {proc.returncode}:\n"
                      + proc.stderr[-4000:]}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        result["pass_s"] = time.perf_counter() - t0
        return result


def ops_of(workload: str) -> int:
    return 40 if workload == "corner_suite" else 1


def tally(workload: str, passes: list) -> tuple[int, int, list]:
    """(attempted, failed, problems) over passes at one seed. An op also
    fails when its trace digest differs from the first pass's."""
    attempted = failed = 0
    problems = []
    reference = None
    for r in passes:
        if "error" in r:
            attempted += ops_of(workload)
            failed += ops_of(workload)
            problems.append(r["error"])
            continue
        attempted += r["ops"]
        bad = set(i for i, d in enumerate(r["op_digests"]) if not d)
        problems += r["problems"]
        if reference is None:
            reference = r["op_digests"]
        else:
            for i, (a, b) in enumerate(zip(reference, r["op_digests"])):
                if a and b and a != b:
                    bad.add(i)
                    problems.append(f"op {i}: trace digest differs between repeats")
        failed += max(r["failed"], len(bad))
    return attempted, failed, problems


def end_to_end(passes: list, setups: list) -> dict:
    """Host times are means over the passes, i.e. totals over the run: the
    host switches between fast and slow periods every few seconds, and a
    median would jump between them where a mean moves with their shares."""
    good = [r for r in passes if "error" not in r and r["sim_host_s"]]
    if not good:
        return {}
    med = statistics.median
    return {
        "setup_s": med(setups),
        "wall_s": statistics.fmean(r["wall_s"] for r in good),
        "sim_speed": (sum(r["sim_us"] for r in good) / 1e6
                      / sum(sum(r["sim_host_s"]) for r in good)),
        "run_p50_s": med(nearest_rank(r["sim_host_s"], 0.50) for r in good),
        "run_p75_s": med(nearest_rank(r["sim_host_s"], 0.75) for r in good),
        "peak_rss_mb": med(r["rss_mb"] for r in good),
        "trace_mb": med(r["trace_mb"] for r in good),
    }


def measure(runner: Runner, workloads: list, seconds: float) -> dict:
    """Interleaved untraced passes until the time is used; per workload
    (metrics, attempted, failed, problems)."""
    passes = {w: [] for w in workloads}
    rounds = []
    rnd = 0
    while True:
        rnd += 1
        t_round = runner.elapsed()
        for w in workloads:
            calib = calibrate()
            first = next((r for r in passes[w] if "error" not in r), None)
            r = runner.one_pass(w, expect=first["digests"].get("trace") if first else None)
            r["calib_s"] = calib
            passes[w].append(r)
            print(f"repeat {rnd} {w}: " + (
                f"wall {r['wall_s']:.3f} s  cpu {r['cpu_s']:.3f} s  "
                f"setup {r['setup_s']:.3f} s  calib {calib:.4f} s"
                if "error" not in r else "FAILED"), flush=True)
        rounds.append(runner.elapsed() - t_round)
        probes_due = len(workloads) * max(0, MIN_SETUPS - rnd - 1)
        # a round starts if a typical one ends within the time
        if (runner.elapsed() + statistics.median(rounds) + PROBE_S * probes_due
                > seconds):
            break
    out = {}
    for w in workloads:
        setups = [r["setup_s"] for r in passes[w] if "error" not in r]
        while setups and (len(setups) < MIN_SETUPS or (
                len(setups) < SETUP_SAMPLES
                and runner.elapsed() + PROBE_S <= seconds)):
            probe = runner.one_pass(w, setup_only=True)
            if "error" in probe:
                break
            setups.append(probe["setup_s"])
        attempted, failed, problems = tally(w, passes[w])
        out[w] = (end_to_end(passes[w], setups), attempted, failed, problems)
        good = [r for r in passes[w] if "error" not in r]
        print(f"{w}: {len(good)} passes; setup samples {len(setups)}; "
              f"run_p75_s over {len(good[0]['sim_host_s']) if good else 0} "
              f"runs per pass; calib median "
              f"{statistics.median(r['calib_s'] for r in passes[w]):.4f} s",
              flush=True)
    return out


def traced(runner: Runner, workload: str) -> tuple[dict, int, int, list]:
    """One untraced and one traced pass; per-layer metrics."""
    calib = calibrate()
    plain = runner.one_pass(workload)
    calib = statistics.median([calib, calibrate()])
    tr = runner.one_pass(workload, traced=True)
    attempted, failed, problems = tally(workload, [plain, tr])
    if "error" in plain or "error" in tr:
        return {}, attempted, failed, problems
    sha_match = plain["digests"] == tr["digests"]
    if not sha_match:
        problems.append("traced pass changed the trace digest")
        failed = max(failed, 1)
    for tag, r in (("untraced", plain), ("traced", tr)):
        for name, digest in sorted(r["digests"].items()):
            print(f"{workload} {tag} {name} sha256 {digest}")
    metrics = {k: 0 for k in PER_LAYER}
    metrics.update(tr["layers"])
    metrics.update(tr["stats"])
    metrics.update({
        "cli.trace_mb": tr["trace_mb"],
        "bench.untraced_wall_s": plain["wall_s"],
        "bench.traced_wall_s": tr["wall_s"],
        "bench.trace_overhead_s": tr["wall_s"] - plain["wall_s"],
        "bench.untimed_s": tr["wall_s"] - tr["timed_self_s"],
        "bench.sha_match": int(sha_match),
        "bench.calib_s": calib,
    })
    parts = " + ".join(f"{k} {metrics[k + '.self_s']:.3f}" for k in LAYERS)
    print(f"{workload}: traced wall {tr['wall_s']:.3f} s = {parts} + trace "
          f"{metrics['engine.to_ndjson_s']:.3f} + untimed "
          f"{metrics['bench.untimed_s']:.3f}; tracing overhead "
          f"{metrics['bench.trace_overhead_s']:.3f} s")
    return {k: metrics[k] for k in PER_LAYER}, attempted, failed, problems


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "avpipesim", "__init__.py")):
        print(f"error: no avpipesim sources under {ROOT}/src", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runner = Runner(args.seed)
    os.makedirs(WORK, exist_ok=True)
    try:
        if args.trace:
            results = {w: traced(runner, w) for w in workloads}
            units = PER_LAYER
        else:
            results = measure(runner, workloads,
                              min(args.seconds, HARD_LIMIT_S - 40))
            units = {k: u for k, (u, _) in END_TO_END.items()}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    metrics = {}
    attempted = failed = 0
    for w, (values, att, fail, problems) in results.items():
        attempted += att
        failed += fail
        for msg in problems[:20]:
            print(f"{w}: FAIL {msg}", file=sys.stderr)
        if not args.trace and values:
            values["fail_frac"] = fail / att
            for k, (unit, better) in {**END_TO_END, **REPORTED}.items():
                print(f"{w:13s} {k:12s} {values[k]:14.6f} {unit:8s} ({better} is better)")
        prefix = "" if len(workloads) == 1 else f"{w}."
        for k, unit in units.items():
            if k in values:
                metrics[prefix + k] = {"value": values[k], "unit": unit}
    if not metrics:
        print("error: no pass produced a measurement", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
