"""Paired timing of two checkouts with perfbench's one-pass harness.

    python3 tools/paired_timing.py BASE CHANGE [--workload W ...] [--seed N ...]
                                   [--pairs P] [--out FILE]

BASE and CHANGE are two checkouts of this repository, such as a clone
of the parent commit and the working tree. For each workload and seed,
P pairs of fresh `perfbench/one_pass.py` processes run, one from each
checkout, alternating which side goes first. Each side's pass imports
the `src/` of its own checkout; the two `perfbench/` trees must be
byte-identical, so both sides are measured by the same harness.

Prints, per workload and seed, each side's median `wall_s` with its
quartiles and interquartile range, and in how many pairs the change was
faster (ties count for neither). `--out` writes every run, the two
commits and the machine to a JSON file.

Exit status: 0; 1 if a pass failed or the two sides' trace or
report.json digests differ on any pass; 2 if the perfbench trees differ.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile


def tree_digest(root: str) -> str:
    """sha256 over the relative paths and bytes of the .py, .md and .json
    files under root."""
    h = hashlib.sha256()
    for d, dirs, files in sorted(os.walk(root)):
        dirs[:] = sorted(x for x in dirs if x != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".md", ".json")):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def commit_of(checkout: str) -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", checkout, *args], capture_output=True,
                              text=True).stdout.strip()
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"platform": platform.platform(), "python": platform.python_version(),
            "numpy": numpy, "cpus": os.cpu_count(), "cpu_model": model}


def one_pass(checkout: str, workload: str, seed: int, scratch: str, expect) -> dict:
    """One fresh one_pass.py process of checkout; its result.json."""
    workdir = tempfile.mkdtemp(dir=scratch)
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "one_pass.py"),
           "--workload", workload, "--seed", str(seed), "--workdir", workdir]
    if expect:
        cmd += ["--expect-trace", expect]
    env = {k: v for k, v in os.environ.items() if k != "COLA_SIM_THREADS"}
    try:
        proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
        try:
            with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return {"error": f"exit code {proc.returncode}: {proc.stderr[-2000:]}"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def summary(values: list) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def report(workload: str, seed: int, runs: list) -> dict:
    """Print and return one workload and seed's summary, with its runs."""
    wall = {side: [r["wall_s"] for r in runs if r["side"] == side]
            for side in ("base", "change")}
    by_pair = {}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r["wall_s"]
    pairs = [p for p in by_pair.values() if len(p) == 2]
    faster = sum(p["change"] < p["base"] for p in pairs)
    case = {"workload": workload, "seed": seed, "pairs": len(pairs), "change_faster": faster,
            **{side: summary(v) for side, v in wall.items() if v}, "runs": runs}
    line = f"{workload} seed {seed}:"
    for side in ("base", "change"):
        if side in case:
            s = case[side]
            line += (f"  {side} median {s['median']:.3f} s"
                     f" (q1 {s['q1']:.3f}, q3 {s['q3']:.3f}, IQR {s['iqr']:.3f})")
    if "base" in case and "change" in case:
        line += (f"  change {case['change']['median'] / case['base']['median'] - 1:+.1%},"
                 f" faster in {faster}/{len(pairs)} pairs")
    print(line, flush=True)
    return case


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base")
    p.add_argument("change")
    p.add_argument("--workload", nargs="+", default=["mixed100_cli"])
    p.add_argument("--seed", nargs="+", type=int, default=[0])
    p.add_argument("--pairs", type=int, default=12)
    p.add_argument("--out", help="write every run to this JSON file")
    args = p.parse_args(argv)
    sides = {"base": os.path.abspath(args.base), "change": os.path.abspath(args.change)}
    benches = {side: tree_digest(os.path.join(path, "perfbench"))
               for side, path in sides.items()}
    if benches["base"] != benches["change"]:
        print("the two perfbench/ trees differ", file=sys.stderr)
        return 2

    status, cases = 0, []
    with tempfile.TemporaryDirectory() as scratch:
        for workload in args.workload:
            for seed in args.seed:
                runs, expect = [], {}
                for k in range(args.pairs):
                    order = ("base", "change") if k % 2 == 0 else ("change", "base")
                    pair = {}
                    for side in order:
                        r = one_pass(sides[side], workload, seed, scratch, expect.get(side))
                        if "error" in r or r["failed"]:
                            print(f"{workload} seed {seed} pair {k} {side}: failed\n"
                                  + (r.get("error") or "\n".join(r["problems"])),
                                  file=sys.stderr)
                            status = 1
                            continue
                        expect.setdefault(side, r["digests"].get("trace"))
                        pair[side] = {"side": side, "pair": k, "first": side == order[0],
                                      "wall_s": r["wall_s"], "sim_s": sum(r["sim_host_s"]),
                                      "setup_s": r["setup_s"], "rss_mb": r["rss_mb"],
                                      "digests": r["digests"], "op_digests": r["op_digests"]}
                    runs += pair.values()
                    if len(pair) == 2 and (
                            pair["base"]["digests"] != pair["change"]["digests"]
                            or pair["base"]["op_digests"] != pair["change"]["op_digests"]):
                        print(f"{workload} seed {seed} pair {k}: digests differ",
                              file=sys.stderr)
                        status = 1
                cases.append(report(workload, seed, runs))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"tool": "tools/paired_timing.py", "metric": "wall_s",
                       "workloads": args.workload, "seeds": args.seed, "pairs": args.pairs,
                       "base": commit_of(args.base), "change": commit_of(args.change),
                       "perfbench_sha256": benches["base"], "machine": machine(),
                       "cases": cases}, fh, indent=1)
            fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
