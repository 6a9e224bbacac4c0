"""Bytecode instructions and Python-level calls of one run, in two checkouts.

    python3 tools/count_work.py BASE CHANGE [--workload W] [--seed N] [--by-function N]
                                [--by-line N]

BASE and CHANGE are two checkouts of this repository, such as a clone
of the parent commit and the working tree. For each, a fresh process
imports that checkout's `src/` and `perfbench/workloads.py`, builds the
workload's inputs at the seed, and makes one `run_simulation` call under
`sys.settrace` with opcode tracing on. It counts every opcode event (a
bytecode instruction executed in a Python frame) and every call event (a
Python-level call; C functions make none, a resumed generator makes
one). The inputs are built before tracing starts, so only the run is
counted, not the trace's serialization. `mixed100_cli` and `dag_stress`
run as their `avpipesim run` does, without its file writing;
`corner_suite` runs its first scenario under its mitigated config.

The counts do not depend on the machine's load, so they resolve a
change of work that `wall_s` cannot. Tracing makes the run about ten
times slower (`dag_stress` at seed 0 takes ~10 s a side on a 2-core VM).

Prints each side's counts and the change. With `--by-function N`, it
also prints, per side, the N functions that executed the most
instructions, each with its instructions and calls; a function is named
by its file, first line and qualified name. That shows where a change
moves work. With `--by-line N`, it prints, per side, the N source lines
that executed the most instructions, each as `file:line` with its
instructions, their share of the side's total and the line's source
text (an instruction with no source line counts under line `?`, with
no text); counting lines makes the traced run slower still. Exit status:
0; 1 if a side failed or the two runs' trace digests differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import linecache
import os
import subprocess
import sys

WORKLOADS = ("mixed100_cli", "dag_stress", "corner_suite")


def build(workload: str, seed: int):
    """(scenario, graph, groups, engine config, sim seed) of workload's run."""
    import workloads
    from avpipesim.engine import EngineConfig
    from avpipesim.mitigation import MitigationConfig

    if workload == "corner_suite":
        suite, graph, groups, configs, sim_seed = workloads.corner_suite(seed)
        return suite[0][1], graph, groups, dict(configs)["mitigated"], sim_seed
    scenario, graph, groups, mitigation, sim_seed = workloads.CLI_BUILDERS[workload](seed)
    config = EngineConfig(mitigation=MitigationConfig(**mitigation))
    return scenario, graph, groups, config, sim_seed


def count(checkout: str, workload: str, seed: int, by_line: int = 0) -> dict:
    """Run workload once from checkout, traced; its counts and trace digest,
    and with by_line, its by_line lines that executed the most instructions."""
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "perfbench")]
    import avpipesim
    from avpipesim.engine import run_simulation

    src = os.path.realpath(os.path.join(checkout, "src"))
    if not os.path.realpath(avpipesim.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported {avpipesim.__file__}, not the checkout's")
    scenario, graph, groups, config, sim_seed = build(workload, seed)
    work = {}       # code object -> [instructions, calls]
    lines = {}      # code object -> {line number: instructions}, with by_line

    def on_call(frame, event, arg):
        counts = work.get(frame.f_code)
        if counts is None:
            counts = work[frame.f_code] = [0, 0]
        counts[1] += 1

        per_line = lines.setdefault(frame.f_code, {}) if by_line else None

        def on_event(frame, event, arg):
            if event == "opcode":
                counts[0] += 1
                if per_line is not None:
                    line = frame.f_lineno
                    per_line[line] = per_line.get(line, 0) + 1
            return on_event
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return on_event

    sys.settrace(on_call)
    try:
        trace = run_simulation(scenario, graph, groups, config, sim_seed)
    finally:
        sys.settrace(None)
    digest = hashlib.sha256("".join(trace.ndjson_lines()).encode()).hexdigest()
    root = os.path.realpath(checkout)
    functions = sorted(([code_name(code, root), *counts] for code, counts in work.items()),
                       key=lambda f: (-f[1], f[0]))
    # an instruction with no source line (f_lineno None) counts under line "?"
    top = sorted(((n, code, line) for code, per_line in lines.items()
                  for line, n in per_line.items()),
                 key=lambda r: (-r[0], code_name(r[1], root), r[2] or 0))[:by_line]
    return {"instructions": sum(f[1] for f in functions),
            "calls": sum(f[2] for f in functions), "trace_sha256": digest,
            "functions": functions,
            "lines": [[f"{file_name(code, root)}:{'?' if line is None else line}", n,
                       "" if line is None else linecache.getline(code.co_filename, line).strip()]
                      for n, code, line in top]}


def file_name(code, checkout: str) -> str:
    """A code object's file; one in checkout is named by its path there."""
    path = os.path.realpath(code.co_filename)
    if path.startswith(checkout + os.sep):
        path = os.path.relpath(path, checkout)
    return path


def code_name(code, checkout: str) -> str:
    """file:line(qualified name) of a code object."""
    return (f"{file_name(code, checkout)}:{code.co_firstlineno}"
            f"({getattr(code, 'co_qualname', code.co_name)})")


def side(checkout: str, workload: str, seed: int, by_line: int) -> dict:
    """count() in a fresh process; {"error": ...} if it fails."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", checkout,
                           "--workload", workload, "--seed", str(seed),
                           "--by-line", str(by_line)],
                          cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"error": f"exit code {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", nargs="?")
    p.add_argument("change", nargs="?")
    p.add_argument("--workload", choices=WORKLOADS, default="dag_stress")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--by-function", type=int, default=0, metavar="N",
                   help="also print each side's N functions with the most instructions")
    p.add_argument("--by-line", type=int, default=0, metavar="N",
                   help="also print each side's N source lines with the most instructions")
    p.add_argument("--child", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        print(json.dumps(count(os.path.abspath(args.child), args.workload, args.seed,
                               args.by_line)))
        return 0
    if args.base is None or args.change is None:
        p.error("BASE and CHANGE are required")

    results = {}
    for name, checkout in (("base", args.base), ("change", args.change)):
        r = results[name] = side(os.path.abspath(checkout), args.workload, args.seed,
                                 args.by_line)
        if "error" in r:
            print(f"{name}: failed\n{r['error']}", file=sys.stderr)
            return 1
        print(f"{args.workload} seed {args.seed} {name}: {r['instructions']:,} instructions, "
              f"{r['calls']:,} calls, trace sha256 {r['trace_sha256'][:16]}", flush=True)
        for fn, instructions, calls in r["functions"][:args.by_function]:
            print(f"  {instructions:>12,} instructions {calls:>9,} calls  {fn}")
        for where, instructions, text in r["lines"]:
            print(f"  {instructions:>12,} instructions "
                  f"{instructions / r['instructions']:>6.1%}  {where}  {text}")
    base, change = results["base"], results["change"]
    print(f"{args.workload} seed {args.seed} change: "
          + ", ".join(f"{change[k] - base[k]:+,} {k} ({change[k] / base[k] - 1:+.2%})"
                      for k in ("instructions", "calls")))
    if base["trace_sha256"] != change["trace_sha256"]:
        print("the two traces differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
