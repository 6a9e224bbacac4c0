"""Command-line front end.

Commands: validate | run | sweep | compare. Exit codes: 0 success, 1 bad
input (a file, trace, flag or environment value), 2 analysis failure.
Flags mirror run-config keys and override file values; COLA_SIM_THREADS
bounds sweep parallelism.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
from contextlib import contextmanager

from . import analysis
from .config import ConfigError, RunConfig, load_config
from .engine import RunTrace, TraceError, run_simulation
from .jsonio import InputError, as_scalar, dumps, read_int, save_json
from .mitigation import MitigationConfig
from .pipeline import load_pipeline
from .scenario import RoadSpec, Scenario, generate_traffic, load_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="avpipesim",
                                description="AV pipeline latency simulator")
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("validate", help="validate scenario and pipeline files")
    pv.add_argument("--scenario", required=True)
    pv.add_argument("--pipeline", required=True)

    def add_run_flags(sp):
        sp.add_argument("--config", required=True, help="run configuration JSON")
        sp.add_argument("--scenario")
        sp.add_argument("--pipeline")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--out")
        sp.add_argument("--fastpath", choices=["on", "off"])
        sp.add_argument("--proactive", choices=["on", "off"])
        sp.add_argument("--stealing", choices=["on", "off"])
        sp.add_argument("--deadline-cap-us", type=int, dest="deadline_cap_us")

    pr = sub.add_parser("run", help="run one simulation and write reports")
    add_run_flags(pr)
    pr.add_argument("--paired", action="store_true",
                    help="also run a mitigations-off baseline and write compare.json")

    ps = sub.add_parser("sweep", help="run one simulation per axis value")
    add_run_flags(ps)
    ps.add_argument("--axis", required=True)
    ps.add_argument("--values", required=True,
                    help="comma-separated axis values")

    pc = sub.add_parser("compare", help="compare two trace files")
    pc.add_argument("baseline")
    pc.add_argument("treatment")
    pc.add_argument("--out")
    return p


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    flags = {"fastpath": args.fastpath, "proactive": args.proactive,
             "stealing": args.stealing, "deadline_cap_us": args.deadline_cap_us}
    try:    # the switches are on or off, so only the cap can be out of bounds
        mit = dataclasses.replace(cfg.engine.mitigation, **{
            name: v == "on" if isinstance(v, str) else v for name, v in flags.items()
            if v is not None})
    except InputError as e:
        raise ConfigError(f"--deadline-cap-us: {e}") from None
    return dataclasses.replace(
        cfg,
        scenario_path=args.scenario or cfg.scenario_path,
        pipeline_path=args.pipeline or cfg.pipeline_path,
        seed=args.seed if args.seed is not None else cfg.seed,
        out_dir=args.out or cfg.out_dir,
        engine=dataclasses.replace(cfg.engine, mitigation=mit),
    )


def _is_stochastic(graph) -> bool:
    return any(m is not None and m.noise.kind.value != "none"
               for n in graph.nodes.values() for m in (n.latency, n.fast_latency))


def _load_run(args):
    """(config with the flags applied, scenario, graph) of run and sweep."""
    cfg = _apply_overrides(load_config(args.config), args)
    return cfg, load_scenario(cfg.scenario_path), load_pipeline(cfg.pipeline_path)


@contextmanager
def _writing(path: str):
    """Report an OSError raised while writing outputs under path as an
    input error naming the file."""
    try:
        yield
    except OSError as e:
        raise InputError(f"cannot write {e.filename or path}: {e.strerror or e}") from None


def _execute(cfg: RunConfig, scenario: Scenario, graph) -> RunTrace:
    if _is_stochastic(graph) and cfg.seed is None:
        raise ConfigError("stochastic pipeline requires an explicit seed")
    return run_simulation(scenario, graph, list(cfg.groups), cfg.engine, cfg.seed or 0)


def _write_run_outputs(trace: RunTrace, out_dir: str, suffix: str = "") -> dict:
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"trace{suffix}.ndjson")
    with open(trace_path, "w", encoding="utf-8") as f:
        f.writelines(trace.ndjson_lines())
    report = {"safety": dataclasses.asdict(analysis.safety_report(trace))}
    samples = trace.e2e_samples()
    if samples:
        report["latency"] = dataclasses.asdict(analysis.compute_stats(samples))
        analysis.export_cdf(samples, os.path.join(out_dir, f"cdf{suffix}.csv"))
    report["reactions"] = [dataclasses.asdict(r) for r in trace.reactions]
    save_json(report, os.path.join(out_dir, f"report{suffix}.json"))
    return report


def _summary_line(report: dict) -> str:
    lat = report.get("latency") or {}
    saf = report["safety"]
    return ("mean={mean} p99={p99} worst={worst} violations={v} collisions={c}"
            .format(mean=lat.get("mean_us", "-"), p99=lat.get("p99_us", "-"),
                    worst=lat.get("max_us", "-"), v=saf["violations"],
                    c=saf["collisions"]))


def cmd_validate(args) -> int:
    load_scenario(args.scenario)
    load_pipeline(args.pipeline)
    print("ok")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg, scenario, graph = _load_run(args)
    with _writing(cfg.out_dir):
        trace = _execute(cfg, scenario, graph)
        report = _write_run_outputs(trace, cfg.out_dir)
        if args.paired:
            base_mit = MitigationConfig(
                deadline_cap_us=cfg.engine.mitigation.deadline_cap_us)
            base_cfg = dataclasses.replace(
                cfg, engine=dataclasses.replace(cfg.engine, mitigation=base_mit))
            base_trace = _execute(base_cfg, scenario, graph)
            _write_run_outputs(base_trace, cfg.out_dir, suffix="_baseline")
            comparison = analysis.compare_runs(base_trace, trace)
            save_json(comparison, os.path.join(cfg.out_dir, "compare.json"))
    print(_summary_line(report))
    return EXIT_OK


SWEEP_AXES = ("deadline_cap", "density", "seed")
SWEEP_COLUMNS = ("mean_us", "p99_us", "max_us", "violations", "collisions")


def _with_density(scenario: Scenario, density: float, seed: int) -> Scenario:
    road = RoadSpec(speed_mps=max(scenario.ego_initial.v_mps, 1.0))
    extra = generate_traffic(density, seed, road)
    return dataclasses.replace(scenario, agents=scenario.agents + tuple(
        (f"bg{i:03d}", kind, traj) for i, (kind, traj) in enumerate(extra)))


def _sweep_points(cfg: RunConfig, scenario: Scenario, axis: str,
                  text: str) -> list[tuple[float, RunConfig, Scenario]]:
    """(value, config, scenario) per comma-separated value of --values:
    integers for seed and deadline_cap. Each point's records are built
    here, so a value out of its field's bounds fails before any run."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"invalid axis {axis!r}; choose from {SWEEP_AXES}")
    values = [v.strip() for v in text.split(",") if v.strip()]
    if len(values) < 2:
        raise ConfigError(">= 2 values required")
    points = []
    try:
        for v in values:    # an integer literal is read exactly on an integer axis
            v = read_int(v) if axis != "density" and v.removeprefix("-").isdecimal() else float(v)
            if axis == "density":
                points.append((v, cfg, _with_density(scenario, v, cfg.seed or 0)))
            elif axis == "seed":
                points.append((v, dataclasses.replace(cfg, seed=as_scalar(int, v)), scenario))
            else:
                mit = dataclasses.replace(cfg.engine.mitigation, deadline_cap_us=as_scalar(int, v))
                engine = dataclasses.replace(cfg.engine, mitigation=mit)
                points.append((v, dataclasses.replace(cfg, engine=engine), scenario))
    except ValueError as e:
        raise ConfigError(f"--values: {e}") from None
    return points


def _sweep_point(payload) -> tuple[float, dict]:
    value, cfg, scenario, graph = payload
    trace = _execute(cfg, scenario, graph)
    samples = trace.e2e_samples()
    stats = dataclasses.asdict(analysis.compute_stats(samples)) if samples else {}
    return value, {**stats, **dataclasses.asdict(analysis.safety_report(trace))}


def _sweep_workers(threads: int, points: int) -> int:
    """Sweep processes for COLA_SIM_THREADS = threads: no more than the
    sweep's points or the machine's cores."""
    return min(threads, points, os.cpu_count() or 1)


def cmd_sweep(args) -> int:
    cfg, scenario, graph = _load_run(args)
    payloads = [(*point, graph) for point in _sweep_points(cfg, scenario, args.axis, args.values)]
    try:
        threads = as_scalar(int, float(os.environ.get("COLA_SIM_THREADS", "1")))
    except ValueError as e:
        raise ConfigError(f"COLA_SIM_THREADS: {e}") from None
    workers = _sweep_workers(threads, len(payloads))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor    # ~20 ms to import; sweep only
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, payloads))     # in payload order
    else:
        results = [_sweep_point(p) for p in payloads]
    out_path = os.path.join(cfg.out_dir, "sweep.csv")
    with _writing(cfg.out_dir):
        os.makedirs(cfg.out_dir, exist_ok=True)
        with open(out_path, "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f)
            w.writerow(["value", *SWEEP_COLUMNS])
            for value, row in results:
                w.writerow([value, *(row.get(c, "") for c in SWEEP_COLUMNS)])
    print(out_path)
    return EXIT_OK


def _read_trace(path: str) -> RunTrace:
    with open(path, "r", encoding="utf-8") as f:
        try:
            return RunTrace.from_ndjson(f)
        except TraceError as e:
            raise InputError(f"{path}:{e.lineno}: {e}") from None
        except UnicodeDecodeError as e:
            raise InputError(f"{path}: not UTF-8 text: {e}") from None


def cmd_compare(args) -> int:
    base = _read_trace(args.baseline)
    treat = _read_trace(args.treatment)
    text = dumps(analysis.compare_runs(base, treat))
    if args.out:
        with _writing(args.out), open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"validate": cmd_validate, "run": cmd_run,
               "sweep": cmd_sweep, "compare": cmd_compare}[args.command]
    try:
        return command(args)
    except FileNotFoundError as e:
        message, code = f"missing file: {e.filename}", EXIT_VALIDATION
    except OSError as e:
        message, code = f"cannot read {e.filename}: {e.strerror}", EXIT_VALIDATION
    except InputError as e:
        message, code = e, EXIT_VALIDATION
    except analysis.AnalysisError as e:
        message, code = e, EXIT_RUNTIME
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
