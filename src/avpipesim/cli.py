"""Command-line front end.

Commands: validate | run | sweep | compare. Exit codes: 0 success,
1 validation failure, 2 runtime failure. Flags mirror run-config keys
and override file values; COLA_SIM_THREADS bounds sweep parallelism.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import analysis
from .config import ConfigError, RunConfig, load_config
from .engine import EngineError, RunTrace, TraceError, run_simulation
from .jsonio import InputError
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
    mit = cfg.engine.mitigation
    changes = {}
    for name in ("fastpath", "proactive", "stealing"):
        v = getattr(args, name, None)
        if v is not None:
            changes[name] = v == "on"
    if getattr(args, "deadline_cap_us", None) is not None:
        changes["deadline_cap_us"] = args.deadline_cap_us
    if changes:
        mit = dataclasses.replace(mit, **changes)
    engine = dataclasses.replace(cfg.engine, mitigation=mit)
    return dataclasses.replace(
        cfg,
        scenario_path=args.scenario or cfg.scenario_path,
        pipeline_path=args.pipeline or cfg.pipeline_path,
        seed=args.seed if args.seed is not None else cfg.seed,
        out_dir=args.out or cfg.out_dir,
        engine=engine,
    )


def _is_stochastic(graph) -> bool:
    for n in graph.nodes.values():
        for m in (n.latency, n.fast_latency):
            if m is not None and m.noise.kind.value != "none":
                return True
    return False


def _load_inputs(cfg: RunConfig):
    scenario = load_scenario(cfg.scenario_path)
    graph = load_pipeline(cfg.pipeline_path)
    return scenario, graph


def _execute(cfg: RunConfig, scenario: Scenario, graph) -> RunTrace:
    if _is_stochastic(graph) and cfg.seed is None:
        raise ConfigError("stochastic pipeline requires an explicit seed")
    return run_simulation(scenario, graph, list(cfg.groups), cfg.engine,
                          cfg.seed if cfg.seed is not None else 0)


def _write_run_outputs(trace: RunTrace, out_dir: str, suffix: str = "") -> dict:
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"trace{suffix}.ndjson")
    with open(trace_path, "w", encoding="utf-8") as f:
        f.writelines(trace.ndjson_lines())
    report = {"safety": analysis.safety_report(trace).to_json()}
    samples = trace.e2e_samples()
    if samples:
        report["latency"] = analysis.compute_stats(samples).to_json()
        analysis.export_cdf(samples, os.path.join(out_dir, f"cdf{suffix}.csv"))
    report["reactions"] = [dataclasses.asdict(r) for r in trace.reactions]
    _write_json(report, os.path.join(out_dir, f"report{suffix}.json"))
    return report


def _write_json(obj, path: str):
    """Strict JSON (NaN and Infinity refused), indented, keys sorted."""
    text = _dumps(obj)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _summary_line(report: dict) -> str:
    lat = report.get("latency") or {}
    saf = report["safety"]
    return ("mean={mean} p99={p99} worst={worst} violations={v} collisions={c}"
            .format(mean=lat.get("mean_us", "-"), p99=lat.get("p99_us", "-"),
                    worst=lat.get("max_us", "-"), v=saf["violations"],
                    c=saf["collisions"]))


def cmd_validate(args) -> int:
    try:
        load_scenario(args.scenario)
        load_pipeline(args.pipeline)
    except FileNotFoundError as e:
        print(f"error: missing file: {e.filename}", file=sys.stderr)
        return EXIT_VALIDATION
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    print("ok")
    return EXIT_OK


def cmd_run(args) -> int:
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        scenario, graph = _load_inputs(cfg)
    except FileNotFoundError as e:
        print(f"error: missing file: {e.filename}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InputError, EngineError) as e:    # EngineError: bad group or tick
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
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
            _write_json(comparison, os.path.join(cfg.out_dir, "compare.json"))
    except (ConfigError,) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (EngineError, analysis.AnalysisError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    print(_summary_line(report))
    return EXIT_OK


SWEEP_AXES = ("deadline_cap", "density", "seed")


def _with_density(scenario: Scenario, density: float, seed: int) -> Scenario:
    road = RoadSpec(speed_mps=max(scenario.ego_initial.v_mps, 1.0))
    extra = generate_traffic(density, seed, road)
    agents = list(scenario.agents)
    for i, (kind, traj) in enumerate(extra):
        agents.append((f"bg{i:03d}", kind, traj))
    return dataclasses.replace(scenario, agents=tuple(agents))


def _sweep_point(payload) -> tuple[float, dict]:
    cfg, scenario, graph, axis, value = payload
    if axis == "deadline_cap":
        mit = dataclasses.replace(cfg.engine.mitigation, deadline_cap_us=int(value))
        cfg = dataclasses.replace(cfg, engine=dataclasses.replace(
            cfg.engine, mitigation=mit))
    elif axis == "density":
        scenario = _with_density(scenario, float(value),
                                 cfg.seed if cfg.seed is not None else 0)
    elif axis == "seed":
        cfg = dataclasses.replace(cfg, seed=int(value))
    trace = _execute(cfg, scenario, graph)
    samples = trace.e2e_samples()
    stats = analysis.compute_stats(samples).to_json() if samples else {}
    safety = analysis.safety_report(trace).to_json()
    return value, {**stats, **safety}


def cmd_sweep(args) -> int:
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        scenario, graph = _load_inputs(cfg)
        if args.axis not in SWEEP_AXES:
            raise ConfigError(f"invalid axis {args.axis!r}; choose from {SWEEP_AXES}")
        values = [v.strip() for v in args.values.split(",") if v.strip()]
        if len(values) < 2:
            raise ConfigError(">= 2 values required")
        values = [float(v) for v in values]
    except FileNotFoundError as e:
        print(f"error: missing file: {e.filename}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InputError, EngineError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        payloads = [(cfg, scenario, graph, args.axis, v) for v in values]
        threads = int(os.environ.get("COLA_SIM_THREADS", "1"))
        if threads > 1:
            with ProcessPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(_sweep_point, payloads))
        else:
            results = [_sweep_point(p) for p in payloads]
        results.sort(key=lambda r: values.index(r[0]))
        os.makedirs(cfg.out_dir, exist_ok=True)
        out_path = os.path.join(cfg.out_dir, "sweep.csv")
        with open(out_path, "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f)
            w.writerow(["value", "mean_us", "p99_us", "max_us", "violations",
                        "collisions"])
            for value, row in results:
                w.writerow([value, row.get("mean_us", ""), row.get("p99_us", ""),
                            row.get("max_us", ""), row["violations"],
                            row["collisions"]])
        print(out_path)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (EngineError, analysis.AnalysisError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
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
    try:
        base = _read_trace(args.baseline)
        treat = _read_trace(args.treatment)
    except FileNotFoundError as e:
        print(f"error: missing file: {e.filename}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        print(f"error: cannot read {e.filename}: {e.strerror}", file=sys.stderr)
        return EXIT_VALIDATION
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        report = analysis.compare_runs(base, treat)
    except analysis.AnalysisError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    text = _dumps(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return {"validate": cmd_validate, "run": cmd_run,
            "sweep": cmd_sweep, "compare": cmd_compare}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
