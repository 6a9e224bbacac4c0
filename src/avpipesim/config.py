"""Run configuration: one JSON file tying together scenario, pipeline,
processor groups, RSS parameters, and mitigation toggles."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from .engine import EngineConfig, ProcessorGroup
from .jsonio import InputError, check_keys, fields, load_json, read_bool, read_int
from .mitigation import MitigationConfig
from .safety import DEFAULT_DEADLINE_CAP_US, RssParams

CONFIG_FORMAT = 1


class ConfigError(InputError):
    pass


@dataclass(frozen=True)
class RunConfig:
    scenario_path: str
    pipeline_path: str
    groups: tuple[ProcessorGroup, ...]
    engine: EngineConfig
    seed: Optional[int]
    out_dir: str = "out"


def rss_params_from_json(obj: dict) -> RssParams:
    check_keys(obj, {"response_time_us", "a_max_accel_mps2", "a_min_brake_mps2",
                     "a_max_brake_mps2", "lateral_mu_m"}, "rss", ConfigError)
    with fields("rss", ConfigError):
        return RssParams(
            response_time_us=read_int(obj, "response_time_us", 100_000),
            a_max_accel=float(obj.get("a_max_accel_mps2", 2.0)),
            a_min_brake=float(obj.get("a_min_brake_mps2", 4.0)),
            a_max_brake=float(obj.get("a_max_brake_mps2", 8.0)),
            lateral_mu_m=float(obj.get("lateral_mu_m", 0.5)),
        )


def _mitigation_from_json(obj: dict) -> MitigationConfig:
    check_keys(obj, {"fastpath", "proactive", "stealing", "radius_m",
                     "fast_lookahead_m", "deadline_cap_us", "safety_factor",
                     "cancel_proactive_every_frame"}, "mitigation", ConfigError)
    with fields("mitigation", ConfigError):
        return MitigationConfig(
            fastpath=read_bool(obj, "fastpath", False),
            proactive=read_bool(obj, "proactive", False),
            stealing=read_bool(obj, "stealing", False),
            criticality_radius_m=float(obj.get("radius_m", 20.0)),
            fast_lookahead_m=float(obj.get("fast_lookahead_m", 20.0)),
            deadline_cap_us=read_int(obj, "deadline_cap_us", DEFAULT_DEADLINE_CAP_US),
            steal_safety_factor=float(obj.get("safety_factor", 1.25)),
            cancel_proactive_every_frame=read_bool(obj, "cancel_proactive_every_frame",
                                                   False),
        )


def config_from_json(obj: dict, base_dir: str = ".") -> RunConfig:
    check_keys(obj, {"format", "scenario", "pipeline", "groups", "rss", "mitigation",
                     "seed", "tick_us", "sensor_range_m", "actuation_delay_us",
                     "response_margin_us", "brake_level_mps2", "out"}, "config", ConfigError)
    if obj.get("format") != CONFIG_FORMAT:
        raise ConfigError(f"format: expected {CONFIG_FORMAT}, got {obj.get('format')!r}")
    for key in ("scenario", "pipeline", "groups"):
        if key not in obj:
            raise ConfigError(f"config: missing field {key!r}")
    groups = []
    with fields("groups", ConfigError):
        for i, g in enumerate(obj["groups"]):
            check_keys(g, {"name", "workers", "budget_us", "pinned_nodes"},
                       f"groups[{i}]", ConfigError)
            with fields(f"groups[{i}]", ConfigError):
                groups.append(ProcessorGroup(
                    name=str(g["name"]), worker_count=read_int(g, "workers", 1),
                    pinned_nodes=tuple(g.get("pinned_nodes", [])),
                    budget_us=read_int(g, "budget_us", 1_000_000_000)))
    with fields("config", ConfigError):
        engine = EngineConfig(
            tick_us=read_int(obj, "tick_us", 100_000),
            sensor_range_m=float(obj.get("sensor_range_m", 60.0)),
            actuation_delay_us=read_int(obj, "actuation_delay_us", 20_000),
            response_margin_us=read_int(obj, "response_margin_us", 600_000),
            brake_level_mps2=float(obj.get("brake_level_mps2", -6.0)),
            mitigation=_mitigation_from_json(obj.get("mitigation", {})),
            rss=rss_params_from_json(obj.get("rss", {})),
        )
        seed = read_int(obj, "seed") if obj.get("seed") is not None else None

    def resolve(p: str) -> str:
        return p if os.path.isabs(p) else os.path.join(base_dir, p)

    return RunConfig(
        scenario_path=resolve(str(obj["scenario"])),
        pipeline_path=resolve(str(obj["pipeline"])),
        groups=tuple(groups),
        engine=engine,
        seed=seed,
        out_dir=resolve(str(obj.get("out", "out"))),
    )


def load_config(path) -> RunConfig:
    base_dir = os.path.dirname(os.path.abspath(path))
    return load_json(path, lambda obj: config_from_json(obj, base_dir), ConfigError,
                     "config")
