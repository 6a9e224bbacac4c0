"""Run configuration: one JSON file tying together scenario, pipeline,
processor groups, RSS parameters, and mitigation toggles."""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Optional

from .engine import EngineConfig, ProcessorGroup
from .jsonio import InputError, Key, from_json, load_json
from .mitigation import MitigationConfig
from .safety import RssParams

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


# JSON keys, types and defaults come from the dataclasses; this table
# lists the exceptions (see jsonio.Key).
_SCHEMA = {
    RunConfig: {"scenario_path": Key("scenario"), "pipeline_path": Key("pipeline"),
                "engine": Key(flat=True), "seed": Key(default=None), "out_dir": Key("out")},
    ProcessorGroup: {"worker_count": Key("workers", default=1),
                     "pinned_nodes": Key(default=[])},
    EngineConfig: {"actuation_delay_us": Key(min=0)},
    MitigationConfig: {"criticality_radius_m": Key("radius_m"),
                       "steal_safety_factor": Key("safety_factor")},
    RssParams: {"a_max_accel": Key("a_max_accel_mps2"), "a_min_brake": Key("a_min_brake_mps2"),
                "a_max_brake": Key("a_max_brake_mps2")},
}


def config_from_json(obj: dict, base_dir: str = ".") -> RunConfig:
    """The run config in obj, its relative paths taken from base_dir."""
    cfg = from_json(RunConfig, obj, "config", CONFIG_FORMAT, ConfigError, _SCHEMA)
    return dataclasses.replace(cfg, **{name: os.path.join(base_dir, getattr(cfg, name))
                                       for name in ("scenario_path", "pipeline_path", "out_dir")})


def load_config(path) -> RunConfig:
    base_dir = os.path.dirname(os.path.abspath(path))
    return load_json(path, lambda obj: config_from_json(obj, base_dir), ConfigError)
