"""Deterministic discrete-event simulator for streaming AV pipelines.

Models reaction time as sensor + module + bubble components over a
dataflow DAG, derives per-object deadlines from an RSS safety envelope,
and implements tail-latency mitigations: deadline-driven fastpath with
partial updates, proactive precomputation, and budget-checked work
stealing.
"""


def _import_numpy() -> None:
    """Import numpy with a one-thread OpenBLAS pool unless the caller sized
    it: OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it, and
    nothing here calls BLAS. os.environ is left as it was found."""
    import os
    caller_set = "OPENBLAS_NUM_THREADS" in os.environ
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        import numpy  # noqa: F401
    finally:
        if not caller_set:
            del os.environ["OPENBLAS_NUM_THREADS"]


_import_numpy()

from .analysis import (LatencyStats, SafetyReport, compare_runs, compute_stats,
                       export_cdf, safety_report)
from .engine import EngineConfig, ProcessorGroup, Simulation, run_simulation
from .mitigation import (MitigationConfig, PathChoice, choose_path, message_deadline,
                         partial_update, proactive_credit, steal_admission)
from .pipeline import (Channel, ChannelPolicy, ExecutionPattern, FrameMessage,
                       FusionSpec, LatencyModel, NodeRole, NodeSpec, ObjectTrack,
                       PipelineGraph, fusion_update, load_pipeline, sample_latency,
                       save_pipeline)
from .safety import (ReactionBudget, RssParams, SafetyLevel, SafetyStatus,
                     check_safety, closure_distance, object_deadline,
                     reaction_budget, rss_longitudinal_min_distance)
from .scenario import (AgentKind, AgentState, RoadSpec, Scenario, TrajectorySpec,
                       generate_traffic, load_scenario, save_scenario)
from .simkernel import EventQueue, RandomStream, StreamFactory, ms, sec
from .trace import ReactionRecord, RunTrace

__version__ = "0.1.0"
