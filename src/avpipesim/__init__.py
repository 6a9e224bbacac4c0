"""Deterministic discrete-event simulator for streaming AV pipelines.

Models reaction time as sensor + module + bubble components over a
dataflow DAG, derives per-object deadlines from an RSS safety envelope,
and implements tail-latency mitigations: deadline-driven fastpath with
partial updates, proactive precomputation, and budget-checked work
stealing.
"""

from .analysis import (LatencyStats, SafetyReport, compare_runs, compute_stats,
                       export_cdf, safety_report)
from .engine import (EngineConfig, ProcessorGroup, ReactionRecord, RunTrace,
                     Simulation, run_simulation)
from .mitigation import (MitigationConfig, PathChoice, choose_path, message_deadline,
                         partial_update, proactive_credit, steal_admission)
from .pipeline import (Channel, ChannelPolicy, ExecutionPattern, FrameMessage,
                       FusionSpec, LatencyModel, NodeRole, NodeSpec, ObjectTrack,
                       PipelineGraph, fusion_update, load_pipeline,
                       predict_latency, sample_latency, save_pipeline)
from .safety import (ReactionBudget, RssParams, SafetyLevel, SafetyStatus,
                     check_safety, closure_distance, object_deadline,
                     reaction_budget, rss_longitudinal_min_distance)
from .scenario import (AgentKind, AgentState, RoadSpec, Scenario, TrajectorySpec,
                       agent_state_at, generate_traffic, load_scenario,
                       save_scenario, visible_agents)
from .simkernel import EventQueue, RandomStream, StreamFactory, ms, sec

__version__ = "0.1.0"
