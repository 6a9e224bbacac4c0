"""Dataflow pipeline description.

Nodes trigger either on a fixed period (timing pattern) or on message
arrival (interrupt pattern). Per-node cost is a linear predictor over
object counts per kind plus an offset, with optional noise, a cache-
contention add-on driven by payload size, and an affine lookahead term.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .jsonio import (InputError, check_keys, fields, load_json, read_float, read_int,
                     read_str, read_str_list)
from .scenario import AgentKind, AgentState
from .simkernel import RandomStream

PIPELINE_FORMAT = 1


class PipelineError(InputError):
    """Pipeline description failed validation."""


class NodeRole(str, Enum):
    SENSOR = "sensor"
    PERCEPTION = "perception"
    FUSION = "fusion"
    PREDICTION = "prediction"
    PLANNING = "planning"
    CONTROL = "control"
    OTHER = "other"


class NoiseKind(str, Enum):
    NONE = "none"
    LOGNORMAL = "lognormal"   # multiplicative, median 1
    UNIFORM = "uniform"       # additive, +/- jitter_us


@dataclass(frozen=True)
class NoiseSpec:
    kind: NoiseKind = NoiseKind.NONE
    sigma: float = 0.0        # lognormal shape
    jitter_us: int = 0        # uniform half-width


@dataclass(frozen=True)
class ContentionSpec:
    """Additive latency from cache contention: misses grow linearly with
    payload size, each miss costs slope_us."""
    slope_us_per_miss: float
    misses_per_unit: float
    base_misses: float = 0.0


@dataclass(frozen=True)
class LatencyModel:
    per_kind_cost_us: dict[AgentKind, int] = field(default_factory=dict)
    offset_us: int = 0
    noise: NoiseSpec = NoiseSpec()
    contention: Optional[ContentionSpec] = None
    lookahead_cost_us_per_m: float = 0.0
    offset_floor_us: int = 1

    def __post_init__(self):
        if self.offset_us < 0 or any(c < 0 for c in self.per_kind_cost_us.values()):
            raise PipelineError("latency coefficients must be >= 0")
        if self.lookahead_cost_us_per_m < 0:
            raise PipelineError("lookahead cost must be >= 0")
        if self.offset_floor_us <= 0:
            raise PipelineError("offset floor must be > 0")


def predict_latency(m: LatencyModel, counts: dict[AgentKind, int],
                    lookahead_m: Optional[float] = None) -> int:
    """Deterministic linear latency estimate, no noise."""
    total = m.offset_us
    for kind, n in counts.items():
        if n < 0:
            raise PipelineError(f"negative count for {kind}")
        total += m.per_kind_cost_us.get(kind, 0) * n
    if lookahead_m is not None:
        total += round(m.lookahead_cost_us_per_m * lookahead_m)
    return total


def sample_latency(m: LatencyModel, counts: dict[AgentKind, int],
                   lookahead_m: Optional[float], payload_size: int,
                   stream: RandomStream) -> int:
    """One stochastic latency draw: prediction plus noise and contention."""
    base = predict_latency(m, counts, lookahead_m)
    value = float(base)
    if m.noise.kind == NoiseKind.LOGNORMAL:
        value *= stream.lognormal(m.noise.sigma)
    elif m.noise.kind == NoiseKind.UNIFORM:
        value += stream.uniform(-m.noise.jitter_us, m.noise.jitter_us)
    if m.contention is not None:
        misses = m.contention.base_misses + m.contention.misses_per_unit * payload_size
        value += m.contention.slope_us_per_miss * misses
    return max(m.offset_floor_us, round(value))


class ExecutionPattern(str, Enum):
    TIMING = "timing"
    INTERRUPT = "interrupt"


@dataclass(frozen=True)
class NodeSpec:
    name: str
    pattern: ExecutionPattern
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    latency: LatencyModel
    role: NodeRole = NodeRole.OTHER
    period_us: int = 0                        # timing pattern only
    fast_latency: Optional[LatencyModel] = None
    lookahead_m: Optional[float] = None       # planning horizon fed to the model
    fusion: Optional["FusionSpec"] = None     # fusion role only
    proactive_cost_us: int = 0                # precomputable share of the base cost

    def __post_init__(self):
        if self.pattern == ExecutionPattern.TIMING and self.period_us <= 0:
            raise PipelineError(f"node {self.name}: timing pattern requires period > 0")
        if not self.outputs:
            raise PipelineError(f"node {self.name}: at least one output required")
        if self.role == NodeRole.SENSOR and self.inputs:
            raise PipelineError(f"node {self.name}: sensor nodes have no inputs")

    @property
    def supports_fastpath(self) -> bool:
        return self.fast_latency is not None and self.role in (
            NodeRole.PREDICTION, NodeRole.PLANNING)


class ChannelPolicy(str, Enum):
    FIFO = "fifo"
    LATEST_ONLY = "latest"


@dataclass
class Channel:
    id: str
    policy: ChannelPolicy
    capacity: int = 8
    queued: list = field(default_factory=list)

    def offer(self, msg) -> None:
        if self.policy == ChannelPolicy.LATEST_ONLY:
            self.queued = [msg]
        else:
            self.queued.append(msg)
            if len(self.queued) > self.capacity:
                self.queued.pop(0)   # oldest data is least relevant

    def take(self):
        """Pop per policy: FIFO head, or the single latest message."""
        if not self.queued:
            return None
        return self.queued.pop(0)

    def peek_latest(self):
        return self.queued[-1] if self.queued else None


@dataclass(frozen=True)
class FusionSpec:
    a: int = 3
    n: int = 5

    def __post_init__(self):
        if not (1 <= self.a <= self.n):
            raise PipelineError(f"fusion requires 1 <= a <= n, got a={self.a} n={self.n}")


def fusion_update(f: FusionSpec, history: dict[str, list[bool]],
                  frame_detections: set[str]) -> tuple[set[str], dict[str, list[bool]]]:
    """One frame of a-of-n track confirmation.

    history maps object id to its detection bits over the last n frames
    (newest last). An object is published when it has >= a detections in
    the window; objects absent from the whole window are dropped.
    """
    new_history: dict[str, list[bool]] = {}
    published: set[str] = set()
    for oid in set(history) | frame_detections:
        bits = list(history.get(oid, []))
        bits.append(oid in frame_detections)
        bits = bits[-f.n:]
        if not any(bits):
            continue      # stale track, drop
        new_history[oid] = bits
        if sum(bits) >= f.a:
            published.add(oid)
    return published, new_history


@dataclass(frozen=True)
class ObjectTrack:
    agent_id: str
    kind: AgentKind
    state: AgentState
    deadline_us: int
    deadline_capped: bool = True   # True when the budget was unbounded and the cap applied


@dataclass
class FrameMessage:
    seq: int
    sensor_ts: int
    created_ts: int
    objects: tuple[ObjectTrack, ...]
    message_deadline: int
    partial: bool = False
    # origin sensor frame seq -> (capture_ts, accumulated module time,
    # created_ts of the hop that carried it); drives reaction attribution
    lineage: dict[int, tuple[int, int, int]] = field(default_factory=dict)

    def __post_init__(self):
        if self.sensor_ts > self.created_ts:
            raise PipelineError("sensor_ts must be <= created_ts")

    def counts(self) -> dict[AgentKind, int]:
        """kind_counts(self.objects), counted once: a message is never
        changed after it is created. The caller must not change the dict."""
        counts = self.__dict__.get("_counts")
        if counts is None:
            counts = self._counts = kind_counts(self.objects)
        return counts


def kind_counts(objects) -> dict[AgentKind, int]:
    """Number of objects per kind, the input of the latency models."""
    out: dict[AgentKind, int] = {}
    for o in objects:
        out[o.kind] = out.get(o.kind, 0) + 1
    return out


@dataclass(frozen=True)
class PipelineGraph:
    nodes: dict[str, NodeSpec]
    channels: dict[str, Channel]

    def consumers_of(self, channel_id: str) -> list[str]:
        return [n for n, spec in self.nodes.items() if channel_id in spec.inputs]

    def successors(self, node: str) -> list[str]:
        out = []
        for ch in self.nodes[node].outputs:
            out.extend(self.consumers_of(ch))
        return out


def validate_graph(g: PipelineGraph) -> None:
    """Check structural invariants; raises PipelineError with specifics."""
    producers: dict[str, list[str]] = {}
    for name, node in g.nodes.items():
        for ch in node.inputs:
            if ch not in g.channels:
                raise PipelineError(f"node {name}: unknown input channel {ch!r}")
        for ch in node.outputs:
            if ch not in g.channels:
                raise PipelineError(f"node {name}: unknown output channel {ch!r}")
            producers.setdefault(ch, []).append(name)
    for ch, prods in producers.items():
        if len(prods) > 1:
            raise PipelineError(
                f"channel {ch!r} has multiple producers: {sorted(prods)}")
    # cycle detection, reporting the offending path
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in g.nodes}
    stack: list[str] = []

    def visit(n: str):
        color[n] = GRAY
        stack.append(n)
        for m in sorted(g.successors(n)):
            if color[m] == GRAY:
                path = stack[stack.index(m):] + [m]
                raise PipelineError(f"cycle: {'->'.join(path)}")
            if color[m] == WHITE:
                visit(m)
        stack.pop()
        color[n] = BLACK

    for n in sorted(g.nodes):
        if color[n] == WHITE:
            visit(n)


class CompiledGraph:
    """A graph's adjacency, computed once: the sorted consumers of each
    channel and the successors of each node. Like PipelineGraph it has
    nodes and successors(), so downstream_estimate takes either."""

    def __init__(self, g: PipelineGraph):
        self.nodes = g.nodes
        self.consumers = {c: tuple(sorted(g.consumers_of(c))) for c in g.channels}
        self._successors = {n: tuple(m for ch in spec.outputs for m in self.consumers[ch])
                            for n, spec in g.nodes.items()}

    def successors(self, node: str) -> tuple[str, ...]:
        return self._successors[node]


def downstream_estimate(g: PipelineGraph | CompiledGraph, node: str,
                        counts: dict[AgentKind, int]) -> int:
    """Predicted remaining latency along the longest path after node.

    Each downstream node is priced and expanded once, so the cost is
    linear in nodes plus edges, not in the number of paths.
    """
    through: dict[str, int] = {}    # node -> its cost plus its longest tail

    def tail(n: str) -> int:
        best = 0
        for succ in g.successors(n):
            if succ not in through:
                spec = g.nodes[succ]
                through[succ] = (predict_latency(spec.latency, counts, spec.lookahead_m)
                                 + tail(succ))
            best = max(best, through[succ])
        return best

    return tail(node)


# ---------------------------------------------------------------------------
# serialization

def _latency_from_json(obj: dict, ctx: str) -> LatencyModel:
    check_keys(obj, {"per_kind_cost_us", "offset_us", "noise", "contention",
                     "lookahead_cost_us_per_m", "offset_floor_us"}, ctx, PipelineError)
    with fields(ctx, PipelineError):
        noise = NoiseSpec()
        if "noise" in obj:
            nb = obj["noise"]
            check_keys(nb, {"kind", "sigma", "jitter_us"}, f"{ctx}.noise", PipelineError)
            with fields(f"{ctx}.noise", PipelineError):
                noise = NoiseSpec(kind=NoiseKind(nb.get("kind", "none")),
                                  sigma=read_float(nb, "sigma", 0.0),
                                  jitter_us=read_int(nb, "jitter_us", 0))
        contention = None
        if "contention" in obj and obj["contention"] is not None:
            cb = obj["contention"]
            check_keys(cb, {"slope_us_per_miss", "misses_per_unit", "base_misses"},
                       f"{ctx}.contention", PipelineError)
            with fields(f"{ctx}.contention", PipelineError):
                contention = ContentionSpec(
                    slope_us_per_miss=read_float(cb, "slope_us_per_miss"),
                    misses_per_unit=read_float(cb, "misses_per_unit"),
                    base_misses=read_float(cb, "base_misses", 0.0))
        costs = obj.get("per_kind_cost_us", {})
        with fields(f"{ctx}.per_kind_cost_us", PipelineError):
            per_kind = {AgentKind(k): read_int(costs, k) for k in costs}
        return LatencyModel(per_kind_cost_us=per_kind,
                            offset_us=read_int(obj, "offset_us", 0),
                            noise=noise, contention=contention,
                            lookahead_cost_us_per_m=read_float(obj, "lookahead_cost_us_per_m",
                                                               0.0),
                            offset_floor_us=read_int(obj, "offset_floor_us", 1))


def _latency_to_json(m: LatencyModel) -> dict:
    out: dict = {"per_kind_cost_us": {k.value: v for k, v in m.per_kind_cost_us.items()},
                 "offset_us": m.offset_us,
                 "offset_floor_us": m.offset_floor_us}
    if m.noise.kind != NoiseKind.NONE:
        out["noise"] = {"kind": m.noise.kind.value, "sigma": m.noise.sigma,
                        "jitter_us": m.noise.jitter_us}
    if m.contention is not None:
        out["contention"] = {"slope_us_per_miss": m.contention.slope_us_per_miss,
                             "misses_per_unit": m.contention.misses_per_unit,
                             "base_misses": m.contention.base_misses}
    if m.lookahead_cost_us_per_m:
        out["lookahead_cost_us_per_m"] = m.lookahead_cost_us_per_m
    return out


def pipeline_from_json(obj: dict) -> PipelineGraph:
    check_keys(obj, {"format", "nodes", "channels"}, "pipeline", PipelineError)
    if obj.get("format") != PIPELINE_FORMAT:
        raise PipelineError(f"format: expected {PIPELINE_FORMAT}, got {obj.get('format')!r}")
    channels: dict[str, Channel] = {}
    for i, c in enumerate(obj.get("channels", [])):
        ctx = f"channels[{i}]"
        check_keys(c, {"id", "policy", "capacity"}, ctx, PipelineError)
        with fields(ctx, PipelineError):
            cid = read_str(c, "id")
            if cid in channels:
                raise PipelineError(f"duplicate channel id {cid!r}")
            channels[cid] = Channel(id=cid, policy=ChannelPolicy(c.get("policy", "fifo")),
                                    capacity=read_int(c, "capacity", 8))
    nodes: dict[str, NodeSpec] = {}
    for i, nb in enumerate(obj.get("nodes", [])):
        ctx = f"nodes[{i}]"
        check_keys(nb, {"name", "pattern", "period_us", "inputs", "outputs", "role",
                        "latency", "fast_latency", "lookahead_m", "fusion",
                        "proactive_cost_us"}, ctx, PipelineError)
        with fields(ctx, PipelineError):
            name = read_str(nb, "name")
            if name in nodes:
                raise PipelineError(f"duplicate node name {name!r}")
            fusion = None
            if "fusion" in nb and nb["fusion"] is not None:
                fb = nb["fusion"]
                check_keys(fb, {"a", "n"}, f"{ctx}.fusion", PipelineError)
                with fields(f"{ctx}.fusion", PipelineError):
                    fusion = FusionSpec(a=read_int(fb, "a"), n=read_int(fb, "n"))
            fast = None
            if "fast_latency" in nb and nb["fast_latency"] is not None:
                fast = _latency_from_json(nb["fast_latency"], f"{ctx}.fast_latency")
            nodes[name] = NodeSpec(
                name=name,
                pattern=ExecutionPattern(nb["pattern"]),
                period_us=read_int(nb, "period_us", 0),
                inputs=read_str_list(nb, "inputs"),
                outputs=read_str_list(nb, "outputs"),
                role=NodeRole(nb.get("role", "other")),
                latency=_latency_from_json(nb.get("latency", {}), f"{ctx}.latency"),
                fast_latency=fast,
                lookahead_m=(read_float(nb, "lookahead_m") if nb.get("lookahead_m") is not None
                             else None),
                fusion=fusion,
                proactive_cost_us=read_int(nb, "proactive_cost_us", 0),
            )
    g = PipelineGraph(nodes=nodes, channels=channels)
    validate_graph(g)
    return g


def pipeline_to_json(g: PipelineGraph) -> dict:
    nodes = []
    for name in sorted(g.nodes):
        n = g.nodes[name]
        nb: dict = {"name": n.name, "pattern": n.pattern.value,
                    "inputs": list(n.inputs), "outputs": list(n.outputs),
                    "role": n.role.value, "latency": _latency_to_json(n.latency)}
        if n.pattern == ExecutionPattern.TIMING:
            nb["period_us"] = n.period_us
        if n.fast_latency is not None:
            nb["fast_latency"] = _latency_to_json(n.fast_latency)
        if n.lookahead_m is not None:
            nb["lookahead_m"] = n.lookahead_m
        if n.fusion is not None:
            nb["fusion"] = {"a": n.fusion.a, "n": n.fusion.n}
        if n.proactive_cost_us:
            nb["proactive_cost_us"] = n.proactive_cost_us
        nodes.append(nb)
    chans = [{"id": c.id, "policy": c.policy.value, "capacity": c.capacity}
             for c in (g.channels[k] for k in sorted(g.channels))]
    return {"format": PIPELINE_FORMAT, "nodes": nodes, "channels": chans}


def load_pipeline(path) -> PipelineGraph:
    return load_json(path, pipeline_from_json, PipelineError, "pipeline")


def save_pipeline(g: PipelineGraph, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(pipeline_to_json(g), f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")
