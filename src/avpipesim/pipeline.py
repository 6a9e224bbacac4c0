"""Dataflow pipeline description.

Nodes trigger either on a fixed period (timing pattern) or on message
arrival (interrupt pattern). Per-node cost is a linear predictor over
object counts per kind plus an offset, with optional noise, a cache-
contention add-on driven by payload size, and an affine lookahead term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .jsonio import InputError, Key, check_min, from_json, load_json, save_json, to_json
from .scenario import AgentKind
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

    def __post_init__(self):
        check_min(self, 0, "sigma", "jitter_us", error=PipelineError)


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
        for side, chans in (("inputs", self.inputs), ("outputs", self.outputs)):
            for i, ch in enumerate(chans):
                if ch in chans[:i]:
                    raise PipelineError(f"node {self.name}: channel {ch!r} listed twice in {side}")

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

    def __post_init__(self):
        check_min(self, 1, "capacity", error=PipelineError)

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
    s_m: float                     # longitudinal position at capture
    deadline_us: int
    deadline_capped: bool = True   # True when the budget was unbounded and the cap applied


@dataclass
class FrameMessage:
    created_ts: int
    objects: tuple[ObjectTrack, ...]
    partial: bool = False
    # the message's only provenance: origin sensor frame seq ->
    # (capture_ts, accumulated module time); drives reaction attribution
    lineage: dict[int, tuple[int, int]] = field(default_factory=dict)

    @property
    def seq(self) -> int:
        """The newest sensor frame feeding this message; -1 for none."""
        return max(self.lineage, default=-1)


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

# JSON keys, types and defaults come from the dataclasses; this table
# lists the exceptions (see jsonio.Key). Nodes and channels are lists
# sorted by name and id; a channel's queue is run state.
_SCHEMA = {
    PipelineGraph: {"nodes": Key(default=[], by="name"), "channels": Key(default=[], by="id")},
    NodeSpec: {"inputs": Key(default=[]), "outputs": Key(default=[]), "latency": Key(default={}),
               "period_us": Key(omit=True), "fast_latency": Key(omit=True),
               "lookahead_m": Key(omit=True), "fusion": Key(omit=True),
               "proactive_cost_us": Key(omit=True)},
    LatencyModel: {"noise": Key(omit=True), "contention": Key(omit=True),
                   "lookahead_cost_us_per_m": Key(omit=True)},
    Channel: {"policy": Key(default="fifo"), "queued": None},
}


def pipeline_from_json(obj: dict) -> PipelineGraph:
    g = from_json(PipelineGraph, obj, "pipeline", PIPELINE_FORMAT, PipelineError, _SCHEMA)
    validate_graph(g)
    return g


def pipeline_to_json(g: PipelineGraph) -> dict:
    return to_json(g, PIPELINE_FORMAT, _SCHEMA)


def load_pipeline(path) -> PipelineGraph:
    return load_json(path, pipeline_from_json, PipelineError)


def save_pipeline(g: PipelineGraph, path):
    save_json(pipeline_to_json(g), path)
