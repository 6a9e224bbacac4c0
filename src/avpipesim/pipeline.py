"""Dataflow pipeline description.

Nodes trigger either on a fixed period (timing pattern) or on message
arrival (interrupt pattern). Per-node cost is a linear predictor over
object counts per kind plus an offset, with optional noise, a cache-
contention add-on driven by payload size, and an affine lookahead term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

from .jsonio import InputError, Key, check_min, from_json, load_json, save_json, shown, to_json
from .scenario import MAX_MAGNITUDE, MAX_TIME_US, AgentKind
from .simkernel import RandomStream

PIPELINE_FORMAT = 1
# a lognormal draw exp(sigma * z) overflows a float only where |z| > 709 / sigma
MAX_SIGMA = 10.0


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


# module constants: a read through the enum class costs more than the test
_NOISE_NONE, _LOGNORMAL, _UNIFORM = NoiseKind.NONE, NoiseKind.LOGNORMAL, NoiseKind.UNIFORM


@dataclass(frozen=True)
class NoiseSpec:
    kind: NoiseKind = NoiseKind.NONE
    sigma: float = 0.0        # lognormal shape
    jitter_us: int = 0        # uniform half-width

    def __post_init__(self):
        check_min(self, 0, "sigma", error=PipelineError, high=MAX_SIGMA)
        check_min(self, 0, "jitter_us", error=PipelineError, high=MAX_TIME_US)


@dataclass(frozen=True)
class ContentionSpec:
    """Additive latency from cache contention: misses grow linearly with
    payload size, each miss costs slope_us."""
    slope_us_per_miss: float
    misses_per_unit: float
    base_misses: float = 0.0

    def __post_init__(self):
        check_min(self, 0, "slope_us_per_miss", "misses_per_unit", "base_misses",
                  error=PipelineError, high=MAX_MAGNITUDE)


@dataclass(frozen=True)
class LatencyModel:
    per_kind_cost_us: dict[AgentKind, int] = field(default_factory=dict)
    offset_us: int = 0
    noise: NoiseSpec = NoiseSpec()
    contention: Optional[ContentionSpec] = None
    lookahead_cost_us_per_m: float = 0.0
    offset_floor_us: int = 1

    def __post_init__(self):
        check_min(self, 0, "offset_us", error=PipelineError, high=MAX_TIME_US)
        check_min(self, 0, "lookahead_cost_us_per_m", error=PipelineError, high=MAX_MAGNITUDE)
        check_min(self, 1, "offset_floor_us", error=PipelineError)
        for kind, cost in self.per_kind_cost_us.items():
            if not 0 <= cost <= MAX_TIME_US:
                raise PipelineError(f"per_kind_cost_us.{AgentKind(kind).value}: "
                                    f"expected in [0, {MAX_TIME_US}], got {shown(cost)}")


def _check_counts(counts: dict[AgentKind, int]):
    for kind, n in counts.items():
        if n < 0:
            raise PipelineError(f"negative count for {kind}")


def predict_latency(m: LatencyModel, counts: dict[AgentKind, int],
                    lookahead_m: Optional[float] = None) -> int:
    """Deterministic linear latency estimate, no noise."""
    _check_counts(counts)
    return latency_plan(m, lookahead_m).price(counts)


class LatencyPlan(NamedTuple):
    """A model's costs compiled for one horizon, and the only reader of
    them. free: the model costs nothing (offset 0, no other term)."""
    model: LatencyModel
    lookahead_us: int       # the rounded lookahead term; 0, an int, without a horizon
    draws: bool             # noise or contention: sample_latency draws around a price
    free: bool

    def price(self, counts: dict[AgentKind, int]) -> int:
        """The offset, each kind's cost times its count in counts' order, then the lookahead."""
        total, costs = self.model.offset_us, self.model.per_kind_cost_us
        for kind, n in counts.items():
            total += costs.get(kind, 0) * n
        return total + self.lookahead_us


def latency_plan(m: LatencyModel, lookahead_m: Optional[float] = None) -> LatencyPlan:
    term = 0 if lookahead_m is None else round(m.lookahead_cost_us_per_m * lookahead_m)
    draws = m.noise.kind != _NOISE_NONE or m.contention is not None
    free = (not draws and m.offset_us == 0 and not m.per_kind_cost_us
            and m.lookahead_cost_us_per_m == 0.0)
    return LatencyPlan(m, term, draws, free)


def sample_latency(m: LatencyModel, base: int, payload_size: int, stream: RandomStream) -> int:
    """One latency draw around base, the model's price: noise, then contention."""
    if m.noise.kind == _NOISE_NONE and m.contention is None:
        return max(m.offset_floor_us, round(base))      # an int stays exact
    value = float(base)
    if m.noise.kind == _LOGNORMAL:
        value *= stream.lognormal(m.noise.sigma)
    elif m.noise.kind == _UNIFORM:
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
        if self.role == NodeRole.SENSOR and self.pattern != ExecutionPattern.TIMING:
            raise PipelineError(f"node {self.name}: sensor nodes use the timing pattern")
        if self.lookahead_m is not None:
            check_min(self, 0, "lookahead_m", error=PipelineError, high=MAX_MAGNITUDE)
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


_LATEST_ONLY = ChannelPolicy.LATEST_ONLY


@dataclass
class Channel:
    id: str
    policy: ChannelPolicy
    capacity: int = 8
    queued: list = field(default_factory=list)

    def __post_init__(self):
        check_min(self, 1, "capacity", error=PipelineError)

    def offer(self, msg) -> None:
        if self.policy == _LATEST_ONLY:
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
    n, a = f.n, f.a
    new_history: dict[str, list[bool]] = {}
    published: set[str] = set()
    for oid in history.keys() | frame_detections:
        bits = [*history.get(oid, ()), oid in frame_detections][-n:]
        if any(bits):       # else a stale track, dropped
            new_history[oid] = bits
            if sum(bits) >= a:
                published.add(oid)
    return published, new_history


class ObjectTrack(NamedTuple):
    """A tuple, so it equals a plain tuple of the same fields."""
    agent_id: str
    kind: AgentKind
    s_m: float                     # longitudinal position at capture
    deadline_us: int
    deadline_capped: bool = True   # True when the budget was unbounded and the cap applied


@dataclass(slots=True, eq=False)
class FrameMessage:
    """A module's output. Its objects are distinct agents, in an order that
    carries no meaning: a capture emits one track per scenario agent, a merge
    and fusion key their output by agent id, a partial update splits a set.
    A message equals only itself."""
    created_ts: int
    objects: tuple[ObjectTrack, ...]
    counts: dict[AgentKind, int]    # kind_counts(objects), given by the producer
    partial: bool = False
    # the message's only provenance: origin sensor frame seq ->
    # (capture_ts, accumulated module time); drives reaction attribution
    lineage: dict[int, tuple[int, int]] = field(default_factory=dict)


def kind_counts(objects) -> dict[AgentKind, int]:
    """Number of objects per kind, the input of the latency models."""
    out: dict[AgentKind, int] = {}
    for o in objects:
        out[o.kind] = out.get(o.kind, 0) + 1
    return out


@dataclass(frozen=True)
class PipelineGraph:
    """A dataflow DAG, checked and indexed once, when it is built: every
    channel a node names exists, each channel has at most one producer,
    and there is no cycle. Its nodes and channels dicts must not be
    changed afterwards."""
    nodes: dict[str, NodeSpec]
    channels: dict[str, Channel]

    def __post_init__(self):
        producers: dict[str, list[str]] = {}
        for name, node in self.nodes.items():
            for ch in node.inputs:
                if ch not in self.channels:
                    raise PipelineError(f"node {name}: unknown input channel {ch!r}")
            for ch in node.outputs:
                if ch not in self.channels:
                    raise PipelineError(f"node {name}: unknown output channel {ch!r}")
                producers.setdefault(ch, []).append(name)
        for ch, prods in producers.items():
            if len(prods) > 1:
                raise PipelineError(f"channel {ch!r} has multiple producers: {sorted(prods)}")
        # the adjacency: plain attributes, not fields, so saving and == ignore them
        consumers = {c: tuple(sorted(n for n, spec in self.nodes.items() if c in spec.inputs))
                     for c in self.channels}
        successors = {n: tuple(m for ch in spec.outputs for m in consumers[ch])
                      for n, spec in self.nodes.items()}
        object.__setattr__(self, "_consumers", consumers)
        object.__setattr__(self, "_successors", successors)
        # cycle detection, reporting the offending path
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {n: WHITE for n in self.nodes}
        stack: list[str] = []
        order: list[str] = []       # every node after all of its successors

        def visit(n: str):
            color[n] = GRAY
            stack.append(n)
            for m in sorted(successors[n]):
                if color[m] == GRAY:
                    path = stack[stack.index(m):] + [m]
                    raise PipelineError(f"cycle: {'->'.join(path)}")
                if color[m] == WHITE:
                    visit(m)
            stack.pop()
            color[n] = BLACK
            order.append(n)

        for n in sorted(self.nodes):
            if color[n] == WHITE:
                visit(n)
        # per node, every node below it, successors first
        below: dict[str, set[str]] = {}
        for n in order:
            below[n] = set(successors[n]).union(*(below[m] for m in successors[n]))
        object.__setattr__(self, "_downstream",
                           {n: tuple(m for m in order if m in below[n]) for n in order})
        object.__setattr__(self, "_plans", {n: latency_plan(spec.latency, spec.lookahead_m)
                                            for n, spec in self.nodes.items()})

    def consumers_of(self, channel_id: str) -> tuple[str, ...]:
        return self._consumers[channel_id]

    def successors(self, node: str) -> tuple[str, ...]:
        return self._successors[node]

    def plan(self, node: str) -> LatencyPlan:
        return self._plans[node]    # its latency model, compiled for its lookahead_m


def downstream_estimate(g: PipelineGraph, node: str,
                        counts: dict[AgentKind, int]) -> int:
    """Predicted remaining latency along the longest path after node.

    Each downstream node is priced once, successors first, so the cost is
    linear in nodes plus edges, not in the number of paths.
    """
    below = g._downstream[node]
    if below:
        _check_counts(counts)
    through: dict[str, int] = {}    # node -> its cost plus its longest tail
    plans, successors = g._plans, g._successors
    for n in below:
        through[n] = plans[n].price(counts) + max([through[m] for m in successors[n]], default=0)
    return max([through[m] for m in successors[node]], default=0)


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
    return from_json(PipelineGraph, obj, "pipeline", PIPELINE_FORMAT, PipelineError, _SCHEMA)


def pipeline_to_json(g: PipelineGraph) -> dict:
    return to_json(g, PIPELINE_FORMAT, _SCHEMA)


def load_pipeline(path) -> PipelineGraph:
    return load_json(path, pipeline_from_json, PipelineError)


def save_pipeline(g: PipelineGraph, path):
    save_json(pipeline_to_json(g), path)
