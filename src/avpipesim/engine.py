"""Simulation engine.

Runs a scenario through a pipeline graph on the event kernel: sensor
emission, node triggering per execution pattern, queuing on processor
groups, mitigation hooks, control application to the ego, and the
reaction-time decomposition T1 - T0 = t_sensor + t_module + t_bubble.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Iterator, Optional

from . import mitigation as mit
from .jsonio import InputError, check_min, read_record, refuse_constant
from .mitigation import MitigationConfig, PathChoice
from .pipeline import (Channel, CompiledGraph, ExecutionPattern, FrameMessage, NodeRole,
                       NodeSpec, NoiseKind, ObjectTrack, PipelineGraph,
                       downstream_estimate, fusion_update, kind_counts, predict_latency,
                       sample_latency, validate_graph)
from .safety import RssParams
from .scenario import (MAX_MAGNITUDE, AgentState, CompiledTrajectory, Scenario, ScenarioError,
                       TrajectorySpec, scenario_to_json)
from .simkernel import EventQueue, StreamFactory
from .world import ClosestApproach, SafetySample, World


class EngineError(InputError):
    """A group, engine config or pinning that no run can use."""


@dataclass(frozen=True)
class ProcessorGroup:
    name: str
    worker_count: int
    pinned_nodes: tuple[str, ...]
    budget_us: int = 1_000_000_000

    def __post_init__(self):
        check_min(self, 1, "worker_count", error=EngineError)
        check_min(self, 0, "budget_us", error=EngineError)


@dataclass(frozen=True)
class EngineConfig:
    tick_us: int = 100_000
    sensor_range_m: float = 60.0
    actuation_delay_us: int = 20_000
    response_margin_us: int = 600_000
    brake_level_mps2: float = -6.0
    mitigation: MitigationConfig = MitigationConfig()
    rss: RssParams = RssParams()

    def __post_init__(self):
        check_min(self, 1, "tick_us", error=EngineError)
        check_min(self, 0, "actuation_delay_us", "sensor_range_m", "response_margin_us",
                  error=EngineError)
        if not -MAX_MAGNITUDE <= self.brake_level_mps2 <= 0:    # NaN fails too
            raise EngineError(f"brake_level_mps2: expected in [-{MAX_MAGNITUDE:g}, 0], "
                              f"got {self.brake_level_mps2}")


@dataclass
class Span:
    node: str
    frame_seq: int
    start_us: int
    end_us: int
    worker: str
    ready_us: int
    path: str = "normal"
    guest: bool = False
    residual: bool = False


@dataclass
class FrameRecord:
    seq: int                # newest sensor frame feeding this output
    sensor_ts: int
    done_ts: int
    e2e_us: int
    module_us: int
    bubble_us: int
    terminal: str
    path: str
    has_critical: bool
    partial: bool


@dataclass
class ReactionRecord:
    hazard_ts: int          # T0
    agent_id: str
    label: str
    reacted: bool
    decision_ts: int = 0    # T1
    t_sensor_us: int = 0
    t_module_us: int = 0
    t_bubble_us: int = 0
    path: str = "normal"


class TraceError(ValueError):
    """A trace file failed to parse; lineno is the offending line."""

    def __init__(self, lineno: int, message: str):
        super().__init__(message)
        self.lineno = lineno


TRACE_FORMAT = 2


@dataclass
class RunTrace:
    """One run's records. safety_samples holds the non-safe samples only;
    closest holds, in scenario agent order, each agent's closest approach
    over every sample, safe or not."""
    scenario_digest: str
    seed: int
    duration_us: int
    spans: list[Span] = field(default_factory=list)
    frames: list[FrameRecord] = field(default_factory=list)
    reactions: list[ReactionRecord] = field(default_factory=list)
    safety_samples: list[SafetySample] = field(default_factory=list)
    closest: list[ClosestApproach] = field(default_factory=list)
    ego_segments: list[tuple[int, float]] = field(default_factory=list)
    busy_us_by_group: dict[str, int] = field(default_factory=dict)
    worker_count_by_group: dict[str, int] = field(default_factory=dict)
    budget_violations: int = 0
    steals_admitted: int = 0
    steals_rejected: int = 0

    def e2e_samples(self) -> list[int]:
        return [f.e2e_us for f in self.frames]

    def busy_fraction(self) -> float:
        total_workers = sum(self.worker_count_by_group.values())
        if total_workers == 0 or self.duration_us == 0:
            return 0.0
        busy = sum(self.busy_us_by_group.values())
        return busy / (total_workers * self.duration_us)

    def ndjson_lines(self) -> Iterator[str]:
        """The trace as NDJSON (format 2), one newline-terminated line at a
        time; raises ValueError on a non-finite float."""
        encode = _ENCODER.encode
        for s in self.spans:
            yield _span_line(s)
        for f in self.frames:
            yield encode({"type": "frame", **vars(f)}) + "\n"
        for r in self.reactions:
            yield encode({"type": "reaction", **vars(r)}) + "\n"
        for ss in self.safety_samples:
            yield encode({"type": "safety", **vars(ss)}) + "\n"
        for c in self.closest:
            yield encode({"type": "closest", **vars(c)}) + "\n"
        yield encode({"type": "summary", "format": TRACE_FORMAT,
                      **{name: getattr(self, name) for name in _SUMMARY_FIELDS}}) + "\n"

    def to_ndjson(self) -> str:
        return "".join(self.ndjson_lines())

    @classmethod
    def from_ndjson(cls, lines) -> "RunTrace":
        """Read a trace of format 2. lines is the text or an iterable of
        lines, such as an open file. Raises TraceError."""
        if isinstance(lines, str):
            lines = lines.splitlines()
        records = {kind: [] for kind in _RECORD_TYPES}
        lineno = 0
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                obj = _DECODER.decode(line)
            except ValueError as e:     # json.JSONDecodeError is a ValueError
                raise TraceError(lineno, f"malformed JSON: {e}") from None
            kind = obj.pop("type", None) if isinstance(obj, dict) else None
            if kind not in _RECORD_TYPES:
                raise TraceError(lineno, f"unknown trace record type {kind!r}")
            if kind == "summary":
                if records["summary"]:
                    raise TraceError(lineno, "second summary record")
                fmt = obj.pop("format", None)
                if type(fmt) is not int or fmt != TRACE_FORMAT:
                    raise TraceError(lineno, f"unsupported trace format {fmt!r}")
            try:
                records[kind].append(read_record(_RECORD_TYPES[kind], obj, kind, _TRACE_SCHEMA))
            except InputError as e:
                raise TraceError(lineno, str(e)) from None
        if not records["summary"]:
            raise TraceError(lineno, "trace has no summary record")
        trace = records.pop("summary")[0]
        for name, recs in zip(_RECORD_LISTS, records.values()):
            setattr(trace, name, recs)
        return trace


# trace record type -> its dataclass; a summary is a RunTrace without its
# record lists, which hold the other types in this order
_RECORD_TYPES = {"span": Span, "frame": FrameRecord, "reaction": ReactionRecord,
                 "safety": SafetySample, "closest": ClosestApproach, "summary": RunTrace}
_RECORD_LISTS = ("spans", "frames", "reactions", "safety_samples", "closest")
_TRACE_SCHEMA = {RunTrace: dict.fromkeys(_RECORD_LISTS)}     # a jsonio field table
# the RunTrace fields a summary record holds, besides "type" and "format"
_SUMMARY_FIELDS = tuple(f.name for f in fields(RunTrace) if f.name not in _TRACE_SCHEMA[RunTrace])


# every trace field is a primitive, so records encode from vars() directly
_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False)
_DECODER = json.JSONDecoder(parse_constant=refuse_constant)


def _span_line(s: Span) -> str:
    """One span record, formatted as _ENCODER would format it."""
    node, seq, start, end, worker = s.node, s.frame_seq, s.start_us, s.end_us, s.worker
    ready, path, guest, residual = s.ready_us, s.path, s.guest, s.residual
    if not (type(node) is str and type(worker) is str and type(path) is str
            and type(seq) is int and type(start) is int and type(end) is int
            and type(ready) is int and type(guest) is bool and type(residual) is bool):
        return _ENCODER.encode({"type": "span", **vars(s)}) + "\n"
    return (f'{{"end_us": {end!r}, "frame_seq": {seq!r}, '
            f'"guest": {"true" if guest else "false"}, '
            f'"node": {encode_basestring_ascii(node)}, '
            f'"path": {encode_basestring_ascii(path)}, "ready_us": {ready!r}, '
            f'"residual": {"true" if residual else "false"}, "start_us": {start!r}, '
            f'"type": "span", "worker": {encode_basestring_ascii(worker)}}}\n')


class _Node:
    """A node's run plan, built once per run. inputs and outputs hold, per
    channel, the run's Channel and the plans of the consumers it feeds;
    steal_hosts are the groups the node's work may be stolen into, in
    trial order."""
    __slots__ = ("spec", "name", "inputs", "outputs", "home", "steal_hosts", "stream",
                 "interrupt", "fastpath", "proactive", "terminal", "control", "fusion",
                 "zero_latency")

    def __init__(self, spec: NodeSpec, home: "_GroupState", steal_hosts: tuple,
                 stream, cfg: MitigationConfig, terminal: bool):
        self.spec, self.name, self.stream = spec, spec.name, stream
        self.home, self.steal_hosts = home, steal_hosts
        self.interrupt = spec.pattern == ExecutionPattern.INTERRUPT
        self.fastpath = cfg.fastpath and spec.supports_fastpath
        self.proactive = cfg.proactive and spec.proactive_cost_us > 0
        self.terminal = terminal
        self.control = spec.role == NodeRole.CONTROL
        self.fusion = spec.role == NodeRole.FUSION and spec.fusion is not None
        m = spec.latency
        self.zero_latency = (m.offset_us == 0 and not m.per_kind_cost_us
                             and m.noise.kind == NoiseKind.NONE and m.contention is None
                             and m.lookahead_cost_us_per_m == 0.0)


class _Task:
    __slots__ = ("node", "ready_us", "inputs", "residual_objects")

    def __init__(self, node: _Node, ready_us: int, inputs=None, residual_objects=None):
        self.node = node
        self.ready_us = ready_us
        self.inputs = inputs            # pre-bound messages, or None to pull
        self.residual_objects = residual_objects


class _GroupState:
    def __init__(self, spec: ProcessorGroup):
        self.spec = spec
        self.worker_names = tuple(f"{spec.name}/{i}" for i in range(spec.worker_count))
        # per worker, the end of its running task; None while it is free
        self.ends: list[Optional[int]] = [None] * spec.worker_count
        self.ready: deque[_Task] = deque()
        self.busy_us = 0

    def free_worker(self) -> Optional[int]:
        ends = self.ends
        return ends.index(None) if None in ends else None

    def worker_loads(self, now: int) -> list[int]:
        return [0 if end is None else end - now for end in self.ends]


class Simulation:
    """One deterministic run; single-threaded.

    The graph is a spec and is never written: the run keeps its own
    channel queues, so one graph serves any number of runs.
    """

    def __init__(self, scenario: Scenario, graph: PipelineGraph,
                 groups: list[ProcessorGroup], config: EngineConfig, seed: int):
        validate_graph(graph)
        self.scenario = scenario
        self._net = net = CompiledGraph(graph)
        self.config = config
        self.seed = seed
        self.queue = EventQueue()
        self.streams = StreamFactory(seed)

        pinned: dict[str, str] = {}
        for g in groups:
            for n in g.pinned_nodes:
                if n in pinned:
                    raise EngineError(f"node {n} pinned to both {pinned[n]} and {g.name}")
                if n not in graph.nodes:
                    raise EngineError(f"group {g.name} pins unknown node {n!r}")
                pinned[n] = g.name
        for n in graph.nodes:
            if n not in pinned:
                raise EngineError(f"node {n} is not pinned to any group")
        self.groups = {g.name: _GroupState(g) for g in groups}
        hosts = sorted(self.groups.items())
        terminals = ({n for n, s in graph.nodes.items() if s.role == NodeRole.CONTROL}
                     or {n for n in graph.nodes if not net.successors(n)})
        # each stream is seeded by (seed, crc32(its name)), so making them
        # all up front leaves every draw as it was
        self._nodes = {n: _Node(spec, self.groups[pinned[n]],
                                tuple(grp for name, grp in hosts if name != pinned[n]),
                                self.streams.stream(f"latency/{n}"), config.mitigation,
                                n in terminals)
                       for n, spec in graph.nodes.items()}
        # the run's own queue per channel, with the plans of its consumers
        ports = {cid: (Channel(cid, ch.policy, ch.capacity),
                       tuple(self._nodes[m] for m in net.consumers[cid]))
                 for cid, ch in graph.channels.items()}
        for node in self._nodes.values():
            node.inputs = tuple(ports[c] for c in node.spec.inputs)
            node.outputs = tuple(ports[c] for c in node.spec.outputs)
        # node -> _predict_next's result; an entry is dropped whenever one
        # of the node's input channels is offered to or taken from
        self._predicted: dict[_Node, int] = {}

        self._ego = CompiledTrajectory(TrajectorySpec(initial=scenario.ego_initial))
        periods = [n.period_us for n in graph.nodes.values()
                   if n.pattern == ExecutionPattern.TIMING and n.role == NodeRole.SENSOR]
        self._world = World(scenario, [config.tick_us, *periods], config.sensor_range_m,
                            config.rss)
        # per fusion node: its a-of-n history and the newest track of each id in it
        self._fusion: dict[_Node, tuple[dict[str, list[bool]], dict[str, ObjectTrack]]] = {}
        self._proactive_arrival: dict[_Node, Optional[int]] = {}
        # per sensor frame seq: its capture time and object ids
        self._capture_index: list[tuple[int, tuple[str, ...]]] = []
        # per trace.frames entry: the output's lineage and object ids; not
        # the message, whose objects would then all stay alive
        self._frame_lineage: list[tuple[dict, tuple[str, ...]]] = []

        digest_src = json.dumps(scenario_to_json(scenario), sort_keys=True)
        self.trace = RunTrace(
            scenario_digest=hashlib.sha256(digest_src.encode()).hexdigest()[:16],
            seed=seed, duration_us=scenario.duration_us, ego_segments=self._ego.segments,
            worker_count_by_group={g.name: g.worker_count for g in groups})
        self.ego_segments = self._ego.segments

    # -- ego kinematics ----------------------------------------------------

    def ego_state(self, t_us: int) -> AgentState:
        try:
            return self._ego.state_at(t_us)
        except ScenarioError as e:      # derived past MAX_MAGNITUDE
            raise InputError(f"ego at t={t_us} us: {e}") from None

    def apply_control(self, decision: str, level: float, decided_us: int):
        """Append an acceleration segment at decision time + actuation delay."""
        if decision == "hold":
            return
        t_eff = decided_us + self.config.actuation_delay_us
        if self.ego_segments and t_eff <= self.ego_segments[-1][0]:
            t_eff = self.ego_segments[-1][0] + 1
        if decision == "brake":
            self._ego.append(t_eff, level)

    # -- run loop ----------------------------------------------------------

    def run(self) -> RunTrace:
        for _, node in sorted(self._nodes.items()):
            if not node.interrupt:
                self._at(0, self._on_tick, node)
        self._at(0, self._on_safety_tick)
        self.queue.run_until(self.scenario.duration_us)
        self.trace.closest = self._world.closest()
        for g in self.groups.values():
            self.trace.busy_us_by_group[g.spec.name] = g.busy_us
        for t0, agent_id, label in self.scenario.hazard_events:
            self.trace.reactions.append(self._measure_reaction(t0, agent_id, label))
        return self.trace

    def _at(self, t: int, handler, *args):
        """Schedule handler(*args, t) at t, unless t is past the horizon."""
        if t <= self.scenario.duration_us:
            self.queue.schedule(t, lambda: handler(*args, t))

    def _on_tick(self, node: _Node, t: int):
        if node.spec.role == NodeRole.SENSOR:
            self._capture(node, t)
        else:
            node.home.ready.append(_Task(node, ready_us=t))
            self._dispatch(node.home)
        self._at(t + node.spec.period_us, self._on_tick, node)

    def _on_safety_tick(self, t: int):
        self.trace.safety_samples += self._world.safety_tick(t, self.ego_state(t))
        self._at(t + self.config.tick_us, self._on_safety_tick)

    # -- sensing -----------------------------------------------------------

    def _capture(self, node: _Node, t: int):
        objects = self._world.capture(t, self.ego_state(t), self.config.mitigation.deadline_cap_us)
        seq = len(self._capture_index)
        self._capture_index.append((t, tuple(o.agent_id for o in objects)))
        msg = FrameMessage(created_ts=t, objects=objects, lineage={seq: (t, 0)})
        if node.zero_latency:
            self._emit(node, msg)
        else:
            node.home.ready.append(_Task(node, ready_us=t, inputs=[msg]))
            self._dispatch(node.home)

    # -- scheduling --------------------------------------------------------

    def _dispatch(self, grp: _GroupState):
        ready = grp.ready
        while ready:
            widx = grp.free_worker()
            if widx is None:
                return
            self._start_task(ready.popleft(), grp, widx)

    def _start_task(self, task: _Task, grp: _GroupState, widx: int):
        now = self.queue.clock
        node, inputs = task.node, task.inputs
        spec = node.spec
        if inputs is None:
            inputs = task.inputs = []
            for channel, consumers in node.inputs:
                m = channel.take()
                if m is not None:
                    inputs.append(m)
                    for consumer in consumers:
                        self._predicted.pop(consumer, None)
            if not inputs and node.inputs:
                return    # data was superseded (latest-only) or drained

        cfg = self.config.mitigation
        path = PathChoice.NORMAL
        critical = residual = ()
        is_residual = task.residual_objects is not None
        if is_residual:
            objects = task.residual_objects
        else:
            objects = _merge_objects(inputs)

        counts = kind_counts(objects)
        if node.fastpath and not is_residual:
            est = downstream_estimate(self._net, node.name, counts)
            deadline = mit.message_deadline(objects, now, cfg.deadline_cap_us)
            path = mit.choose_path(spec, counts, deadline, now, est)
            if path == PathChoice.FASTPATH:
                ego = self.ego_state(now)
                critical, residual = mit.partial_update(objects, ego,
                                                        cfg.criticality_radius_m)
                objects = critical
                counts = kind_counts(objects)

        if path == PathChoice.FASTPATH:
            model = spec.fast_latency
            lookahead = cfg.fast_lookahead_m if spec.lookahead_m is not None else None
        else:
            model = spec.latency
            lookahead = spec.lookahead_m
        duration = sample_latency(model, counts, lookahead, len(objects), node.stream)

        if node.proactive and not is_residual:
            arrival = self._proactive_arrival.get(node)
            if arrival is not None:
                credit = mit.proactive_credit(spec.proactive_cost_us, arrival, now,
                                              cancelled=cfg.cancel_proactive_every_frame)
                duration = max(1, duration - credit)
            self._proactive_arrival[node] = None

        end = grp.ends[widx] = now + duration
        # busy time within the run: a span may end after the horizon
        grp.busy_us += min(end, self.scenario.duration_us) - now
        guest = node.home is not grp
        lineage = _advance_lineage(inputs, duration)
        span = Span(node=node.name, frame_seq=max(lineage, default=-1),
                    start_us=now, end_us=end,
                    worker=grp.worker_names[widx], ready_us=task.ready_us,
                    path=path.value, guest=guest, residual=is_residual)
        self.trace.spans.append(span)
        if not guest and end - task.ready_us > grp.spec.budget_us:
            self.trace.budget_violations += 1

        self.queue.schedule(end, lambda: self._finish_task(
            task, grp, widx, span, objects, residual, lineage))

    def _finish_task(self, task: _Task, grp: _GroupState, widx: int, span: Span,
                     objects, residual, lineage: dict):
        now = self.queue.clock
        grp.ends[widx] = None
        node = task.node
        msg = FrameMessage(
            created_ts=now, objects=self._transform_objects(node, objects),
            partial=(span.path == PathChoice.FASTPATH or span.residual),
            lineage=lineage)

        deliver = True
        if span.residual and not mit.residual_needs_downstream(objects):
            deliver = False
        if node.control:
            self._decide(msg, now)
        if node.terminal:
            self._record_terminal(msg, span)
        if deliver:
            self._emit(node, msg)

        if residual:
            node.home.ready.append(_Task(
                node, ready_us=now, inputs=task.inputs, residual_objects=tuple(residual)))

        for g in self.groups.values():
            if g.ready and None in g.ends:
                self._dispatch(g)

    def _transform_objects(self, node: _Node, objects):
        if not node.fusion:
            return tuple(objects)
        hist, tracks = self._fusion.get(node, ({}, {}))
        seen = {o.agent_id: o for o in objects}
        published, hist = fusion_update(node.spec.fusion, hist, set(seen))
        # an id stays in the history only while it was detected in the window
        tracks = {oid: seen[oid] if oid in seen else tracks[oid] for oid in hist}
        self._fusion[node] = hist, tracks
        return tuple(tracks[oid] for oid in sorted(published))

    def _emit(self, node: _Node, msg: FrameMessage):
        predicted, arrivals = self._predicted, self._proactive_arrival
        for channel, consumers in node.outputs:
            channel.offer(msg)
            for consumer in consumers:
                predicted.pop(consumer, None)
                if consumer.proactive and arrivals.get(consumer) is None:
                    arrivals[consumer] = self.queue.clock
                if consumer.interrupt:
                    self._trigger_interrupt(consumer)

    def _trigger_interrupt(self, node: _Node):
        grp = node.home
        task = _Task(node, ready_us=self.queue.clock)
        if grp.free_worker() is not None:
            grp.ready.append(task)
            self._dispatch(grp)
            return
        if self.config.mitigation.stealing and self._try_steal(node, task):
            return
        grp.ready.append(task)

    def _predict_next(self, node: _Node) -> int:
        """Predicted cost of node's next run, from the message its next
        take() pops from each input: the head, which on a latest-only
        channel is the only message. Memoized until one of those inputs
        changes."""
        cost = self._predicted.get(node)
        if cost is None:
            spec = node.spec
            preview = [q[0] for q in (channel.queued for channel, _ in node.inputs) if q]
            cost = self._predicted[node] = predict_latency(
                spec.latency, kind_counts(_merge_objects(preview)), spec.lookahead_m)
        return cost

    def _try_steal(self, node: _Node, task: _Task) -> bool:
        now = self.queue.clock
        cost = None
        for host in node.steal_hosts:
            widx = host.free_worker()
            if widx is None:
                continue
            if cost is None:
                cost = self._predict_next(node)
            pending = [self._predict_next(t.node) for t in host.ready]
            if mit.steal_admission(cost, host.worker_loads(now), pending,
                                   host.spec.budget_us,
                                   self.config.mitigation.steal_safety_factor):
                self.trace.steals_admitted += 1
                self._start_task(task, host, widx)
                return True
            self.trace.steals_rejected += 1
        return False

    # -- decisions and measurement ----------------------------------------

    def _decide(self, msg: FrameMessage, now: int):
        margin = self.config.response_margin_us
        urgent = any(o.deadline_us - now < margin for o in msg.objects)
        if urgent:
            self.apply_control("brake", self.config.brake_level_mps2, now)

    def _record_terminal(self, msg: FrameMessage, span: Span):
        origin = msg.seq
        if origin < 0:
            return
        cap_ts, module = msg.lineage[origin]
        e2e = msg.created_ts - cap_ts
        ego = self.ego_state(msg.created_ts)
        radius = self.config.mitigation.criticality_radius_m
        has_critical = any(abs(o.s_m - ego.s_m) <= radius for o in msg.objects)
        self.trace.frames.append(FrameRecord(
            seq=origin, sensor_ts=cap_ts, done_ts=msg.created_ts, e2e_us=e2e,
            module_us=module, bubble_us=e2e - module, terminal=span.node,
            path=span.path, has_critical=has_critical, partial=msg.partial))
        self._frame_lineage.append((msg.lineage, tuple(o.agent_id for o in msg.objects)))

    def _measure_reaction(self, t0: int, agent_id: str, label: str) -> ReactionRecord:
        # captures are indexed in seq order, which is time order
        first_cap_ts = next((cap_ts for cap_ts, ids in self._capture_index
                             if cap_ts >= t0 and agent_id in ids), None)
        if first_cap_ts is None:
            return ReactionRecord(hazard_ts=t0, agent_id=agent_id, label=label,
                                  reacted=False)
        t_sensor = first_cap_ts - t0
        for frame, (lineage, ids) in zip(self.trace.frames, self._frame_lineage):
            if agent_id not in ids:
                continue
            # attribution origin: the earliest post-hazard capture of the
            # agent that actually fed this output (the first capture may
            # have been superseded on a latest-only channel)
            origin = next((seq for seq in sorted(lineage)
                           if lineage[seq][0] >= t0
                           and agent_id in self._capture_index[seq][1]), None)
            if origin is None:
                continue
            t_module = lineage[origin][1]
            t_bubble = (frame.done_ts - t0) - t_sensor - t_module
            return ReactionRecord(hazard_ts=t0, agent_id=agent_id, label=label,
                                  reacted=True, decision_ts=frame.done_ts,
                                  t_sensor_us=t_sensor, t_module_us=t_module,
                                  t_bubble_us=t_bubble, path=frame.path)
        return ReactionRecord(hazard_ts=t0, agent_id=agent_id, label=label,
                              reacted=False)


_BY_AGE, _BY_ID = attrgetter("created_ts"), attrgetter("agent_id")


def _merge_objects(msgs) -> tuple[ObjectTrack, ...]:
    """Union of input objects, newest message wins per agent id, sorted
    by agent id."""
    if len(msgs) == 1:      # most tasks: one input, no agent id twice in it
        objects = msgs[0].objects
        if len(set(map(_BY_ID, objects))) == len(objects):
            return tuple(sorted(objects, key=_BY_ID))
    best: dict[str, ObjectTrack] = {}
    # a stable sort by age, so on equal created_ts the later input wins
    for m in sorted(msgs, key=_BY_AGE):
        for o in m.objects:
            best[o.agent_id] = o
    return tuple(sorted(best.values(), key=_BY_ID))


def _advance_lineage(msgs, duration: int) -> dict:
    """Per origin frame, extend the path through the most recent carrier;
    on a tie the first input carrying it wins."""
    lineage: dict[int, tuple[int, int]] = {}
    carrier: dict[int, int] = {}
    for m in msgs:
        for origin, (cap_ts, module) in m.lineage.items():
            if origin not in lineage or m.created_ts > carrier[origin]:
                lineage[origin] = (cap_ts, module + duration)
                carrier[origin] = m.created_ts
    return lineage


def run_simulation(scenario: Scenario, graph: PipelineGraph,
                   groups: list[ProcessorGroup], config: EngineConfig,
                   seed: int) -> RunTrace:
    """Convenience wrapper: one deterministic run; graph is not modified."""
    return Simulation(scenario, graph, groups, config, seed).run()
