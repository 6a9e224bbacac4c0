"""Simulation engine.

Runs a scenario through a pipeline graph on the event kernel: sensor
emission, node triggering per execution pattern, queuing on processor
groups, mitigation hooks, control application to the ego, and the
reaction-time decomposition T1 - T0 = t_sensor + t_module + t_bubble.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii
from typing import Iterator, Optional

import numpy as np

from . import mitigation as mit
from .jsonio import InputError, check_min, read_record, refuse_constant
from .mitigation import MitigationConfig, PathChoice
from .pipeline import (Channel, CompiledGraph, ExecutionPattern, FrameMessage,
                       LatencyModel, NodeRole, NodeSpec, ObjectTrack,
                       PipelineGraph, downstream_estimate, fusion_update,
                       kind_counts, predict_latency, sample_latency, validate_graph)
from .safety import RssParams, SafetyLevel, check_safety_many, object_deadline
from .scenario import (MAX_MAGNITUDE, AgentState, CompiledTrajectory, Scenario,
                       TrajectorySpec, World)
from .simkernel import EventQueue, StreamFactory


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


@dataclass
class SafetySample:
    t_us: int
    agent_id: str
    level: str
    lon_gap_m: float
    lat_gap_m: float


@dataclass
class ClosestApproach:
    """An agent's smallest longitudinal gap >= 0 and when it first occurred."""
    agent_id: str
    t_us: int
    lon_gap_m: float


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


_SAFE = SafetyLevel.SAFE.value


class _Task:
    __slots__ = ("node", "ready_us", "inputs", "residual_objects")

    def __init__(self, node: str, ready_us: int, inputs=None, residual_objects=None):
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
        self.graph = graph
        self._net = CompiledGraph(graph)
        self._channels = {cid: Channel(cid, ch.policy, ch.capacity)
                          for cid, ch in graph.channels.items()}
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
        self._home = {n: self.groups[g] for n, g in pinned.items()}
        # per node, the groups its work may be stolen into, in trial order
        self._steal_hosts = {n: tuple(grp for name, grp in sorted(self.groups.items())
                                      if name != g)
                             for n, g in pinned.items()}
        # each stream is seeded by (seed, crc32(its name)), so making them
        # all up front leaves every draw as it was
        self._latency_streams = {n: self.streams.stream(f"latency/{n}")
                                 for n in graph.nodes}
        # node -> _predict_next's result; an entry is dropped whenever one
        # of the node's input channels is offered to or taken from
        self._predicted: dict[str, int] = {}

        self._ego = CompiledTrajectory(TrajectorySpec(initial=scenario.ego_initial))
        periods = [n.period_us for n in graph.nodes.values()
                   if n.pattern == ExecutionPattern.TIMING and n.role == NodeRole.SENSOR]
        self._world = World(scenario.agents, [config.tick_us, *periods], scenario.duration_us)
        # per agent, the smallest rounded lon_gap_m >= 0 so far and its first time
        self._closest_gap = np.full(len(scenario.agents), math.inf)
        self._closest_t = np.zeros(len(scenario.agents), dtype=np.int64)
        # per fusion node: its a-of-n history and the newest track of each id in it
        self._fusion: dict[str, tuple[dict[str, list[bool]], dict[str, ObjectTrack]]] = {}
        self._proactive_arrival: dict[str, Optional[int]] = {}
        # per sensor frame seq: its capture time and object ids
        self._capture_index: list[tuple[int, tuple[str, ...]]] = []
        # per trace.frames entry: the output's lineage and object ids; not
        # the message, whose objects would then all stay alive
        self._frame_lineage: list[tuple[dict, tuple[str, ...]]] = []

        from .scenario import scenario_to_json
        digest_src = json.dumps(scenario_to_json(scenario), sort_keys=True)
        import hashlib
        self.trace = RunTrace(
            scenario_digest=hashlib.sha256(digest_src.encode()).hexdigest()[:16],
            seed=seed, duration_us=scenario.duration_us,
            worker_count_by_group={g.name: g.worker_count for g in groups})
        self.ego_segments = self.trace.ego_segments

        terminals = [n for n, s in graph.nodes.items() if s.role == NodeRole.CONTROL]
        self._terminal_nodes = set(
            terminals or [n for n in graph.nodes if not self._net.successors(n)])

    # -- ego kinematics ----------------------------------------------------

    def ego_state(self, t_us: int) -> AgentState:
        return self._ego.state_at(t_us)

    def apply_control(self, decision: str, level: float, decided_us: int):
        """Append an acceleration segment at decision time + actuation delay."""
        if decision == "hold":
            return
        t_eff = decided_us + self.config.actuation_delay_us
        if self.ego_segments and t_eff <= self.ego_segments[-1][0]:
            t_eff = self.ego_segments[-1][0] + 1
        if decision == "brake":
            self.ego_segments.append((t_eff, level))
            self._ego.append(t_eff, level)

    # -- run loop ----------------------------------------------------------

    def run(self) -> RunTrace:
        for name in sorted(self.graph.nodes):
            spec = self.graph.nodes[name]
            if spec.pattern == ExecutionPattern.TIMING:
                self._at(0, self._on_tick, name)
        self._at(0, self._on_safety_tick)
        self.queue.run_until(self.scenario.duration_us)
        found = np.flatnonzero(self._closest_gap < math.inf)
        ids = self._world.agents.ids
        self.trace.closest = [
            ClosestApproach(ids[i], t, gap)
            for i, t, gap in zip(found.tolist(), self._closest_t[found].tolist(),
                                 self._closest_gap[found].tolist())]
        for g in self.groups.values():
            self.trace.busy_us_by_group[g.spec.name] = g.busy_us
        for t0, agent_id, label in self.scenario.hazard_events:
            self.trace.reactions.append(self._measure_reaction(t0, agent_id, label))
        return self.trace

    def _at(self, t: int, handler, *args):
        """Schedule handler(*args, t) at t, unless t is past the horizon."""
        if t <= self.scenario.duration_us:
            self.queue.schedule(t, lambda: handler(*args, t))

    def _on_tick(self, node: str, t: int):
        spec = self.graph.nodes[node]
        if spec.role == NodeRole.SENSOR:
            self._capture(node, t)
        else:
            grp = self._home[node]
            grp.ready.append(_Task(node, ready_us=t))
            self._dispatch(grp)
        self._at(t + spec.period_us, self._on_tick, node)

    def _on_safety_tick(self, t: int):
        ego = self.ego_state(t)
        world = self._world.agents
        s, v, a = self._world.at(t)
        levels, lon, lat = check_safety_many(ego, s, world.l_m, v, a, self.config.rss,
                                             self.scenario.d_buffer_m)
        gaps = _round6(lon)
        closer = (gaps >= 0) & (gaps < self._closest_gap)
        self._closest_gap[closer] = gaps[closer]
        self._closest_t[closer] = t
        if levels.count(_SAFE) < len(levels):
            unsafe = [i for i, level in enumerate(levels) if level != _SAFE]
            self.trace.safety_samples.extend(
                SafetySample(t, world.ids[i], levels[i], lon_gap, lat_gap)
                for i, lon_gap, lat_gap in zip(unsafe, gaps[unsafe].tolist(),
                                               _round6(lat[unsafe]).tolist()))
        self._at(t + self.config.tick_us, self._on_safety_tick)

    # -- sensing -----------------------------------------------------------

    def _capture(self, node: str, t: int):
        spec = self.graph.nodes[node]
        ego, world, rss = self.ego_state(t), self._world.agents, self.config.rss
        # visible_agents plus object_deadline; a laterally clear agent's deadline is the cap
        s, v, a = self._world.at(t)
        seen = np.flatnonzero((world.visible_from_us <= t)
                              & (np.abs(s - ego.s_m) <= self.config.sensor_range_m))
        clear = (np.abs(world.l_m[seen] - ego.l_m) - rss.lateral_mu_m > 0).tolist()
        s, v, a, seen = s[seen].tolist(), v[seen].tolist(), a[seen].tolist(), seen.tolist()
        cap = self.config.mitigation.deadline_cap_us
        objects = []
        for j, i in enumerate(seen):
            dl, capped = (t + cap, True) if clear[j] else object_deadline(
                t, ego, AgentState(s[j], world.l_list[i], v[j], a[j]),
                self.scenario.d_buffer_m, rss, deadline_cap_us=cap)
            objects.append(ObjectTrack(world.ids[i], world.kinds[i], s[j], dl, capped))
        seq = len(self._capture_index)
        self._capture_index.append((t, tuple(o.agent_id for o in objects)))
        msg = FrameMessage(created_ts=t, objects=tuple(objects), lineage={seq: (t, 0)})
        if _model_is_zero(spec.latency):
            self._emit(node, msg)
        else:
            grp = self._home[node]
            grp.ready.append(_Task(node, ready_us=t, inputs=[msg]))
            self._dispatch(grp)

    # -- scheduling --------------------------------------------------------

    def _dispatch(self, grp: _GroupState):
        ready = grp.ready
        while ready:
            widx = grp.free_worker()
            if widx is None:
                return
            self._start_task(ready.popleft(), grp, widx)

    def _pull_inputs(self, spec: NodeSpec) -> list[FrameMessage]:
        msgs = []
        for ch_id in spec.inputs:
            m = self._channels[ch_id].take()
            if m is not None:
                msgs.append(m)
                for consumer in self._net.consumers[ch_id]:
                    self._predicted.pop(consumer, None)
        return msgs

    def _start_task(self, task: _Task, grp: _GroupState, widx: int):
        now = self.queue.clock
        node, inputs = task.node, task.inputs
        spec = self.graph.nodes[node]
        if inputs is None:
            inputs = task.inputs = self._pull_inputs(spec)
            if not inputs and spec.inputs:
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
        if (not is_residual and cfg.fastpath and spec.supports_fastpath):
            est = downstream_estimate(self._net, node, counts)
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
        duration = sample_latency(model, counts, lookahead, len(objects),
                                  self._latency_streams[node])

        if cfg.proactive and spec.proactive_cost_us > 0 and not is_residual:
            arrival = self._proactive_arrival.get(node)
            if arrival is not None:
                credit = mit.proactive_credit(spec.proactive_cost_us, arrival, now,
                                              cancelled=cfg.cancel_proactive_every_frame)
                duration = max(1, duration - credit)
            self._proactive_arrival[node] = None

        end = grp.ends[widx] = now + duration
        # busy time within the run: a span may end after the horizon
        grp.busy_us += min(end, self.scenario.duration_us) - now
        guest = self._home[node] is not grp
        span = Span(node=node, frame_seq=max((m.seq for m in inputs), default=-1),
                    start_us=now, end_us=end,
                    worker=grp.worker_names[widx], ready_us=task.ready_us,
                    path=path.value, guest=guest, residual=is_residual)
        self.trace.spans.append(span)
        if not guest and end - task.ready_us > grp.spec.budget_us:
            self.trace.budget_violations += 1

        self.queue.schedule(end, lambda: self._finish_task(
            task, grp, widx, span, objects, residual, duration))

    def _finish_task(self, task: _Task, grp: _GroupState, widx: int, span: Span,
                     objects, residual, duration: int):
        now = self.queue.clock
        grp.ends[widx] = None
        node, inputs = task.node, task.inputs
        spec = self.graph.nodes[node]
        out_objects = self._transform_objects(spec, objects)
        msg = FrameMessage(
            created_ts=now, objects=out_objects,
            partial=(span.path == PathChoice.FASTPATH or span.residual),
            lineage=_advance_lineage(inputs, duration))

        deliver = True
        if span.residual and not mit.residual_needs_downstream(objects):
            deliver = False
        if spec.role == NodeRole.CONTROL:
            self._decide(msg, now)
        if node in self._terminal_nodes:
            self._record_terminal(msg, span)
        if deliver:
            self._emit(node, msg)

        if residual:
            self._home[node].ready.append(_Task(
                node, ready_us=now, inputs=inputs, residual_objects=tuple(residual)))

        for g in self.groups.values():
            if g.ready:
                self._dispatch(g)

    def _transform_objects(self, spec: NodeSpec, objects):
        if spec.role != NodeRole.FUSION or spec.fusion is None:
            return tuple(objects)
        hist, tracks = self._fusion.get(spec.name, ({}, {}))
        seen = {o.agent_id: o for o in objects}
        published, hist = fusion_update(spec.fusion, hist, set(seen))
        # an id stays in the history only while it was detected in the window
        tracks = {oid: seen[oid] if oid in seen else tracks[oid] for oid in hist}
        self._fusion[spec.name] = hist, tracks
        return tuple(tracks[oid] for oid in sorted(published))

    def _emit(self, node: str, msg: FrameMessage):
        nodes, predicted = self.graph.nodes, self._predicted
        proactive = self.config.mitigation.proactive
        for ch_id in nodes[node].outputs:
            self._channels[ch_id].offer(msg)
            for consumer in self._net.consumers[ch_id]:
                predicted.pop(consumer, None)
                cspec = nodes[consumer]
                if (proactive and cspec.proactive_cost_us > 0
                        and self._proactive_arrival.get(consumer) is None):
                    self._proactive_arrival[consumer] = self.queue.clock
                if cspec.pattern == ExecutionPattern.INTERRUPT:
                    self._trigger_interrupt(consumer)

    def _trigger_interrupt(self, node: str):
        grp = self._home[node]
        task = _Task(node, ready_us=self.queue.clock)
        if grp.free_worker() is not None:
            grp.ready.append(task)
            self._dispatch(grp)
            return
        if self.config.mitigation.stealing and self._try_steal(node, task):
            return
        grp.ready.append(task)

    def _predict_next(self, node: str) -> int:
        """Predicted cost of node's next run, from the message its next
        take() pops from each input: the head, which on a latest-only
        channel is the only message. Memoized until one of those inputs
        changes."""
        cost = self._predicted.get(node)
        if cost is None:
            spec = self.graph.nodes[node]
            preview = [q[0] for q in (self._channels[c].queued for c in spec.inputs) if q]
            cost = self._predicted[node] = predict_latency(
                spec.latency, kind_counts(_merge_objects(preview)), spec.lookahead_m)
        return cost

    def _try_steal(self, node: str, task: _Task) -> bool:
        now = self.queue.clock
        cost = None
        for host in self._steal_hosts[node]:
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


def _round6(x: np.ndarray) -> np.ndarray:
    """round(v, 6) of every element of x, mostly computed in numpy.

    round() is correctly rounded: the integer nearest x * 10**6, ties to
    even, divided by 10**6. rint(x * 1e6) / 1e6 gives the same float
    whenever the product's rounding error (below 2**-14 for |x| < 2**20)
    cannot carry it across a half-way point, and IEEE division of two
    exact doubles is correctly rounded. The few values near a half-way
    point, and huge or non-finite ones, go through round() itself.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = x * 1e6
        exact = (np.abs(x) < 2.0 ** 20) & (np.abs(scaled - np.floor(scaled) - 0.5) > 2.0 ** -12)
        out = np.rint(scaled) / 1e6
    if not exact.all():
        raw = x.tolist()
        for i in np.flatnonzero(~exact).tolist():
            out[i] = round(raw[i], 6)
    return out


def _model_is_zero(m: LatencyModel) -> bool:
    return (m.offset_us == 0 and not m.per_kind_cost_us
            and m.noise.kind.value == "none" and m.contention is None
            and m.lookahead_cost_us_per_m == 0.0)


def _merge_objects(msgs) -> tuple[ObjectTrack, ...]:
    """Union of input objects, newest message wins per agent id, sorted
    by agent id."""
    best: dict[str, ObjectTrack] = {}
    # a stable sort by age, so on equal created_ts the later input wins
    for m in sorted(msgs, key=lambda m: m.created_ts):
        for o in m.objects:
            best[o.agent_id] = o
    return tuple(best[aid] for aid in sorted(best))


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
