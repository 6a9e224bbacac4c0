"""Simulation engine.

Runs a scenario through a pipeline graph on the event kernel: sensor
emission, node triggering per execution pattern, queuing on processor
groups, mitigation hooks, control application to the ego, and the
reaction-time decomposition T1 - T0 = t_sensor + t_module + t_bubble.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Optional

from . import mitigation as mit
from .jsonio import InputError, check_min
from .mitigation import MitigationConfig, PathChoice
from .pipeline import (Channel, ExecutionPattern, FrameMessage, LatencyPlan, NodeRole,
                       NodeSpec, ObjectTrack, PipelineGraph, downstream_estimate,
                       fusion_update, kind_counts, latency_plan, sample_latency)
from .safety import RssParams
from .scenario import (MAX_MAGNITUDE, MAX_TIME_US, AgentState, CompiledTrajectory, Scenario,
                       TrajectorySpec)
from .simkernel import EventQueue, StreamFactory
from .trace import FrameRecord, ReactionRecord, RunTrace
from .world import World


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
        check_min(self, 0, "actuation_delay_us", error=EngineError, high=MAX_TIME_US)
        check_min(self, 0, "sensor_range_m", "response_margin_us", error=EngineError)
        if not -MAX_MAGNITUDE <= self.brake_level_mps2 <= 0:    # NaN fails too
            raise EngineError(f"brake_level_mps2: expected in [-{MAX_MAGNITUDE:g}, 0], "
                              f"got {self.brake_level_mps2}")


class _Node:
    """A node's run plan and run state, built once per run. inputs holds
    the queue of the run's Channel per input; outputs holds, per output,
    that queue and the plans of the consumers it feeds. steal_hosts are
    the groups the node's work may be stolen into, in trial order.
    last_counts and last_price: the counts dict the normal pass was last
    priced for, by identity (a carried counts dict is never mutated), and
    that price."""
    __slots__ = ("spec", "name", "inputs", "outputs", "home", "steal_hosts", "stream",
                 "interrupt", "fastpath", "proactive", "terminal", "control",
                 "fusion", "latency", "fast_latency", "arrival", "history", "tracks",
                 "last_counts", "last_price")

    def __init__(self, spec: NodeSpec, latency: LatencyPlan, home: "_GroupState",
                 steal_hosts: tuple, stream, cfg: MitigationConfig, terminal: bool):
        self.spec, self.name, self.stream, self.latency = spec, spec.name, stream, latency
        self.home, self.steal_hosts = home, steal_hosts
        self.interrupt = spec.pattern == ExecutionPattern.INTERRUPT
        self.fastpath = cfg.fastpath and spec.supports_fastpath
        self.proactive = cfg.proactive and spec.proactive_cost_us > 0
        self.terminal = terminal
        self.control = spec.role == NodeRole.CONTROL
        self.fusion = spec.role == NodeRole.FUSION and spec.fusion is not None
        self.fast_latency = (None if spec.fast_latency is None else latency_plan(
            spec.fast_latency, None if spec.lookahead_m is None else cfg.fast_lookahead_m))
        self.arrival: Optional[int] = None      # the proactive precompute's start
        # a fusion node's a-of-n history and the newest track of each id it saw
        self.history, self.tracks = {}, {}
        self.last_counts, self.last_price = None, 0


# a task: (its node's plan, ready_us, its pre-bound input messages or None
# to pull them, and for a residual pass the objects left over, else None)
_Task = tuple


class _GroupState:
    """A group's workers and its ready-queue rule, which lives here alone:
    push queues a task, pop takes the next to start, and queued is true
    while work waits. The rule is FIFO, built from a deque's C methods, so
    it adds no Python-level call per task."""
    def __init__(self, spec: ProcessorGroup):
        self.spec, self.budget_us = spec, spec.budget_us
        self.worker_names = tuple(f"{spec.name}/{i}" for i in range(spec.worker_count))
        # per worker, the end of its running task; None while it is free.
        # Between events a group with a free worker has no queued task.
        self.ends: list[Optional[int]] = [None] * spec.worker_count
        self.queued: deque[_Task] = deque()
        self.push, self.pop = self.queued.append, self.queued.popleft
        self.busy_us = 0       # summed durations of the tasks started


class Simulation:
    """One deterministic run; single-threaded.

    The graph is a spec and is never written: the run keeps its own
    channel queues, so one graph serves any number of runs.
    """

    def __init__(self, scenario: Scenario, graph: PipelineGraph,
                 groups: list[ProcessorGroup], config: EngineConfig, seed: int):
        self.scenario, self._graph = scenario, graph
        self.config, self._mit, self._horizon = config, config.mitigation, scenario.duration_us
        self.seed = seed
        self.queue = EventQueue()
        self.streams = StreamFactory(seed)

        pinned: dict[str, str] = {}
        self.groups: dict[str, _GroupState] = {}
        for g in groups:
            if g.name in self.groups:
                raise EngineError(f"duplicate group name: {g.name!r}")
            self.groups[g.name] = _GroupState(g)
            for n in g.pinned_nodes:
                if n in pinned:
                    raise EngineError(f"node {n} pinned to both {pinned[n]} and {g.name}")
                if n not in graph.nodes:
                    raise EngineError(f"group {g.name} pins unknown node {n!r}")
                pinned[n] = g.name
        for n in graph.nodes:
            if n not in pinned:
                raise EngineError(f"node {n} is not pinned to any group")
        hosts = sorted(self.groups.items())
        terminals = ({n for n, s in graph.nodes.items() if s.role == NodeRole.CONTROL}
                     or {n for n in graph.nodes if not graph.successors(n)})
        # each stream is seeded by (seed, crc32(its name)), so making them
        # all up front leaves every draw as it was
        self._nodes = {n: _Node(spec, graph.plan(n), self.groups[pinned[n]],
                                tuple(grp for name, grp in hosts if name != pinned[n]),
                                self.streams.stream(f"latency/{n}"), config.mitigation,
                                n in terminals)
                       for n, spec in graph.nodes.items()}
        # the run's own queue per channel, with the plans of its consumers
        ports = {cid: (Channel(cid, ch.policy, ch.capacity).queued,
                       tuple(self._nodes[m] for m in graph.consumers_of(cid)))
                 for cid, ch in graph.channels.items()}
        for node in self._nodes.values():
            node.inputs = tuple(ports[c][0] for c in node.spec.inputs)
            node.outputs = tuple(ports[c] for c in node.spec.outputs)

        self._ego = CompiledTrajectory(TrajectorySpec(initial=scenario.ego_initial))
        periods = [n.period_us for n in graph.nodes.values() if n.role == NodeRole.SENSOR]
        self._world = World(scenario, [config.tick_us, *periods], config.sensor_range_m,
                            config.rss)
        # per sensor frame seq: its capture time and object ids
        self._capture_index: list[tuple[int, tuple[str, ...]]] = []
        # per trace.frames entry: the output's lineage and object ids; not
        # the message, whose objects would then all stay alive
        self._frame_lineage: list[tuple[dict, tuple[str, ...]]] = []

        self.trace = RunTrace(
            scenario_digest=scenario.digest, seed=seed, duration_us=scenario.duration_us,
            ego_segments=self._ego.segments,
            worker_count_by_group={g.name: g.worker_count for g in groups})
        self.ego_segments = self._ego.segments
        self._ego_now = (-1, None)      # the last (instant, ego state) read
        self._shot = (-1, None, (), (), {})     # the last capture: t, ego, objects, ids, counts

    # -- ego kinematics ----------------------------------------------------

    def ego_state(self, t_us: int) -> AgentState:
        t, state = self._ego_now
        if t != t_us:
            state = self._ego.state_at(t_us)
            self._ego_now = (t_us, state)
        return state

    def apply_control(self, decision: str, level: float, decided_us: int):
        """Append an acceleration segment at decision time + actuation delay.
        A brake never eases a harder deceleration already under way."""
        if decision == "hold":
            return
        t_eff = decided_us + self.config.actuation_delay_us
        if self.ego_segments and t_eff <= self.ego_segments[-1][0]:
            t_eff = self.ego_segments[-1][0] + 1
        if decision == "brake" and t_eff <= MAX_TIME_US:    # a later one is past every horizon
            self._ego.append(t_eff, min(level, self._ego.states[-1][2]))
            self._ego_now = (-1, None)      # exact for any caller, whatever instant it kept

    # -- run loop ----------------------------------------------------------

    def run(self) -> RunTrace:
        for _, node in sorted(self._nodes.items()):
            if not node.interrupt:
                self._at(0, self._on_tick, node)
        self._at(0, self._on_safety_tick)
        self.queue.run_until(self._horizon)
        self.trace.closest = self._world.closest()
        for g in self.groups.values():
            # busy time within the run: a task still running ends after the horizon
            self.trace.busy_us_by_group[g.spec.name] = g.busy_us - sum(
                end - self._horizon for end in g.ends if end is not None)
            # a task still queued never starts; kept, it and its plan's home
            # group would hold each other, and the run's channels, in a cycle
            g.queued.clear()
        for t0, agent_id, label in self.scenario.hazard_events:
            self.trace.reactions.append(self._measure_reaction(t0, agent_id, label))
        return self.trace

    def _at(self, t: int, handler, *args):
        """Schedule handler(*args, t) at t, unless t is past the horizon."""
        if t <= self._horizon:
            self.queue.schedule(t, lambda: handler(*args, t))

    def _on_tick(self, node: _Node, t: int):
        if node.spec.role == NodeRole.SENSOR:
            self._capture(node, t)
        else:
            node.home.push((node, t, None, None))
            self._dispatch(node.home)
        self._at(t + node.spec.period_us, self._on_tick, node)

    def _on_safety_tick(self, t: int):
        self.trace.safety_samples += self._world.safety_tick(t, self.ego_state(t))
        self._at(t + self.config.tick_us, self._on_safety_tick)

    # -- sensing -----------------------------------------------------------

    def _capture(self, node: _Node, t: int):
        ego, shot = self.ego_state(t), self._shot
        if shot[0] != t or shot[1] is not ego:      # else another sensor saw this instant
            objects = self._world.capture(t, ego, self._mit.deadline_cap_us)
            shot = self._shot = (t, ego, objects, tuple(map(_AGENT_ID, objects)),
                                 kind_counts(objects))
        _, _, objects, ids, counts = shot
        seq = len(self._capture_index)
        self._capture_index.append((t, ids))
        msg = _MESSAGE((t, objects, counts, False, {seq: (t, 0)}))
        if node.latency.free:
            self._emit(node, msg)
        else:
            node.home.push((node, t, [msg], None))
            self._dispatch(node.home)

    # -- scheduling --------------------------------------------------------

    def _dispatch(self, grp: _GroupState):
        queued, ends = grp.queued, grp.ends
        while queued and None in ends:
            self._start_task(grp.pop(), grp, ends.index(None))

    def _start_task(self, task: _Task, grp: _GroupState, widx: int, priced=None):
        """priced: a stolen task's (price, objects, counts) from _predict_next."""
        now = self.queue.clock
        node, ready_us, inputs, residual_objects = task
        if inputs is None:
            inputs = []
            for queued in node.inputs:      # the non-empty ones
                if queued:
                    inputs.append(queued.popleft())
            if not inputs and node.inputs:
                return    # data was superseded (latest-only) or drained

        spec, plan = node.spec, node.latency
        single = len(inputs) == 1
        if priced is not None:      # of the heads just taken
            price, objects, counts = priced
        else:
            if residual_objects is not None:
                objects, counts = residual_objects, kind_counts(residual_objects)
            elif single:        # most tasks: one input is its own union, with its counts
                objects, counts = inputs[0].objects, inputs[0].counts
            else:
                objects, counts = _union(inputs)
            if counts is not node.last_counts:
                node.last_counts, node.last_price = counts, plan.price(counts)
            price = node.last_price
        path, residual = "normal", ()
        if node.fastpath and residual_objects is None:
            cfg = self._mit
            est = downstream_estimate(self._graph, node.name, counts)
            deadline = mit.message_deadline(objects, now, cfg.deadline_cap_us)
            if mit.choose_path(spec, price, deadline, now, est) == PathChoice.FASTPATH:
                path, plan = "fastpath", node.fast_latency
                objects, residual = mit.partial_update(objects, self.ego_state(now),
                                                       cfg.criticality_radius_m)
                counts = kind_counts(objects)
                price = plan.price(counts)
        # a conditional, not max(), which packs its two arguments into a tuple
        if plan.draws:
            duration = sample_latency(plan.model, price, len(objects), node.stream)
        elif (duration := round(price)) < plan.model.offset_floor_us:
            duration = plan.model.offset_floor_us

        if node.proactive and residual_objects is None:
            if node.arrival is not None:
                credit = mit.proactive_credit(spec.proactive_cost_us, node.arrival, now,
                                              cancelled=self._mit.cancel_proactive_every_frame)
                duration = max(1, duration - credit)
            node.arrival = None

        end = grp.ends[widx] = now + duration
        grp.busy_us += duration
        guest, residual_pass = node.home is not grp, residual_objects is not None
        if single:
            lineage = {}
            for origin, (cap_ts, module) in inputs[0].lineage.items():
                lineage[origin] = (cap_ts, module + duration)
        else:
            lineage = _advance_lineage(inputs, duration)
        seq = max(lineage) if lineage else -1     # max's keyword would cost a dict per call
        # a span ends by the last int64 instant; one that ends later is past every horizon
        self.trace.spans.add((node.name, grp.worker_names[widx], path, guest, residual_pass),
                             seq, now, end if end <= MAX_TIME_US else MAX_TIME_US, ready_us)
        if not guest and end - ready_us > grp.budget_us:
            self.trace.budget_violations += 1

        # a finish past the horizon would never fire; left out, it leaves the
        # queue empty when run() ends, so nothing in it holds the run
        if end <= self._horizon:
            self.queue.schedule(end, partial(self._finish_task, node, inputs, grp, widx, seq,
                                             path, residual_pass, objects, counts, residual,
                                             lineage))

    def _finish_task(self, node: _Node, inputs: list, grp: _GroupState, widx: int, seq: int,
                     path: str, residual_pass: bool, objects, counts: dict, residual,
                     lineage: dict):
        now = self.queue.clock
        grp.ends[widx] = None
        # a non-fusion node's output objects are its objects, so it passes their counts on
        out = self._fuse(node, objects) if node.fusion else objects
        msg = _MESSAGE((now, out, kind_counts(out) if node.fusion else counts,
                        path == "fastpath" or residual_pass, lineage))

        deliver = not residual_pass or mit.residual_needs_downstream(objects)
        if node.control:
            self._decide(msg, now)
        if node.terminal:
            self._record_terminal(msg, node.name, seq, path)
        if deliver:
            self._emit(node, msg)

        # only this group, and the home of a residual pass, can now hold
        # queued work beside a free worker; groups dispatch in config order
        if residual:
            node.home.push((node, now, inputs, residual))
            for g in self.groups.values():
                self._dispatch(g)
        elif grp.queued and None in grp.ends:
            self._dispatch(grp)

    def _fuse(self, node: _Node, objects):
        seen = dict(zip(map(_AGENT_ID, objects), objects))
        published, node.history = fusion_update(node.spec.fusion, node.history, set(seen))
        # a published id was detected within the window, and its newest
        # detection is its track; ids are scenario agents, so tracks stays small
        tracks = node.tracks
        tracks.update(seen)
        return tuple(map(tracks.__getitem__, sorted(published)))

    def _emit(self, node: _Node, msg: FrameMessage):
        """Queue msg on node's outputs and trigger each interrupt consumer.
        A triggered task may be stolen only when no home worker is free;
        else, or if no host admits it, it is pushed on its home group and
        the group dispatched, in the order of the group's queue rule."""
        now = self.queue.clock
        for queued, consumers in node.outputs:
            queued.append(msg)      # the Channel's rule: its deque's bound
            for consumer in consumers:
                if consumer.proactive and consumer.arrival is None:
                    consumer.arrival = now
                if not consumer.interrupt:
                    continue
                grp, task = consumer.home, (consumer, now, None, None)
                if (None in grp.ends or not self._mit.stealing
                        or not self._try_steal(consumer, task)):
                    grp.push(task)
                    self._dispatch(grp)

    def _predict_next(self, node: _Node) -> tuple:
        """(price, objects, counts) of node's next normal run, from the head
        of each input, the message a start pops (on a latest-only channel, the only one)."""
        heads = []
        for queued in node.inputs:      # no comprehension call, no map or filter object
            if queued:
                heads.append(queued[0])
        objects, counts = (heads[0].objects, heads[0].counts) if len(heads) == 1 else _union(heads)
        if counts is not node.last_counts:
            node.last_counts, node.last_price = counts, node.latency.price(counts)
        return node.last_price, objects, counts

    def _try_steal(self, node: _Node, task: _Task) -> bool:
        now, priced = self.queue.clock, None
        for host in node.steal_hosts:
            ends = host.ends
            if None not in ends or host.queued:     # a guest takes idle capacity only
                continue
            if priced is None:
                priced = self._predict_next(node)
            loads = []      # per worker, its busy time left; a loop makes no Python-level call
            for end in ends:
                loads.append(0 if end is None else end - now)
            if mit.steal_admission(priced[0], loads, host.budget_us, self._mit.steal_safety_factor):
                self.trace.steals_admitted += 1
                self._start_task(task, host, ends.index(None), priced)
                return True
            self.trace.steals_rejected += 1
        return False

    # -- decisions and measurement ----------------------------------------

    def _decide(self, msg: FrameMessage, now: int):
        margin = self.config.response_margin_us
        urgent = any(o.deadline_us - now < margin for o in msg.objects)
        if urgent:
            self.apply_control("brake", self.config.brake_level_mps2, now)

    def _record_terminal(self, msg: FrameMessage, node: str, origin: int, path: str):
        """origin is the task's span's frame_seq, its newest origin."""
        if origin < 0:
            return
        cap_ts, module = msg.lineage[origin]
        e2e = msg.created_ts - cap_ts
        ego = self.ego_state(msg.created_ts)
        radius = self._mit.criticality_radius_m
        has_critical = any(abs(o.s_m - ego.s_m) <= radius for o in msg.objects)
        self.trace.frames.append(FrameRecord(
            seq=origin, sensor_ts=cap_ts, done_ts=msg.created_ts, e2e_us=e2e,
            module_us=module, bubble_us=e2e - module, terminal=node,
            path=path, has_critical=has_critical, partial=msg.partial))
        self._frame_lineage.append((msg.lineage, tuple(map(_AGENT_ID, msg.objects))))

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


_BY_AGE, _AGENT_ID = attrgetter("created_ts"), attrgetter("agent_id")
_MESSAGE = partial(tuple.__new__, FrameMessage)     # a FrameMessage from one field tuple, in C


def _merge_objects(msgs) -> tuple[ObjectTrack, ...]:
    """Union of input objects, newest message wins per agent id."""
    # a stable sort by age, so on equal created_ts the later input wins
    return tuple({o.agent_id: o for m in sorted(msgs, key=_BY_AGE) for o in m.objects}.values())


def _union(msgs) -> tuple:
    """(objects, counts) of the merge of several messages, or of none. Two
    that carry one objects tuple are their own union, with its counts."""
    if len(msgs) == 2 and msgs[1].objects is msgs[0].objects:
        return msgs[0].objects, msgs[0].counts
    objects = _merge_objects(msgs)
    return objects, kind_counts(objects)


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
