"""Per-layer call tracing by wrapping avpipesim's functions at run time.

A layer is a module of `src/avpipesim/`. Every public module-level
function of a layer, a few methods, and every event handler passed to
`EventQueue.schedule` are wrapped. The wrapper counts calls and charges
the call's duration, minus the wrapped calls nested in it, to the layer
as self time. `RunTrace.to_ndjson` is charged to a layer of its own,
`trace`, so that serialization does not hide inside the engine's
simulation time.

Modules bind many of these names with `from ... import`, and some
functions call themselves or each other through their own module's
globals, so every loaded module that binds a wrapped object gets the
wrapper. Nothing under `src/` is edited.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("scenario", "safety", "pipeline", "mitigation", "engine", "simkernel",
          "analysis", "config", "cli")

# (module, class, method) wrapped besides the public module functions
METHODS = (
    ("engine", "Simulation", "ego_state"),
    ("engine", "RunTrace", "to_ndjson"),
    ("pipeline", "Channel", "offer"),
    ("pipeline", "Channel", "take"),
    ("pipeline", "Channel", "peek_latest"),
    ("pipeline", "PipelineGraph", "consumers_of"),
    ("pipeline", "PipelineGraph", "successors"),
    ("simkernel", "EventQueue", "run_until"),
    ("simkernel", "EventQueue", "cancel"),
    ("simkernel", "StreamFactory", "stream"),
)

# private functions that mark a layer boundary the metrics need
PRIVATE = (("cli", "_write_run_outputs"),)


class Tracer:
    """Counts and self times per wrapped function, for one process."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self.self_ns: defaultdict = defaultdict(int)
        self.counts: Counter = Counter()
        self._stack = [0]          # time covered by children, per open call
        self._depth = Counter()
        self._patched: list = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, layer: str, key: str, fn, pre=None, post=None):
        calls, incl, selfns, stack = self.calls, self.incl_ns, self.self_ns, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if pre is not None:
                pre(args)
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                child = stack.pop()
                selfns[layer] += d - child
                stack[-1] += d
                incl[key] += d
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def _timed_action(self, action):
        """Event handler wrapper: engine self time plus one kernel event."""
        counts, selfns, stack = self.counts, self.self_ns, self._stack
        clock = time.perf_counter_ns

        def handler():
            counts["simkernel.events"] += 1
            stack.append(0)
            t0 = clock()
            try:
                action()
            finally:
                d = clock() - t0
                selfns["engine"] += d - stack.pop()
                stack[-1] += d

        return handler

    def _hooks(self, key: str):
        """Extra counters for a few functions: (pre, post)."""
        c = self.counts
        if key == "scenario.visible_agents":
            return None, lambda a, r: c.update({"scenario.objects_visible": len(r)})
        if key == "safety.check_safety":
            def post(a, r):
                if r.lateral_gap_m > 0:
                    c["safety.check_safety.lateral"] += 1
            return None, post
        if key == "pipeline.downstream_estimate":
            depth = self._depth

            def pre(a):
                if depth[key] == 0:
                    c["pipeline.downstream_estimate.top"] += 1
                depth[key] += 1

            def post(a, r):
                depth[key] -= 1
            return pre, post
        if key == "pipeline.Channel.offer":
            def pre(a):
                ch = a[0]
                if ch.policy.value == "latest" and ch.queued:
                    c["pipeline.superseded"] += 1
            return pre, None
        if key == "pipeline.Channel.take":
            def post(a, r):
                if r is not None:
                    c["pipeline.take_hits"] += 1
            return None, post
        if key == "mitigation.choose_path":
            def post(a, r):
                if r.value == "fastpath":
                    c["mitigation.fastpath"] += 1
            return None, post
        if key == "mitigation.steal_admission":
            def post(a, r):
                if r:
                    c["mitigation.steal_admitted"] += 1
            return None, post
        if key == "simkernel.EventQueue.cancel":
            def post(a, r):
                if r:
                    c["simkernel.cancelled"] += 1
            return None, post
        return None, None

    def install(self):
        """Wrap every target in every module that binds it."""
        mods = {name: sys.modules[f"avpipesim.{name}"] for name in LAYERS}
        replace: dict[int, object] = {}
        for layer, mod in mods.items():
            names = [n for n, obj in vars(mod).items()
                     if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                     and not n.startswith("_")]
            names += [n for lay, n in PRIVATE if lay == layer]
            for name in names:
                fn = getattr(mod, name)
                key = f"{layer}.{name}"
                replace[id(fn)] = (fn, self._wrap(layer, key, fn, *self._hooks(key)))
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name)
            fn = cls.__dict__[meth]
            key = f"{layer}.{cls_name}.{meth}"
            charged = "trace" if key == "engine.RunTrace.to_ndjson" else layer
            self._set(cls, meth, self._wrap(charged, key, fn, *self._hooks(key)))

        queue_cls = mods["simkernel"].EventQueue
        schedule = self._wrap("simkernel", "simkernel.EventQueue.schedule",
                              queue_cls.__dict__["schedule"])
        timed = self._timed_action

        def schedule_timed(queue, fire_at, action):
            return schedule(queue, fire_at, timed(action))

        self._set(queue_cls, "schedule", schedule_timed)

        for mod in list(sys.modules.values()):
            space = getattr(mod, "__dict__", None)
            if not isinstance(space, dict):
                continue
            for name, obj in list(space.items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])

    def _set(self, owner, name, value):
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, value in reversed(self._patched):
            setattr(owner, name, value)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer counts, ratios and self times, by metric name."""
        calls, c = self.calls, self.counts

        def frac(num, den):
            return num / den if den else 0.0

        out = {f"{layer}.self_s": self.self_ns[layer] / 1e9 for layer in LAYERS}
        out.update({
            "scenario.agent_state_at.calls": calls["scenario.agent_state_at"],
            "scenario.visible_agents.calls": calls["scenario.visible_agents"],
            "scenario.objects_visible": c["scenario.objects_visible"],
            "safety.check_safety.calls": calls["safety.check_safety"],
            "safety.check_safety.lateral_frac": frac(
                c["safety.check_safety.lateral"], calls["safety.check_safety"]),
            "safety.object_deadline.calls": calls["safety.object_deadline"],
            "safety.reaction_budget.calls": calls["safety.reaction_budget"],
            "engine.to_ndjson_s": self.self_ns["trace"] / 1e9,
            "cli.write_s": self.incl_ns["cli._write_run_outputs"] / 1e9,
            "cli.load_s": sum(self.incl_ns[k] for k in (
                "config.load_config", "scenario.load_scenario",
                "pipeline.load_pipeline")) / 1e9,
            "pipeline.downstream_estimate.calls": c["pipeline.downstream_estimate.top"],
            "pipeline.downstream_estimate.visits": calls["pipeline.downstream_estimate"],
            "pipeline.consumers_of.calls": calls["pipeline.PipelineGraph.consumers_of"],
            "pipeline.predict_latency.calls": calls["pipeline.predict_latency"],
            "pipeline.sample_latency.calls": calls["pipeline.sample_latency"],
            "pipeline.fusion_update.calls": calls["pipeline.fusion_update"],
            "pipeline.channel_offers": calls["pipeline.Channel.offer"],
            "pipeline.take_hit_frac": frac(c["pipeline.take_hits"],
                                           calls["pipeline.Channel.take"]),
            "pipeline.superseded": c["pipeline.superseded"],
            "mitigation.choose_path.calls": calls["mitigation.choose_path"],
            "mitigation.fastpath_frac": frac(c["mitigation.fastpath"],
                                             calls["mitigation.choose_path"]),
            "mitigation.partial_update.calls": calls["mitigation.partial_update"],
            "mitigation.steal_admission.calls": calls["mitigation.steal_admission"],
            "mitigation.steal_admit_frac": frac(c["mitigation.steal_admitted"],
                                                calls["mitigation.steal_admission"]),
            "mitigation.proactive_credit.calls": calls["mitigation.proactive_credit"],
            "engine.ego_state.calls": calls["engine.Simulation.ego_state"],
            "simkernel.events": c["simkernel.events"],
            "simkernel.cancelled": c["simkernel.cancelled"],
        })
        return out

    def timed_self_s(self) -> float:
        """Self time summed over every layer, serialization included."""
        return sum(self.self_ns.values()) / 1e9
