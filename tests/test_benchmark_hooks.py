"""The names perfbench's tracer wraps, checked without running the benchmark.

perfbench/tracer.py wraps a list of methods by their entry in the class
`__dict__`, replaces `EventQueue.schedule` with a three-argument
`schedule_timed(queue, fire_at, action)`, and perfbench/checks.py digests
trace records through `vars()`. A renamed method, a changed `schedule`
signature or a slotted record would otherwise show only in the traced
benchmark pass.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from avpipesim.simkernel import EventQueue
from avpipesim.trace import FrameRecord, ReactionRecord, Span

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()


@pytest.mark.parametrize("layer, cls_name, meth", [
    *TRACER.METHODS, ("simkernel", "EventQueue", "schedule"),
    ("simkernel", "EventQueue", "run_until")], ids=lambda x: x)
def test_every_wrapped_method_is_in_its_class_dict(layer, cls_name, meth):
    cls = getattr(importlib.import_module(f"avpipesim.{layer}"), cls_name)
    assert inspect.isfunction(cls.__dict__.get(meth)), f"{layer}.{cls_name}.{meth}"


def test_every_private_boundary_exists():
    for layer, name in TRACER.PRIVATE:
        assert inspect.isfunction(getattr(importlib.import_module(f"avpipesim.{layer}"), name))


def test_schedule_takes_a_time_and_an_action():
    queue, fired = EventQueue(), []
    inspect.signature(EventQueue.schedule).bind(queue, 5, lambda: None)
    EventQueue.schedule(queue, 5, lambda: fired.append(queue.clock))
    queue.run_until(10)
    assert fired == [5]


def test_trace_records_have_an_instance_dict():
    records = [Span("n", 0, 0, 5, "g/0", 0),
               FrameRecord(0, 0, 5, 5, 5, 0, "n", "normal", False, False),
               ReactionRecord(0, "a", "h", False)]
    for record in records:
        assert isinstance(vars(record), dict) and vars(record)
