"""A run's spans are a SpanLog: five slots a span in one flat list, read
as a sequence of Span records."""

import gc

import pytest

from avpipesim.engine import EngineConfig, run_simulation
from avpipesim.mitigation import MitigationConfig
from avpipesim.simkernel import ms
from avpipesim.trace import RunTrace, Span, SpanLog

from fixtures import av_groups, av_pipeline, traffic_scenario


def spans_alive() -> int:
    gc.collect()
    return sum(type(o) is Span for o in gc.get_objects())


@pytest.fixture(scope="module")
def trace():
    cfg = EngineConfig(mitigation=MitigationConfig(
        fastpath=True, stealing=True, deadline_cap_us=ms(125)))
    return run_simulation(traffic_scenario(12.0, 1, duration_us=ms(4000)), av_pipeline(),
                          av_groups(workers=2), cfg, seed=1)


def test_a_finished_run_holds_no_span_object():
    before = spans_alive()
    cfg = EngineConfig(mitigation=MitigationConfig(fastpath=True, deadline_cap_us=ms(125)))
    done = run_simulation(traffic_scenario(12.0, 2, duration_us=ms(3000)), av_pipeline(),
                          av_groups(workers=2), cfg, seed=2)
    assert len(done.spans) > 100
    assert spans_alive() == before
    # each span of one node on one worker, of one kind of pass, shares its key
    keys = done.spans.slots[::5]
    assert len({id(k) for k in keys}) == len(set(keys)) < 20


def test_spans_read_back_equal_the_run(trace):
    back = RunTrace.from_ndjson(trace.to_ndjson())
    assert isinstance(back.spans, SpanLog)
    assert list(back.spans) == list(trace.spans)
    assert back.spans == trace.spans and back.spans == list(trace.spans)
    assert len({id(k) for k in back.spans.slots[::5]}) == len(set(back.spans.slots[::5]))


def test_span_log_is_a_sequence_of_spans():
    a = Span("n", 0, 0, 5, "g/0", 0)
    b = Span("n", 1, 5, 9, "g/0", 2, path="fastpath")
    c = Span("n", 2, 9, 12, "g/0", 9)
    log = SpanLog()
    for span in (a, b, c):
        log.append(span)
    assert len(log) == 3 and log[0] == a and log[-1] == c and log[-3] == a
    assert log[1:] == [b, c] and log[::-1] == [c, b, a]
    assert log == [a, b, c] and [a, b, c] == log
    assert log != [a, b] and [c, b, a] != log and log != (a, b, c)
    assert log == SpanLog([a, b, c]) and log != SpanLog([a, b])
    assert b in log and log.index(c) == 2 and list(reversed(log)) == [c, b, a]
    assert log.slots[0] is log.slots[10]      # a and c share a key
    with pytest.raises(IndexError):
        log[3]
    with pytest.raises(IndexError):
        log[-4]
    with pytest.raises(TypeError):
        log["0"]
    for span in log:
        assert vars(span) and type(span) is Span


def test_a_span_read_from_the_log_is_a_copy():
    log = SpanLog([Span("n", 0, 0, 5, "g/0", 0)])
    span = log[0]
    span.end_us = 7
    assert log[0].end_us == 5
