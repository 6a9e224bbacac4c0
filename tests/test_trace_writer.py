"""The streamed NDJSON writer against a plain asdict + json.dumps
encoding of trace format 2, which it must reproduce byte for byte."""

import json
import math
from collections import Counter
from dataclasses import asdict

import pytest

import numpy as np

from avpipesim.engine import (ClosestApproach, EngineConfig, ProcessorGroup, RunTrace,
                              SafetySample, Span, SpanLog, run_simulation)
from avpipesim.mitigation import MitigationConfig, PathChoice
from avpipesim.pipeline import LatencyModel, NodeRole
from avpipesim.scenario import (AgentKind, AgentState, RoadSpec, Scenario,
                                TrajectorySpec, generate_traffic)
from avpipesim.simkernel import ms, sec

from conftest import assert_same_lines, chain_pipeline
from fixtures import av_pipeline

LEAD = 'lead "Ω" ü'
HIDDEN = "hidden\\é\t"


def reference_ndjson(trace: RunTrace) -> str:
    """Trace format 2: one json.dumps per record."""
    lines = []
    for kind, records in (("span", trace.spans), ("frame", trace.frames),
                          ("reaction", trace.reactions),
                          ("safety", trace.safety_samples), ("closest", trace.closest)):
        for rec in records:
            lines.append(json.dumps({"type": kind, **asdict(rec)}, sort_keys=True))
    lines.append(json.dumps({
        "type": "summary", "format": 2, "scenario_digest": trace.scenario_digest,
        "seed": trace.seed, "duration_us": trace.duration_us,
        "busy_us_by_group": trace.busy_us_by_group,
        "worker_count_by_group": trace.worker_count_by_group,
        "budget_violations": trace.budget_violations,
        "steals_admitted": trace.steals_admitted,
        "steals_rejected": trace.steals_rejected,
        "ego_segments": trace.ego_segments}, sort_keys=True))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def mitigated_trace():
    """Fastpath, residual and guest spans; reacted and unreacted hazards;
    agent ids with quotes, backslashes and non-ASCII characters."""
    lead = TrajectorySpec(initial=AgentState(s_m=12.0, l_m=0.0, v_mps=10.0, a_mps2=0.0),
                          segments=((sec(3), -7.0),))
    hidden = TrajectorySpec(initial=AgentState(s_m=40.0, l_m=0.0, v_mps=10.0, a_mps2=0.0),
                            visible_from_us=sec(60))
    agents = [(LEAD, AgentKind.VEHICLE, lead), (HIDDEN, AgentKind.PEDESTRIAN, hidden)]
    road = RoadSpec(length_m=300.0, speed_mps=10.0)
    for i, (kind, traj) in enumerate(generate_traffic(8.0, 3, road)):
        agents.append((f'bg"{i}"ß', kind, traj))
    sc = Scenario(ego_initial=AgentState(s_m=0.0, l_m=0.0, v_mps=10.0, a_mps2=0.0),
                  agents=tuple(agents), duration_us=sec(6),
                  hazard_events=tuple((sec(2), aid, f"hazard «{aid}»")
                                      for aid, _, _ in agents))
    groups = [ProcessorGroup("sense", 1, ("camera", "perception", "prediction")),
              ProcessorGroup("plan", 2, ("planning", "control"))]
    cfg = EngineConfig(mitigation=MitigationConfig(
        fastpath=True, proactive=True, stealing=True, deadline_cap_us=ms(125)))
    trace = run_simulation(sc, av_pipeline(), groups, cfg, seed=4)
    trace.ego_segments = [(sec(1), -6.0), (sec(2), -0.0)]
    trace.safety_samples += [
        SafetySample(sec(6), LEAD, "violation", -0.0, 1e-7),
        SafetySample(sec(6), HIDDEN, "collision", 1e16, -1e-7),
        SafetySample(sec(6), "int gaps", "safe", 30, -2),
    ]
    trace.closest += [ClosestApproach(LEAD, sec(6), -0.0),
                      ClosestApproach(HIDDEN, sec(6), 1e16),
                      ClosestApproach("int gap", sec(6), 30)]
    return trace


def test_run_covers_every_record_kind(mitigated_trace):
    kinds = Counter((s.path, s.guest, s.residual) for s in mitigated_trace.spans)
    assert kinds[("fastpath", False, False)] > 0
    assert sum(n for (path, guest, _), n in kinds.items() if guest) > 0
    assert sum(n for (_, _, residual), n in kinds.items() if residual) > 0
    reacted = {r.reacted for r in mitigated_trace.reactions}
    assert reacted == {True, False}


def test_streamed_lines_equal_reference_encoding(mitigated_trace):
    expected = reference_ndjson(mitigated_trace)
    assert_same_lines("".join(mitigated_trace.ndjson_lines()), expected)
    assert_same_lines(mitigated_trace.to_ndjson(), expected)
    assert '"lon_gap_m": -0.0' in expected and '"lat_gap_m": 1e-07' in expected
    assert '"lon_gap_m": 1e+16' in expected and '"lon_gap_m": 30,' in expected
    assert '"type": "closest"' in expected and '"format": 2' in expected


@pytest.fixture(scope="module")
def odd_names_trace():
    """Node and group names, and so span workers, with quotes,
    backslashes and non-ASCII characters; guest and fastpath spans."""
    plan = 'plan «ü»'
    graph = chain_pipeline({'pér"ception\\': (ms(20), NodeRole.PERCEPTION),
                            plan: (ms(30), NodeRole.PLANNING),
                            'act\\"Ω': (ms(5), NodeRole.CONTROL)},
                           sensor_period_us=ms(25), per_vehicle_us=ms(2), lookahead_m=50.0,
                           fast={plan: LatencyModel(offset_us=ms(10))})
    names = list(graph.nodes)
    groups = [ProcessorGroup('sense "α"\\', 1, tuple(names[:2]), budget_us=ms(25)),
              ProcessorGroup("plan\\ß\t", 2, tuple(names[2:]), budget_us=ms(80))]
    agents = tuple((f"v{i}", AgentKind.VEHICLE, TrajectorySpec(
        initial=AgentState(s_m=10.0 + 7 * i, l_m=0.0, v_mps=9.0, a_mps2=0.0)))
        for i in range(4))
    sc = Scenario(ego_initial=AgentState(s_m=0.0, l_m=0.0, v_mps=10.0, a_mps2=0.0),
                  agents=agents, duration_us=sec(3))
    cfg = EngineConfig(mitigation=MitigationConfig(
        fastpath=True, stealing=True, deadline_cap_us=ms(60)))
    return run_simulation(sc, graph, groups, cfg, seed=2)


def test_odd_names_equal_reference_encoding(odd_names_trace):
    spans = odd_names_trace.spans
    assert any(s.guest for s in spans) and any(s.path == "fastpath" for s in spans)
    assert any("\\" in s.worker and not s.worker.isascii() for s in spans)
    assert_same_lines("".join(odd_names_trace.ndjson_lines()),
                      reference_ndjson(odd_names_trace))


def test_span_of_non_standard_types_takes_encoder_fallback():
    trace = RunTrace(scenario_digest="x", seed=0, duration_us=1)
    trace.spans = SpanLog([Span("n", 1, 0, 5, "g/0", 0),
                           Span("n", True, 0, 5, "g/0", 0, path=PathChoice.FASTPATH),
                           Span("n", 2, 0, 5, "g/0", 0, guest=1, residual=0),
                           Span("n", 3, 0, 5, "g/0", 0, guest=0, residual=False)])
    # equal to the first span's key, (.., False, False), but written with a 0
    assert '"guest": 0' in reference_ndjson(trace)
    assert_same_lines("".join(trace.ndjson_lines()), reference_ndjson(trace))
    trace.spans = SpanLog([Span("n", np.int64(3), 0, 5, "g/0", 0)])
    with pytest.raises(TypeError):
        reference_ndjson(trace)
    with pytest.raises(TypeError):
        trace.to_ndjson()


def test_roundtrip_through_reader(mitigated_trace):
    text = mitigated_trace.to_ndjson()
    # the reader reads number fields as floats, so the int gaps come back as floats
    floats = {'"lat_gap_m": -2, "level": "safe", "lon_gap_m": 30,':
              '"lat_gap_m": -2.0, "level": "safe", "lon_gap_m": 30.0,',
              '"agent_id": "int gap", "lon_gap_m": 30,':
              '"agent_id": "int gap", "lon_gap_m": 30.0,'}
    expected = text
    for ints, as_floats in floats.items():
        assert text.count(ints) == 1
        expected = expected.replace(ints, as_floats)
    assert_same_lines(RunTrace.from_ndjson(text).to_ndjson(), expected)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_values_are_refused(bad):
    trace = RunTrace(scenario_digest="x", seed=0, duration_us=1)
    trace.safety_samples = [SafetySample(0, "a", "safe", 1.0, bad)]
    with pytest.raises(ValueError):
        trace.to_ndjson()
    trace.safety_samples = [SafetySample(0, "a", "safe", 1, 2)]
    trace.closest = [ClosestApproach("a", 0, bad)]
    with pytest.raises(ValueError):
        trace.to_ndjson()
    trace.closest = []
    trace.ego_segments = [(0, bad)]
    with pytest.raises(ValueError):
        trace.to_ndjson()
