"""The streamed NDJSON writer against the original asdict + json.dumps
encoding of trace format 1, which it must reproduce byte for byte."""

import json
import math
from collections import Counter
from dataclasses import asdict

import pytest

import numpy as np

from avpipesim.engine import (EngineConfig, ProcessorGroup, RunTrace, SafetySample, Span,
                              run_simulation)
from avpipesim.mitigation import MitigationConfig, PathChoice
from avpipesim.pipeline import LatencyModel, NodeRole
from avpipesim.scenario import (AgentKind, AgentState, RoadSpec, Scenario,
                                TrajectorySpec, generate_traffic)
from avpipesim.simkernel import ms, sec

from conftest import chain_pipeline
from fixtures import av_pipeline

LEAD = 'lead "Ω" ü'
HIDDEN = "hidden\\é\t"


def reference_ndjson(trace: RunTrace) -> str:
    """Trace format 1 as first written: one json.dumps per record."""
    lines = []
    for kind, records in (("span", trace.spans), ("frame", trace.frames),
                          ("reaction", trace.reactions),
                          ("safety", trace.safety_samples)):
        for rec in records:
            lines.append(json.dumps({"type": kind, **asdict(rec)}, sort_keys=True))
    lines.append(json.dumps({
        "type": "summary", "scenario_digest": trace.scenario_digest,
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
    assert "".join(mitigated_trace.ndjson_lines()) == expected
    assert mitigated_trace.to_ndjson() == expected
    assert '"lon_gap_m": -0.0' in expected and '"lat_gap_m": 1e-07' in expected
    assert '"lon_gap_m": 1e+16' in expected and '"lon_gap_m": 30,' in expected


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
    assert "".join(odd_names_trace.ndjson_lines()) == reference_ndjson(odd_names_trace)


def test_span_of_non_standard_types_takes_encoder_fallback():
    trace = RunTrace(scenario_digest="x", seed=0, duration_us=1)
    trace.spans = [Span("n", 1, 0, 5, "g/0", 0),
                   Span("n", True, 0, 5, "g/0", 0, path=PathChoice.FASTPATH),
                   Span("n", 2, 0, 5, "g/0", 0, guest=1, residual=0)]
    assert "".join(trace.ndjson_lines()) == reference_ndjson(trace)
    trace.spans = [Span("n", np.int64(3), 0, 5, "g/0", 0)]
    with pytest.raises(TypeError):
        reference_ndjson(trace)
    with pytest.raises(TypeError):
        trace.to_ndjson()


def test_roundtrip_through_reader(mitigated_trace):
    text = mitigated_trace.to_ndjson()
    assert RunTrace.from_ndjson(text).to_ndjson() == text


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_values_are_refused(bad):
    trace = RunTrace(scenario_digest="x", seed=0, duration_us=1)
    trace.safety_samples = [SafetySample(0, "a", "safe", 1.0, bad)]
    with pytest.raises(ValueError):
        trace.to_ndjson()
    trace.safety_samples = [SafetySample(0, "a", "safe", 1, 2)]
    trace.ego_segments = [(0, bad)]
    with pytest.raises(ValueError):
        trace.to_ndjson()
