"""Trace format 2 against format 1, and the trace reader.

Format 1 recorded every safety sample; format 2 records only the
non-safe ones plus each agent's closest approach. The report must come
out the same from either. The reader reads format 2 only.
"""

import json
import os
import runpy
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avpipesim.analysis import safety_report
from avpipesim.engine import EngineConfig, Simulation, run_simulation
from avpipesim.pipeline import NodeRole
from avpipesim.scenario import AgentKind, AgentState, Scenario, TrajectorySpec
from avpipesim.simkernel import ms, sec
from avpipesim.trace import ClosestApproach, RunTrace, SafetySample, TraceError
from avpipesim.world import World, _round6

from conftest import assert_same_lines, chain_pipeline, check_safety_many, one_group
from fixtures import av_groups, av_pipeline, safety_mix_scenario

HERE = os.path.dirname(os.path.abspath(__file__))


def every_sample(sim: Simulation) -> list[SafetySample]:
    """Every safety sample of sim's finished run, as format 1 recorded them.
    A braking segment starts after its decision, so the ego's state at
    each safety tick is the same after the run as it was during it."""
    sc, cfg = sim.scenario, sim.config
    world = World(sc, [cfg.tick_us], cfg.sensor_range_m, cfg.rss)
    out = []
    for t in range(0, sc.duration_us + 1, cfg.tick_us):
        s, v, a = world.at(t)
        levels, lon, lat = check_safety_many(sim.ego_state(t), s, np.array(world.l_m), v, a,
                                             cfg.rss, sc.d_buffer_m)
        out += [SafetySample(t, *rec) for rec in zip(
            world.ids, levels, _round6(lon).tolist(), _round6(lat).tolist())]
    return out


def format1_report(samples, reactions) -> str:
    """report.json's safety section as format 1 computed it, in one pass
    over every sample."""
    violations = collisions = 0
    min_gap = float("inf")
    for s in samples:
        violations += s.level == "violation"
        collisions += s.level == "collision"
        if 0 <= s.lon_gap_m < min_gap:
            min_gap = s.lon_gap_m
    return json.dumps({"violations": violations, "collisions": collisions,
                       "no_reaction": sum(1 for r in reactions if not r.reacted),
                       "min_gap_m": None if min_gap == float("inf") else round(min_gap, 6)})


def format1_closest(samples, agent_ids):
    """Per agent, the first sample with its smallest gap >= 0."""
    out = []
    for aid in agent_ids:
        best = None
        for s in samples:
            if s.agent_id == aid and 0 <= s.lon_gap_m and (
                    best is None or s.lon_gap_m < best.lon_gap_m):
                best = ClosestApproach(aid, s.t_us, s.lon_gap_m)
        if best is not None:
            out.append(best)
    return out


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


agent_specs = st.builds(
    lambda s, l, v, segs, visible: TrajectorySpec(
        initial=AgentState(s_m=s, l_m=l, v_mps=v, a_mps2=0.0),
        segments=tuple(sorted(segs)), visible_from_us=visible),
    s=st.sampled_from([0.0, -0.0, -2.0, 5.0, 12.5]) | finite(-40, 80),
    l=st.sampled_from([0.0, 0.3, 3.5, -3.5]) | finite(-4, 4),
    v=st.sampled_from([0.0, 10.0]) | finite(0, 20),
    segs=st.lists(st.tuples(st.integers(0, sec(3)),
                            st.sampled_from([-8.0, 0.0]) | finite(-10, 3)),
                  max_size=3, unique_by=lambda seg: seg[0]),
    visible=st.integers(0, sec(3)))


@settings(max_examples=40, deadline=None)
@given(agents=st.lists(agent_specs, max_size=6),
       duration_us=st.integers(1, sec(3)),
       tick_us=st.sampled_from([ms(50), ms(100), ms(250)]),
       ego_v=st.sampled_from([0.0, 10.0]) | finite(0, 20))
def test_format2_report_equals_format1(agents, duration_us, tick_us, ego_v):
    """Stops, collisions, agents behind and late-visible agents: the
    non-safe samples plus the closest approaches give format 1's report."""
    sc = Scenario(ego_initial=AgentState(s_m=0.0, l_m=0.0, v_mps=ego_v, a_mps2=0.0),
                  agents=tuple((f"a{i}", AgentKind.VEHICLE, traj)
                               for i, traj in enumerate(agents)),
                  duration_us=duration_us,
                  hazard_events=tuple((0, f"a{i}", "h") for i in range(len(agents))))
    g = chain_pipeline({"detect": (ms(20), NodeRole.PERCEPTION),
                        "act": (ms(5), NodeRole.CONTROL)})
    cfg = EngineConfig(tick_us=tick_us, response_margin_us=sec(3))    # brakes often
    sim = Simulation(sc, g, one_group(g), cfg, 1)
    trace = sim.run()
    every = every_sample(sim)
    assert trace.safety_samples == [s for s in every if s.level != "safe"]
    assert ([(c.agent_id, c.t_us, repr(c.lon_gap_m)) for c in trace.closest]
            == [(c.agent_id, c.t_us, repr(c.lon_gap_m))
                for c in format1_closest(every, [aid for aid, _, _ in sc.agents])])
    assert json.dumps(asdict(safety_report(trace))) == format1_report(every, trace.reactions)


def test_report_keeps_the_first_of_equal_zero_gaps():
    # -0.0 at t=0 before 0.0: one pass over every sample keeps -0.0
    trace = RunTrace(scenario_digest="x", seed=0, duration_us=1)
    trace.closest = [ClosestApproach("a", 5, 0.0), ClosestApproach("b", 0, -0.0)]
    assert repr(safety_report(trace).min_gap_m) == "-0.0"
    trace.closest.reverse()
    assert repr(safety_report(trace).min_gap_m) == "-0.0"
    trace.closest = [ClosestApproach("a", 0, 0.0), ClosestApproach("b", 0, -0.0)]
    assert repr(safety_report(trace).min_gap_m) == "0.0"


def run_safety_mix():
    return run_simulation(safety_mix_scenario(), av_pipeline(), av_groups(workers=2),
                          EngineConfig(), seed=3)


def test_format2_round_trip():
    text = run_safety_mix().to_ndjson()
    assert '"type": "closest"' in text and '"level": "safe"' not in text
    assert_same_lines(RunTrace.from_ndjson(text.splitlines(keepends=True)).to_ndjson(),
                      text)


def test_reader_takes_integral_floats_for_integers():
    """As in the input files: 2.0 reads as the integer 2, 2.5 does not."""
    lines = run_safety_mix().to_ndjson().splitlines()
    i = next(i for i, line in enumerate(lines) if '"type": "closest"' in line)
    obj = json.loads(lines[i])
    lines[i] = json.dumps({**obj, "t_us": float(obj["t_us"])})
    assert ".0" in lines[i]
    read = RunTrace.from_ndjson(lines)
    assert type(read.closest[0].t_us) is int and read.closest[0].t_us == obj["t_us"]
    lines[i] = json.dumps({**obj, "t_us": obj["t_us"] + 0.5})
    with pytest.raises(TraceError, match=r"closest.t_us: expected an integer, got \d+\.5"):
        RunTrace.from_ndjson(lines)


MISSING = object()      # as a value in a summary change: delete the key


@pytest.mark.parametrize("change, expect", [
    ({"format": 1}, "unsupported trace format 1"),
    ({"format": "2"}, "unsupported trace format '2'"),
    ({"format": True}, "unsupported trace format True"),
    pytest.param({"extra": 1}, r"summary: unknown fields \['extra'\]", id="extra-field"),
    pytest.param({"ego_segments": 5}, "summary.ego_segments: expected a list, got int",
                 id="segments-int"),
    pytest.param({"seed": "x"}, "summary.seed: expected an integer, got 'x'", id="seed-str"),
    pytest.param({"duration_us": -5.5}, "summary.duration_us: expected an integer, got -5.5",
                 id="duration-frac"),
    pytest.param({"busy_us_by_group": 5},
                 "summary.busy_us_by_group: expected an object, got int", id="busy-int"),
    pytest.param({"ego_segments": [["t", "a"]]},
                 r"summary.ego_segments\[0\]: expected an integer, got 't'", id="segment-str"),
    pytest.param({"ego_segments": [[0]]},
                 r"summary.ego_segments\[0\]: expected a list of 2 items, got \[0\]",
                 id="segment-short"),
    pytest.param({"format": MISSING}, "unsupported trace format None", id="format-missing"),
])
def test_reader_refuses_bad_summaries(change, expect):
    """A summary without "format", as format 1 wrote it, is refused too."""
    lines = run_safety_mix().to_ndjson().splitlines()
    summary = {**json.loads(lines[-1]), **change}
    lines[-1] = json.dumps({k: v for k, v in summary.items() if v is not MISSING})
    with pytest.raises(TraceError, match=expect) as info:
        RunTrace.from_ndjson(lines)
    assert info.value.lineno == len(lines)


@pytest.mark.parametrize("record", ["span", "summary"])
def test_reader_refuses_a_record_missing_a_defaulted_field(record):
    """Every field is required, also one its dataclass defaults."""
    lines = run_safety_mix().to_ndjson().splitlines()
    i = next(i for i, line in enumerate(lines) if f'"type": "{record}"' in line)
    obj = json.loads(lines[i])
    dropped = "residual" if record == "span" else "steals_admitted"
    del obj[dropped]
    lines[i] = json.dumps(obj)
    with pytest.raises(TraceError, match=rf"{record}: missing fields \['{dropped}'\]") as info:
        RunTrace.from_ndjson(lines)
    assert info.value.lineno == i + 1


def test_reader_refuses_a_second_summary():
    lines = run_safety_mix().to_ndjson().splitlines()
    with pytest.raises(TraceError, match="second summary record") as info:
        RunTrace.from_ndjson(lines + lines[-1:])
    assert info.value.lineno == len(lines) + 1


def test_demo_reads_the_lead_closest_approach(capsys):
    demo = os.path.join(HERE, os.pardir, "demos", "reaction_time_walkthrough.py")
    runpy.run_path(demo, run_name="__main__")
    assert "closest approach to the lead: 24.05 m" in capsys.readouterr().out
