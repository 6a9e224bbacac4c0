"""Properties every run must have, on random layered DAGs with every
mitigation on (the strategy of test_scheduler_incremental)."""

from hypothesis import given, settings

from avpipesim.engine import Simulation
from avpipesim.pipeline import NodeRole

from test_scheduler_incremental import SCENARIO, layered_runs


@settings(max_examples=25, deadline=None)
@given(layered_runs())
def test_reaction_split_is_exact(run):
    """T1 - T0 = t_sensor + t_module + t_bubble for every reacted hazard,
    each part in its range, and T1 the completion of a recorded frame."""
    graph, groups, config, seed = run
    trace = Simulation(SCENARIO, graph, groups, config, seed).run()
    longest_period = max(spec.period_us for spec in graph.nodes.values()
                         if spec.role == NodeRole.SENSOR)
    done = {f.done_ts for f in trace.frames}
    for r in trace.reactions:
        if not r.reacted:
            continue
        assert r.t_sensor_us >= 0 and r.t_module_us > 0 and r.t_bubble_us >= 0, r
        assert r.t_sensor_us + r.t_module_us + r.t_bubble_us == r.decision_ts - r.hazard_ts, r
        assert r.t_sensor_us < longest_period, r
        assert r.decision_ts in done, r
