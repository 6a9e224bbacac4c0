"""Walk through the reaction-time decomposition on a single hazard.

An ego vehicle follows a lead car at 30 m. At t=2 s the lead brakes
hard. We run the pipeline and split the measured reaction time into its
three components:

    T1 - T0 = t_sensor + t_module + t_bubble

t_sensor is the wait for the next camera frame, t_module is time spent
inside pipeline stages, and t_bubble is queueing between stages.
"""

from avpipesim import (AgentKind, AgentState, Channel, ChannelPolicy,
                       EngineConfig, ExecutionPattern, LatencyModel, NodeRole,
                       NodeSpec, PipelineGraph, ProcessorGroup, Scenario,
                       TrajectorySpec, ms, run_simulation, sec)


def build_pipeline():
    nodes = {
        "camera": NodeSpec("camera", ExecutionPattern.TIMING, (), ("raw",),
                           LatencyModel(offset_us=0), role=NodeRole.SENSOR,
                           period_us=ms(100)),
        "detect": NodeSpec("detect", ExecutionPattern.INTERRUPT, ("raw",),
                           ("tracks",), LatencyModel(offset_us=ms(30)),
                           role=NodeRole.PERCEPTION),
        "plan": NodeSpec("plan", ExecutionPattern.INTERRUPT, ("tracks",),
                         ("traj",), LatencyModel(offset_us=ms(40)),
                         role=NodeRole.PLANNING),
        "act": NodeSpec("act", ExecutionPattern.INTERRUPT, ("traj",), ("cmd",),
                        LatencyModel(offset_us=ms(5)), role=NodeRole.CONTROL),
    }
    channels = {c: Channel(c, ChannelPolicy.FIFO, 16)
                for c in ("raw", "tracks", "traj", "cmd")}
    return PipelineGraph(nodes=nodes, channels=channels)


def main():
    lead = TrajectorySpec(
        initial=AgentState(s_m=30.0, l_m=0.0, v_mps=10.0, a_mps2=0.0),
        segments=((sec(2), -6.0),))
    scenario = Scenario(
        ego_initial=AgentState(s_m=0.0, l_m=0.0, v_mps=10.0, a_mps2=0.0),
        agents=(("lead", AgentKind.VEHICLE, lead),),
        duration_us=sec(8),
        hazard_events=((sec(2), "lead", "lead-brakes"),))

    graph = build_pipeline()
    groups = [ProcessorGroup("cpu", 2, tuple(graph.nodes))]
    trace = run_simulation(scenario, graph, groups, EngineConfig(), seed=0)

    r = trace.reactions[0]
    print("hazard at t = %.3f s (%s)" % (r.hazard_ts / 1e6, r.label))
    print("decision at t = %.3f s" % (r.decision_ts / 1e6))
    print()
    print("  t_sensor = %6.1f ms  (wait for the next frame)" % (r.t_sensor_us / 1e3))
    print("  t_module = %6.1f ms  (compute inside stages)" % (r.t_module_us / 1e3))
    print("  t_bubble = %6.1f ms  (queueing between stages)" % (r.t_bubble_us / 1e3))
    print("  --------------------")
    total = r.t_sensor_us + r.t_module_us + r.t_bubble_us
    print("  reaction = %6.1f ms" % (total / 1e3))
    assert r.decision_ts - r.hazard_ts == total

    braked = trace.ego_segments[0][0] if trace.ego_segments else None
    if braked is not None:
        print()
        print("ego started braking at t = %.3f s" % (braked / 1e6))
    lead_closest = next(c for c in trace.closest if c.agent_id == "lead")
    print("closest approach to the lead: %.2f m at t = %.1f s"
          % (lead_closest.lon_gap_m, lead_closest.t_us / 1e6))


if __name__ == "__main__":
    main()
