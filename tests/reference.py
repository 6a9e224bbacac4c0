"""Scalar references for the batched world model.

agent_state_at integrates one trajectory to one instant, and
visible_agents filters a scenario's agents by visibility and range, one
agent at a time. The engine never calls them: CompiledTrajectory and
world.World must equal them bit for bit, which test_scenario.py and
test_world_model_batch.py check.
"""

from typing import Optional

from avpipesim.scenario import AgentState, Scenario, TrajectorySpec, _integrate


def agent_state_at(traj: TrajectorySpec, t_us: int) -> AgentState:
    """State at time t by closed-form piecewise integration."""
    if t_us < 0:
        raise ValueError(f"t must be >= 0, got {t_us}")
    s, v, a, _ = _integrate(traj, t_us)
    return AgentState(s_m=s, l_m=traj.initial.l_m, v_mps=v,
                      a_mps2=a if not (v == 0.0 and a < 0) else 0.0,
                      lane_index=traj.initial.lane_index)


def visible_agents(scenario: Scenario, t_us: int, sensor_range_m: float,
                   ego_state: Optional[AgentState] = None):
    """Agents detectable at time t: visible_from reached and within range.

    Range is longitudinal distance from the ego in the lane frame. Without
    ego_state, the ego follows its initial state with no control applied.
    """
    if t_us > scenario.duration_us:
        raise ValueError(f"t {t_us} beyond scenario duration {scenario.duration_us}")
    ego = (ego_state if ego_state is not None
           else agent_state_at(TrajectorySpec(initial=scenario.ego_initial), t_us))
    out = []
    for aid, kind, traj in scenario.agents:
        if traj.visible_from_us > t_us:
            continue
        st = agent_state_at(traj, t_us)
        if abs(st.s_m - ego.s_m) <= sensor_range_m:
            out.append((aid, kind, st))
    return out
