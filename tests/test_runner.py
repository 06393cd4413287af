import math
from dataclasses import replace

import numpy as np
import pytest

from evomerge import (
    AgentView,
    AvSpec,
    GameContext,
    HeadwaySpec,
    Lane,
    Maneuver,
    ManeuverKind,
    PayoffMatrix,
    SimConfig,
    StrategyState,
    VehicleSpec,
    VehicleState,
    build_matrix,
    decide,
    execute_lane_change,
    merge_control,
    run_estimation_bench,
    run_scenario,
    solve_ess,
    step_kinematics,
)
from evomerge.baselines import Policy
from evomerge.metrics import trace_csv
from evomerge.estimation import StyleBelief, observed_reaction, update_belief
from evomerge.runner import (
    AV_ID,
    BENCH_PUSH_ACCEL,
    BENCH_TAU_FAR,
    BENCH_TAU_NEAR,
    BENCH_TAU_STEP,
    BENCH_YIELD_DECEL,
    HEADWAY_RANGE,
    EstimationResult,
    EstimationRound,
    _Sim,
)
from evomerge.traffic import MERGE_POINT_S


def ctx_for(d_av, v_av, d_mv, v_mv, headway=2.0):
    return GameContext(
        av=AgentView(d_av, v_av), mv=AgentView(d_mv, v_mv),
        av_omega=0.5, mv_omega=0.5,
        headway_t=headway,
    )


def small_config(**overrides):
    vehicles = (
        VehicleSpec("MV1", 173.2, 10.0, HeadwaySpec("fixed", 2.0)),
        VehicleSpec("MV2", 147.4, 10.0, HeadwaySpec("fixed", 2.0)),
        VehicleSpec("MV3", 121.6, 10.0, HeadwaySpec("normal", 1.0, 0.5)),
        VehicleSpec("MV4", 85.5, 10.0, HeadwaySpec("fixed", 1.0)),
        VehicleSpec("MV5", 70.0, 10.0, HeadwaySpec("fixed", 2.0)),
    )
    return SimConfig(vehicles=vehicles, av=AvSpec(100.0, 10.0, 0.5), **overrides)


# -- decide ------------------------------------------------------------------


def report_for(m: PayoffMatrix):
    return solve_ess(m)


def test_decide_merge_on_unique_yielding_equilibrium():
    # the driver yields, the merging vehicle pushes: p* < q*
    m = PayoffMatrix(u11=0, u12=0, u21=1, u22=1, v11=1, v12=0, v21=1, v22=0)
    maneuver = decide(report_for(m), target="MV9")
    assert maneuver.kind is ManeuverKind.MERGE_AHEAD
    assert maneuver.target == "MV9"


def test_decide_yield_on_reversed_equilibrium():
    m = PayoffMatrix(u11=1, u12=1, u21=0, u22=0, v11=0, v12=1, v21=0, v22=1)
    report = report_for(m)
    assert report.ess == StrategyState(1.0, 0.0)
    assert decide(report).kind is ManeuverKind.YIELD_SHIFT


def test_decide_yield_without_equilibrium():
    zero = PayoffMatrix(0, 0, 0, 0, 0, 0, 0, 0)
    assert decide(report_for(zero)).kind is ManeuverKind.YIELD_SHIFT


def test_decide_yield_on_several_stable_points(worked_ctx):
    report = report_for(build_matrix(worked_ctx))
    assert len(report.stable_points) > 1
    assert decide(report).kind is ManeuverKind.YIELD_SHIFT


def test_decide_total_over_random_matrices():
    rng = np.random.default_rng(11)
    for _ in range(300):
        m = PayoffMatrix(*rng.uniform(-10, 10, size=8))
        maneuver = decide(report_for(m))
        assert maneuver.kind in (ManeuverKind.MERGE_AHEAD, ManeuverKind.YIELD_SHIFT)


# -- merge control -----------------------------------------------------------


def test_merge_control_zero_acceleration_case():
    u = merge_control(ctx_for(80, 10, 100, 10), Maneuver(ManeuverKind.MERGE_AHEAD))
    assert u == pytest.approx(0.0)


def test_merge_control_yield_branch():
    u = merge_control(ctx_for(80, 10, 100, 10), Maneuver(ManeuverKind.YIELD_SHIFT))
    assert u == pytest.approx(-0.5556, abs=1e-3)


def test_merge_control_clamps():
    u = merge_control(ctx_for(80, 10, 10, 10), Maneuver(ManeuverKind.MERGE_AHEAD))
    assert u == 3.0  # floored arrival time demands more than the authority


# -- lane change -------------------------------------------------------------


def veh(vid, s, v=10.0, lane=Lane.MAIN):
    return VehicleState(vid=vid, lane=lane, s=s, v=v)


def test_lane_change_feasible_gap():
    av = veh("AV", 210.0, lane=Lane.RAMP)
    moved, ok = execute_lane_change(av, veh("F", 220.0), veh("R", 200.0), min_gap=2.0)
    assert ok and moved.lane is Lane.MAIN


def test_lane_change_rear_gap_too_small():
    av = veh("AV", 210.0, lane=Lane.RAMP)
    moved, ok = execute_lane_change(av, veh("F", 230.0), veh("R", 204.0), min_gap=2.0)
    assert not ok and moved.lane is Lane.RAMP


def test_lane_change_without_front_vehicle():
    av = veh("AV", 210.0, lane=Lane.RAMP)
    moved, ok = execute_lane_change(av, None, veh("R", 200.0), min_gap=2.0)
    assert ok and moved.lane is Lane.MAIN


# -- configuration -----------------------------------------------------------


def test_headway_sampling_is_deterministic_and_truncated():
    spec = HeadwaySpec("normal", 1.0, 0.5)
    draws1 = [spec.sample(np.random.default_rng(s)) for s in range(200)]
    draws2 = [spec.sample(np.random.default_rng(s)) for s in range(200)]
    assert draws1 == draws2
    assert all(HEADWAY_RANGE[0] <= d <= HEADWAY_RANGE[1] for d in draws1)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        small_config(dt=0.3)  # does not divide the decision period
    with pytest.raises(ValueError):
        small_config(duration=0.1)  # one step leaves no acceleration to difference
    with pytest.raises(ValueError):
        SimConfig(vehicles=())


# -- scenario runs -----------------------------------------------------------


def test_run_is_deterministic_bit_for_bit():
    cfg = small_config(seed=5)
    a = trace_csv(run_scenario(cfg))
    b = trace_csv(run_scenario(cfg))
    assert a == b


def test_step_record_count_matches_grid():
    cfg = small_config(seed=1)
    trace = run_scenario(cfg)
    n_steps = cfg.n_steps
    assert len(trace.t) == n_steps
    assert list(trace.s) == ["AV", "MV1", "MV2", "MV3", "MV4", "MV5"]
    for vid in ("AV", "MV1", "MV2", "MV3", "MV4", "MV5"):
        for column in (trace.s, trace.v, trace.a):
            assert len(column[vid]) == n_steps


def test_opponent_progression_is_monotone():
    order = ["MV3", "MV2", "MV1"]  # arrival order behind the merging vehicle
    for seed in range(12):
        trace = run_scenario(small_config(seed=seed))
        seen = [d.opponent for d in trace.decisions if d.opponent is not None]
        indices = [order.index(o) for o in seen]
        assert indices == sorted(indices)


def test_yield_advances_exactly_one_slot():
    for seed in range(12):
        trace = run_scenario(small_config(seed=seed))
        previous = None
        order = ["MV3", "MV2", "MV1"]
        for d in trace.decisions:
            if d.opponent is None or previous is None:
                previous = d
                continue
            if previous.maneuver is ManeuverKind.YIELD_SHIFT and previous.opponent:
                jump = order.index(d.opponent) - order.index(previous.opponent)
                assert jump in (0, 1)
            previous = d


def test_chronology_beliefs_only_tighten():
    for seed in range(8):
        trace = run_scenario(small_config(seed=seed))
        by_opp = {}
        for d in trace.decisions:
            if d.opponent is None:
                continue
            if d.opponent in by_opp:
                k_l_prev, k_u_prev = by_opp[d.opponent]
                assert d.k_l >= k_l_prev - 1e-12
                assert d.k_u <= k_u_prev + 1e-12
            by_opp[d.opponent] = (d.k_l, d.k_u)


def test_final_order_contains_everyone_once():
    trace = run_scenario(small_config(seed=3))
    assert sorted(trace.final_order) == sorted(["AV", "MV1", "MV2", "MV3", "MV4", "MV5"])
    idx = trace.final_order.index("AV")
    assert trace.av_front == (trace.final_order[idx - 1] if idx else None)


def test_collision_free_sample_runs():
    for seed in range(10):
        trace = run_scenario(small_config(seed=seed))
        assert trace.collisions == []


def test_policies_produce_runs():
    cfg = small_config(seed=2)
    for policy in (Policy.NASH, Policy.STACKELBERG):
        trace = run_scenario(cfg, policy)
        assert trace.policy is policy
        assert sum(len(column) for column in trace.s.values()) == cfg.n_steps * 6


# -- estimation bench --------------------------------------------------------


def bench_config():
    return SimConfig(
        vehicles=(VehicleSpec("MV1", 282.0, 10.0, HeadwaySpec("fixed", 1.5)),),
        av=AvSpec(260.0, 10.0, 0.5),
        duration=40.0,
    )


def test_bench_converges_for_sample_styles():
    cfg = bench_config()
    for true_omega in (0.25, 0.5, 0.85):
        result = run_estimation_bench(cfg, true_omega, seed=0)
        assert result.contained
        assert result.error <= 0.05
        assert result.n_updates <= 10


def test_estimation_result_tallies_come_from_rounds():
    def round_(k_l, k_u, updated):
        return EstimationRound(t=0.0, k_l=k_l, k_u=k_u,
                               predicted_q=1.0, accelerated=updated, updated=updated)

    rounds = [round_(0.0, 1.0, False), round_(0.5, 1.0, True), round_(0.5, 0.75, True)]
    result = EstimationResult(true_omega=0.6, rounds=rounds, belief=StyleBelief(0.5, 0.75))
    assert result.n_updates == 2
    assert result.contained
    # one round's interval [0.7, 0.75] excludes the true style by more than the 1e-9 slack
    rounds.insert(2, round_(0.7, 0.75, True))
    assert result.n_updates == 3
    assert not result.contained
    # within the slack the style still counts as contained
    rounds[2] = round_(0.6 + 5e-10, 0.75, True)
    assert result.contained


def test_bench_rejects_bad_inputs():
    cfg = bench_config()
    with pytest.raises(ValueError):
        run_estimation_bench(cfg, 0.0)


def reference_bench(cfg, true_omega, seed):
    """The estimation bench round by round: full reports, both games built separately, both vehicles stepped."""
    cfg = replace(cfg, seed=seed)
    sim = _Sim(cfg, Policy.EGT)
    opp = sim.opponent()
    av, mv = sim.view(0), sim.view(sim.index[opp])
    offset = mv.dist_to_merge - av.dist_to_merge
    v_av, v_mv = av.v, mv.v
    belief = StyleBelief()
    rounds = []
    contained = True
    n_updates = 0
    leg = int(math.floor((BENCH_TAU_FAR - BENCH_TAU_NEAR) / BENCH_TAU_STEP)) + 1
    schedule = [BENCH_TAU_FAR - k * BENCH_TAU_STEP for k in range(leg)]
    schedule += list(reversed(schedule[:-1]))
    for k, tau in enumerate(schedule):
        t = k * cfg.decision_period
        av = VehicleState(vid=AV_ID, lane=Lane.RAMP, s=MERGE_POINT_S - tau * v_av, v=v_av)
        mv = VehicleState(vid=opp, lane=Lane.MAIN, s=av.s - offset, v=v_mv)
        sim.place(av)
        sim.place(mv)
        ctx = sim.context_for(opp, belief.omega_hat)
        report = solve_ess(build_matrix(ctx))
        if report.ess is None:
            rounds.append(EstimationRound(
                t=t, k_l=belief.k_l, k_u=belief.k_u,
                predicted_q=None, accelerated=False, updated=False,
            ))
            continue
        truth = solve_ess(build_matrix(sim.context_for(opp, true_omega)))
        if truth.ess is not None and truth.ess.q == 0.0:
            u_mv = BENCH_PUSH_ACCEL
        elif truth.ess is not None and truth.ess.q == 1.0:
            u_mv = BENCH_YIELD_DECEL
        else:
            u_mv = 0.0
        u_av = merge_control(ctx, Maneuver(ManeuverKind.MERGE_AHEAD, target=opp))
        v_before = mv.v
        for _ in range(cfg.steps_per_period):
            av = step_kinematics(av, u_av, cfg.dt)
            mv = step_kinematics(mv, u_mv, cfg.dt)
        reaction = observed_reaction(mv.v, v_before, cfg.reaction_deadband)
        new_belief = update_belief(belief, report.ess, reaction, ctx)
        updated = new_belief != belief
        belief = new_belief
        n_updates += updated
        if not (belief.k_l - 1e-9 <= true_omega <= belief.k_u + 1e-9):
            contained = False
        rounds.append(EstimationRound(
            t=t, k_l=belief.k_l, k_u=belief.k_u,
            predicted_q=report.ess.q, accelerated=reaction.accelerated, updated=updated,
        ))
    return rounds, belief, n_updates, contained


@pytest.mark.parametrize("true_omega", [0.05, 0.5, 0.95, 1e-12])  # the last is clamped to 1e-9
def test_bench_matches_reference_loop(true_omega):
    cfg = bench_config()
    result = run_estimation_bench(cfg, true_omega, seed=3)
    rounds, belief, n_updates, contained = reference_bench(cfg, true_omega, seed=3)
    assert result.rounds == rounds
    assert result.belief == belief
    assert result.n_updates == n_updates
    assert result.contained == contained
