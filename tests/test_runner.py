import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evomerge import (
    AvSpec,
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
    execute_lane_change,
    merge_control,
    merges,
    run_estimation_bench,
    run_scenario,
    solve_ess,
    step_kinematics,
)
from evomerge import runner
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
    EMERGENCY_TARGET,
    HEADWAY_RANGE,
    JERK_LIMIT,
    PROBE_ACCEL,
    PROBE_PERIODS,
    EstimationResult,
    EstimationRound,
    SimTrace,
    _Sim,
)
from evomerge.traffic import (
    EMERGENCY_DECEL,
    FREE_ROAD_GAP,
    MERGE_POINT_S,
    body_gap,
    idm_accel,
    style_from_headway,
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


# -- policy pick -------------------------------------------------------------


def picks(m: PayoffMatrix) -> dict:
    report = solve_ess(m)
    return {policy: merges(policy, m, report) for policy in Policy}


def test_policy_pick_on_the_worked_game(worked_ctx):
    m = build_matrix(worked_ctx)
    assert len(solve_ess(m).stable_points) > 1  # EGT falls back to yielding
    assert picks(m) == {Policy.EGT: False, Policy.NASH: True, Policy.STACKELBERG: True}


def test_policy_pick_where_nash_and_stackelberg_differ():
    m = PayoffMatrix(1, -3, -2, -2, -2, -1, 0, -1)
    assert solve_ess(m).stable_points == ()
    assert picks(m) == {Policy.EGT: False, Policy.NASH: False, Policy.STACKELBERG: True}


def test_policy_pick_merges_on_a_unique_yielding_equilibrium():
    # the driver yields, the merging vehicle pushes: p* < q*
    m = PayoffMatrix(u11=0, u12=0, u21=1, u22=1, v11=1, v12=0, v21=1, v22=0)
    assert picks(m) == dict.fromkeys(Policy, True)


def test_policy_pick_yields_on_reversed_equilibrium():
    m = PayoffMatrix(u11=1, u12=1, u21=0, u22=0, v11=0, v12=1, v21=0, v22=1)
    assert solve_ess(m).ess == StrategyState(1.0, 0.0)
    assert picks(m) == dict.fromkeys(Policy, False)


def test_policy_pick_yields_without_equilibrium():
    assert picks(PayoffMatrix(0, 0, 0, 0, 0, 0, 0, 0)) == dict.fromkeys(Policy, False)


def test_policy_pick_total_over_random_matrices():
    rng = np.random.default_rng(11)
    for _ in range(300):
        assert all(type(pick) is bool for pick in picks(PayoffMatrix(*rng.uniform(-10, 10, size=8))).values())


def test_decisions_call_the_game_through_runner_names(monkeypatch):
    # perfbench's traced run wraps these runner attributes as its payoff, egt
    # and baselines layers; a decision that bypassed them would zero a layer.
    calls = Counter()
    for name in ("build_matrix", "solve_ess", "select_nash", "stackelberg"):
        def counted(*args, _name=name, _original=getattr(runner, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(runner, name, counted)
    for policy, rule in ((Policy.EGT, None), (Policy.NASH, "select_nash"), (Policy.STACKELBERG, "stackelberg")):
        calls.clear()
        trace = run_scenario(small_config(seed=0, duration=3.0), policy)
        games = sum(d.opponent is not None for d in trace.decisions)
        assert games > 0
        assert calls == Counter({"build_matrix": games, "solve_ess": games, **({rule: games} if rule else {})})


# -- merge control -----------------------------------------------------------


def test_merge_control_zero_acceleration_case():
    assert merge_control(80.0, 10.0, 100.0, 10.0, 2.0, yields=False) == pytest.approx(0.0)


def test_merge_control_yield_branch():
    assert merge_control(80.0, 10.0, 100.0, 10.0, 2.0, yields=True) == pytest.approx(-0.5556, abs=1e-3)


def test_merge_control_clamps():
    # floored arrival time demands more than the authority
    assert merge_control(80.0, 10.0, 10.0, 10.0, 2.0, yields=False) == 3.0


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
    # A mean far above the range rejects every draw; the sample falls back to the clamped mean.
    assert HeadwaySpec("normal", 10.0, 0.01).sample(np.random.default_rng(0)) == HEADWAY_RANGE[1] == 3.5

    # The simulator makes its generator at the first normal headway; fixed
    # headways before and between the normal ones must not shift the stream.
    fixed = HeadwaySpec("fixed", 1.5)
    wide, narrow = HeadwaySpec("normal", 1.0, 0.5), HeadwaySpec("normal", 2.0, 0.3)
    for kinds in (
        (fixed, wide, fixed, narrow, wide),
        (fixed, fixed, narrow),
        (wide, fixed, fixed, narrow),
        (fixed, fixed),
    ):
        vehicles = tuple(
            VehicleSpec(f"MV{k + 1}", 173.2 - 25.0 * k, 10.0, headway) for k, headway in enumerate(kinds)
        )
        for seed in range(20):
            cfg = SimConfig(vehicles=vehicles, av=AvSpec(100.0, 10.0, 0.5), seed=seed)
            rng = np.random.default_rng(seed)
            eager = {spec.vid: style_from_headway(spec.headway.sample(rng)) for spec in vehicles}
            assert _Sim(cfg, Policy.EGT).true_styles == eager


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


def test_ramp_av_level_with_main_road_vehicle_does_not_collide():
    cfg = SimConfig(
        vehicles=(VehicleSpec("MV1", 100.0, 10.0, HeadwaySpec("fixed", 2.0)),),
        av=AvSpec(100.0, 10.0, 0.5),
        duration=1.0,
    )
    trace = run_scenario(cfg)
    assert trace.s["AV"][1] == trace.s["MV1"][1]  # level after the first step
    assert trace.collisions == []


def test_policies_produce_runs():
    cfg = small_config(seed=2)
    for policy in (Policy.NASH, Policy.STACKELBERG):
        trace = run_scenario(cfg, policy)
        assert trace.policy is policy
        assert sum(len(column) for column in trace.s.values()) == cfg.n_steps * 6


# -- car following in the loop -----------------------------------------------


def hand_placed_sim():
    """Three conservative drivers; MV2 is the AV's first opponent, MV1 already passed."""
    vehicles = tuple(
        VehicleSpec(vid, d, 10.0, HeadwaySpec("fixed", 2.5))
        for vid, d in (("MV1", 60.0), ("MV2", 120.0), ("MV3", 150.0))
    )
    return _Sim(SimConfig(vehicles=vehicles, av=AvSpec(100.0, 10.0, 0.5)), Policy.EGT)


def place(sim, **states):
    """Set positions and speeds by vehicle id: ``AV=(s, v)``."""
    for vid, (s, v) in states.items():
        sim.s[sim.index[vid]], sim.v[sim.index[vid]] = s, v


def ramp_lane_change(sim, target):
    trace = SimTrace(seed=0, policy=Policy.EGT, dt=0.1, duration=10.0)
    sim.maneuver = Maneuver(ManeuverKind.MERGE_AHEAD, target=target)
    sim.try_lane_change(0.0, trace)
    return trace


def follow_expected(sim, vid, leader):
    i, j = sim.index[vid], sim.index[leader]
    s, v = sim.s, sim.v
    return idm_accel(sim.idm[i], v[i], body_gap(s[i], s[j]), v[i] - v[j])


def test_merged_av_leads_the_driver_behind_it_and_follows_its_front():
    sim = hand_placed_sim()
    place(sim, AV=(220.0, 12.0), MV1=(240.0, 10.0), MV2=(200.0, 11.0), MV3=(170.0, 9.0))
    assert ramp_lane_change(sim, "MV2").lane_change_time == 0.0
    assert sim.front == sim.index["MV1"]
    # MV3 cuts in between: the AV keeps following the vehicle it merged behind.
    place(sim, MV3=(230.0, 9.0))
    accel = sim.accelerations()
    assert accel[0] == follow_expected(sim, "AV", "MV1")
    assert accel[sim.index["MV2"]] == follow_expected(sim, "MV2", "AV")
    assert accel[sim.index["MV3"]] == follow_expected(sim, "MV3", "MV1")


def test_gamed_driver_keeps_a_half_metre_floor_behind_the_ramp_av():
    sim = hand_placed_sim()
    assert sim.opponent() == "MV2"
    # The AV is 3 m ahead on the ramp, so the bodies overlap: the gap is floored.
    place(sim, AV=(150.0, 11.0), MV1=(400.0, 10.0), MV2=(147.0, 1.0), MV3=(450.0, 10.0))
    i = sim.index["MV2"]
    leader = follow_expected(sim, "MV2", "MV1")
    cap = idm_accel(sim.idm[i], 1.0, 0.5, 1.0 - 11.0)
    assert cap < leader  # the cap binds
    assert sim.accelerations()[i] == cap


def test_overlap_brakes_at_emergency_decel():
    sim = hand_placed_sim()
    # The AV has claimed the tail slot and sits 3 m behind the platoon tail,
    # and MV1 overlaps its leader MV2.
    sim.maneuver = Maneuver(ManeuverKind.MERGE_AHEAD, target=None)
    place(sim, AV=(100.0, 10.0), MV1=(300.0, 10.0), MV2=(303.0, 10.0), MV3=(103.0, 10.0))
    accel = sim.accelerations()
    assert accel[0] == -EMERGENCY_DECEL
    assert accel[sim.index["MV1"]] == -EMERGENCY_DECEL
    assert accel[sim.index["MV2"]] == idm_accel(sim.idm[sim.index["MV2"]], 10.0, FREE_ROAD_GAP, 0.0)


def reference_step(sim):
    """The control step vehicle by vehicle from its rules: (commands, slew memory after the step)."""
    s, v, n = sim.s, sim.v, len(sim.s)
    lane = range(n) if sim.merged else range(1, n)

    def follow(i, j):
        if j is None:
            return idm_accel(sim.idm[i], v[i], FREE_ROAD_GAP, 0.0)
        gap = body_gap(s[i], s[j])
        return -EMERGENCY_DECEL if gap <= 0.0 else idm_accel(sim.idm[i], v[i], gap, v[i] - v[j])

    def leader(i):  # the nearest vehicle ahead on the main lane, the lowest index among ties
        ahead = [(s[j], j) for j in lane if s[j] > s[i]]
        return min(ahead)[1] if ahead else None

    tail = min((s[j], j) for j in range(1, n))[1]
    if sim.merged:
        accel = [follow(0, sim.front)]
    elif sim.maneuver.target is None and s[0] < s[tail]:
        accel = [follow(0, tail)]
    else:
        accel = [sim.av_accel(tail)]
    memory = list(sim.prev_accel)
    opp = None if sim.merged else sim.opponent()
    span = JERK_LIMIT * sim.cfg.dt
    for i in range(1, n):
        a = follow(i, leader(i))
        if sim.ids[i] == opp and s[0] > s[i]:
            a = min(a, idm_accel(sim.idm[i], v[i], max(body_gap(s[i], s[0]), 0.5), v[i] - v[0]))
        if memory[i] is not None:
            slewed = min(max(a, memory[i] - span), memory[i] + span)
            a = a if a <= EMERGENCY_TARGET and a < slewed else slewed
        memory[i] = a
        accel.append(a)
    return accel, memory


#: A small set of positions, so that ties and touching or overlapping bodies are common, plus floats.
STEP_POSITIONS = st.one_of(st.sampled_from([95.0, 100.0, 103.0, 105.0, 110.0, 200.0]),
                           st.floats(min_value=50.0, max_value=300.0))
STEP_SPEEDS = st.one_of(st.sampled_from([0.0, 10.0]), st.floats(min_value=0.0, max_value=25.0))
STEP_PREV = st.one_of(st.none(), st.sampled_from([-8.0, 0.0, 3.0]), st.floats(min_value=-8.0, max_value=3.0))


@st.composite
def step_states(draw):
    """A sim with 1-5 drivers in an arbitrary control state: lane, positions, slot claim, game, slew memory."""
    n = draw(st.integers(min_value=1, max_value=5))
    vehicles = tuple(VehicleSpec(f"MV{k + 1}", 100.0 + 20.0 * k, 10.0, HeadwaySpec("fixed", h))
                     for k, h in enumerate(draw(st.lists(st.floats(0.5, 3.5), min_size=n, max_size=n))))
    sim = _Sim(SimConfig(vehicles=vehicles, av=AvSpec(100.0, 10.0, 0.5)), Policy.EGT)
    sim.s = draw(st.lists(STEP_POSITIONS, min_size=n + 1, max_size=n + 1))
    sim.v = draw(st.lists(STEP_SPEEDS, min_size=n + 1, max_size=n + 1))
    sim.prev_accel = draw(st.lists(STEP_PREV, min_size=n + 1, max_size=n + 1))
    sim.merged = draw(st.booleans())
    sim.front = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=n)))
    sim.maneuver = Maneuver(draw(st.sampled_from(ManeuverKind)), draw(st.sampled_from([None, *sim.mv_ids])))
    sim.next_opponent = draw(st.integers(min_value=0, max_value=n))
    sim.periods = draw(st.integers(min_value=1, max_value=PROBE_PERIODS + 1))
    return sim


@settings(max_examples=400, deadline=None)
@given(step_states())
def test_control_step_matches_its_rules(sim):
    # Merged and ramp AV, a claimed tail, the gamed driver ahead of and behind
    # the AV, ties, overlaps, an empty slew memory and emergency targets.
    expected, memory = reference_step(sim)
    assert repr(sim.accelerations()) == repr(expected)
    assert repr(sim.prev_accel) == repr(memory)


AV_LAW_PLACEMENTS = [
    pytest.param(dict(AV=(100.0, 10.0), MV2=(80.0, 10.0), MV3=(50.0, 10.0)), id="on-schedule"),
    pytest.param(dict(AV=(185.0, 14.0), MV2=(150.0, 7.0), MV3=(30.0, 3.0)), id="near-merge"),
    pytest.param(dict(AV=(205.0, 0.0), MV2=(196.0, 0.0), MV3=(120.0, 12.0)), id="past-merge-stopped"),
]


@pytest.mark.parametrize("placement", AV_LAW_PLACEMENTS)
@pytest.mark.parametrize("branch", ["merge-ahead", "yield", "probe", "tail-claim"])
def test_av_law_matches_merge_control_on_its_game_context(placement, branch):
    sim = hand_placed_sim()
    place(sim, **placement)
    omega_hat = sim.beliefs["MV2"].omega_hat
    if branch == "tail-claim":
        # Tail slot claimed with the AV level with or ahead of the platoon tail MV3.
        sim.maneuver = Maneuver(ManeuverKind.MERGE_AHEAD, target=None)
        tracked = Maneuver(ManeuverKind.YIELD_SHIFT, target="MV3")
        omega_hat = sim.beliefs["MV3"].omega_hat
    else:
        kind = ManeuverKind.YIELD_SHIFT if branch == "yield" else ManeuverKind.MERGE_AHEAD
        sim.maneuver = tracked = Maneuver(kind, target="MV2")
    # MV2 is the first opponent; the probe lasts its first PROBE_PERIODS periods.
    sim.periods = 1 if branch == "probe" else PROBE_PERIODS + 1
    ctx = sim.context_for(tracked.target, omega_hat)
    expected = merge_control(ctx.av.dist_to_merge, ctx.av.speed, ctx.mv.dist_to_merge, ctx.mv.speed,
                             ctx.headway_t, yields=tracked.kind is ManeuverKind.YIELD_SHIFT)
    if branch == "probe":
        expected = max(expected, PROBE_ACCEL)
    assert sim.av_accel(sim.index["MV3"]) == expected


def test_lane_change_only_inside_the_convergence_area():
    sim = hand_placed_sim()
    place(sim, AV=(260.5, 10.0), MV1=(400.0, 10.0), MV2=(100.0, 10.0), MV3=(50.0, 10.0))
    assert ramp_lane_change(sim, "MV2").lane_change_time is None
    assert sim.view(0).lane is Lane.RAMP
    place(sim, AV=(260.0, 10.0))
    assert ramp_lane_change(sim, "MV2").lane_change_time == 0.0
    assert sim.view(0).lane is Lane.MAIN


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
    i = sim.index[opp]
    offset = sim.s[0] - sim.s[i]
    v_av, v_mv = sim.v[0], sim.v[i]
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
        place(sim, **{AV_ID: (av.s, av.v), opp: (mv.s, mv.v)})
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
        u_av = merge_control(ctx.av.dist_to_merge, ctx.av.speed, ctx.mv.dist_to_merge, ctx.mv.speed,
                             ctx.headway_t, yields=False)
        v_before = mv.v
        for _ in range(cfg.steps_per_period):
            av = step_kinematics(av, u_av, cfg.dt)
            mv = step_kinematics(mv, u_mv, cfg.dt)
        reaction = observed_reaction(mv.v, v_before)
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
