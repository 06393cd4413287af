from dataclasses import replace
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evomerge import (
    AgentView,
    GameContext,
    Reaction,
    StabilityInterval,
    StrategyState,
    StyleBelief,
    build_matrix,
    ess_stability_interval,
    observed_reaction,
    solve_ess,
    update_belief,
)
from evomerge import estimation
from evomerge.egt import PURE_POINTS
from evomerge.estimation import REACTION_DEADBAND
from evomerge.payoff import CellTable


def ctx_for(d_av, d_mv, omega_hat=0.5, headway=2.0, v=10.0):
    return GameContext(
        av=AgentView(d_av, v), mv=AgentView(d_mv, v),
        av_omega=0.5, mv_omega=omega_hat,
        headway_t=headway,
    )


def test_belief_invariants():
    b = StyleBelief()
    assert b.k_l == 0.0 and b.k_u == 1.0 and b.omega_hat == 0.5
    assert not b.inconsistent
    with pytest.raises(ValueError):
        StyleBelief(0.7, 0.3)
    collapsed = StyleBelief(0.5, 0.5)  # only a collapse makes the bounds equal
    assert collapsed.inconsistent and collapsed.omega_hat == 0.5


def test_observed_reaction_equality_is_not_acceleration():
    assert observed_reaction(10.0, 10.0) == Reaction(False)


def test_observed_reaction_clear_increase():
    assert observed_reaction(10.5, 10.0) == Reaction(True)


def test_observed_reaction_deadband():
    assert observed_reaction(10.0 + 0.9 * REACTION_DEADBAND, 10.0) == Reaction(False)
    assert observed_reaction(10.0 + 1.1 * REACTION_DEADBAND, 10.0) == Reaction(True)


def test_stability_interval_worked_context(worked_ctx):
    report = solve_ess(build_matrix(worked_ctx))
    interval = ess_stability_interval(worked_ctx, report.ess)
    assert not interval.stale
    assert interval.lo < 0.5 < interval.hi

    # dense-scan oracle at 1e-4 resolution, independent of the walk+bisect path
    def holds(omega):
        ctx = replace(worked_ctx, mv_omega=omega)
        return solve_ess(build_matrix(ctx)).ess == report.ess

    step = 1e-4
    lo = 0.5
    while lo - step >= 0.0 and holds(lo - step):
        lo -= step
    hi = 0.5
    while hi + step <= 1.0 and holds(hi + step):
        hi += step
    if lo - step < 0.0:
        lo = 0.0
    if hi + step > 1.0:
        hi = 1.0
    assert interval.lo == pytest.approx(lo, abs=2e-4)
    assert interval.hi == pytest.approx(hi, abs=2e-4)


def test_stability_interval_full_range():
    # decisively ahead at close range, the merging vehicle wins the slot for
    # every style weight: the solver returns the same point over the whole
    # scan range
    ctx = ctx_for(20.0, 40.0)
    report = solve_ess(build_matrix(ctx))
    interval = ess_stability_interval(ctx, report.ess)
    assert (interval.lo, interval.hi) == (0.0, 1.0)
    assert not interval.stale


def test_stability_interval_stale_context(worked_ctx):
    wrong = StrategyState(1.0, 1.0)
    interval = ess_stability_interval(worked_ctx, wrong)
    assert interval.stale
    assert interval.lo == interval.hi == worked_ctx.mv_omega


contexts = st.builds(
    lambda d_av, v_av, d_mv, v_mv, headway, omega_hat: GameContext(
        av=AgentView(d_av, v_av), mv=AgentView(d_mv, v_mv),
        av_omega=0.5, mv_omega=omega_hat,
        headway_t=headway,
    ),
    st.floats(min_value=0.0, max_value=200.0),
    st.floats(min_value=0.5, max_value=25.0),
    st.floats(min_value=0.0, max_value=200.0),
    st.floats(min_value=0.5, max_value=25.0),
    st.floats(min_value=0.5, max_value=3.5),
    st.floats(min_value=0.01, max_value=0.99),
)


@settings(max_examples=300, deadline=None)
@given(contexts)
def test_stability_interval_is_exact(ctx):
    report = solve_ess(build_matrix(ctx))
    table = CellTable(ctx)
    ess = report.ess
    interval = ess_stability_interval(ctx, ess)
    assert not interval.stale
    assert 0.0 <= interval.lo <= ctx.mv_omega <= interval.hi <= 1.0

    def holds(omega):
        return solve_ess(table.matrix_at(omega)).ess == ess

    assert holds(interval.lo)
    assert holds(interval.hi)
    assert holds(0.5 * (interval.lo + interval.hi))
    if interval.lo > 0.0:
        assert not holds(max(interval.lo - 1e-6, 0.0))
    if interval.hi < 1.0:
        assert not holds(min(interval.hi + 1e-6, 1.0))


@pytest.mark.parametrize("d_av, d_mv", [(80.0, 100.0), (60.0, 100.0), (90.0, 100.0), (40.0, 60.0)])
def test_stability_interval_bounds_sit_on_breakpoints(d_av, d_mv):
    # well-conditioned contexts: the upper bound is a line crossing (80/100)
    # or a stability threshold (90/100), and rounding leaves it within
    # ~1e-14 of the exact root, so one step of 1e-12 past it must fail
    ctx = ctx_for(d_av, d_mv)
    ess = solve_ess(build_matrix(ctx)).ess
    interval = ess_stability_interval(ctx, ess)
    table = CellTable(ctx)
    assert interval.lo == 0.0 and interval.hi < 1.0
    assert solve_ess(table.matrix_at(interval.hi)).ess == ess
    assert solve_ess(table.matrix_at(interval.hi + 1e-12)).ess != ess


def test_tied_stable_points_keep_one_ess_across_styles():
    # both vehicles at the merge point: (0, 1) and (1, 0) are both stable
    # with slowest eigenvalue -6 for every style weight, and only rounding
    # noise separates them, so the tie goes to the smaller (p, q) throughout
    ctx = GameContext(
        av=AgentView(2.2e-16, 1.0), mv=AgentView(0.0, 0.5),
        av_omega=0.5, mv_omega=0.7,
        headway_t=0.5,
    )
    table = CellTable(ctx)
    at_07, at_10 = (solve_ess(table.matrix_at(omega)) for omega in (0.7, 1.0))
    assert len(at_07.stable_points) == len(at_10.stable_points) == 2
    assert at_07.ess == at_10.ess == StrategyState(0.0, 1.0)
    assert ess_stability_interval(ctx, at_07.ess) == StabilityInterval(0.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(contexts, st.sampled_from([None, *PURE_POINTS]))
def test_stability_interval_stale_when_ess_differs(ctx, wrong):
    if wrong == solve_ess(build_matrix(ctx)).ess:
        return
    interval = ess_stability_interval(ctx, wrong)
    assert interval == StabilityInterval(ctx.mv_omega, ctx.mv_omega, stale=True)


def fixed_interval(lo, hi):
    """Make every stability interval the estimator computes inside the block [lo, hi]."""
    return patch.object(estimation, "ess_stability_interval", lambda ctx, ess: StabilityInterval(lo, hi))


def test_update_belief_yield_contradicted(worked_ctx):
    belief = StyleBelief()
    with fixed_interval(0.38, 0.71):
        out = update_belief(belief, StrategyState(0.0, 1.0), Reaction(True), worked_ctx)
    assert out.k_l == pytest.approx(0.71)
    assert out.k_u == 1.0
    assert out.omega_hat == pytest.approx(0.855)


def test_update_belief_confirmed_yield_is_noop(worked_ctx):
    belief = StyleBelief()
    out = update_belief(belief, StrategyState(0.0, 1.0), Reaction(False), worked_ctx)
    assert out == belief


def test_update_belief_push_contradicted(worked_ctx):
    belief = StyleBelief()
    with fixed_interval(0.38, 0.71):
        out = update_belief(belief, StrategyState(0.0, 0.0), Reaction(False), worked_ctx)
    assert out.k_u == pytest.approx(0.38)
    assert out.k_l == 0.0
    assert out.omega_hat == pytest.approx(0.19)


def test_update_belief_confirmed_push_is_noop(worked_ctx):
    belief = StyleBelief()
    out = update_belief(belief, StrategyState(0.0, 0.0), Reaction(True), worked_ctx)
    assert out == belief


def test_update_belief_collapse_flags_inconsistency(worked_ctx):
    belief = StyleBelief(0.6, 0.8)
    with fixed_interval(0.55, 0.9):  # hi beyond k_u collapses
        out = update_belief(belief, StrategyState(0.0, 1.0), Reaction(True), worked_ctx)
    assert out.inconsistent
    assert out.k_l == out.k_u == pytest.approx(belief.omega_hat)
    # further updates are no-ops
    with fixed_interval(0.1, 0.9):
        again = update_belief(out, StrategyState(0.0, 1.0), Reaction(True), worked_ctx)
    assert again == out


bounds = st.tuples(
    st.floats(min_value=0.0, max_value=0.45),
    st.floats(min_value=0.55, max_value=1.0),
)


@settings(max_examples=80, deadline=None)
@given(
    bounds,
    st.lists(
        st.tuples(st.booleans(), st.floats(min_value=0.02, max_value=0.4),
                  st.floats(min_value=0.02, max_value=0.4)),
        min_size=1, max_size=8,
    ),
)
def test_interval_never_widens(init, rounds):
    worked_ctx = ctx_for(80.0, 100.0)
    belief = StyleBelief(*init)
    width = belief.k_u - belief.k_l
    yield_point = StrategyState(0.0, 1.0)
    push_point = StrategyState(0.0, 0.0)
    for contradiction_is_push, below, above in rounds:
        mid = belief.omega_hat
        with fixed_interval(max(0.0, mid - below), min(1.0, mid + above)):
            if contradiction_is_push:
                belief = update_belief(belief, push_point, Reaction(False), worked_ctx)
            else:
                belief = update_belief(belief, yield_point, Reaction(True), worked_ctx)
        new_width = belief.k_u - belief.k_l
        assert new_width <= width + 1e-12
        width = new_width


def test_idle_safety_no_update_without_contradiction(worked_ctx):
    belief = StyleBelief(0.2, 0.9)
    for ess, reaction in (
        (StrategyState(0.0, 1.0), Reaction(False)),
        (StrategyState(0.0, 0.0), Reaction(True)),
        (StrategyState(1.0, 1.0), Reaction(False)),
    ):
        assert update_belief(belief, ess, reaction, worked_ctx) == belief
