import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from evomerge import (
    AgentView,
    AvMove,
    GameContext,
    MvMove,
    Role,
    StrategyPair,
    StrategyState,
    build_matrix,
    cell_costs,
    conflict_weight,
    deviation_gains,
    ess_stability_interval,
    required_avg_accel,
    solve_ess,
    target_arrival_time,
)
from evomerge.egt import _operative_ess
from evomerge.payoff import ARRIVAL_TIME_FLOOR, CellTable

from conftest import WORKED, assert_close, oracle_cell

MY = StrategyPair(AvMove.MERGE, MvMove.YIELD)
YA = StrategyPair(AvMove.YIELD, MvMove.ACCELERATE)
MA = StrategyPair(AvMove.MERGE, MvMove.ACCELERATE)
YY = StrategyPair(AvMove.YIELD, MvMove.YIELD)


def ctx_for(d_av, v_av, d_mv, v_mv, headway=2.0, w_av=0.5, w_mv=0.5):
    return GameContext(
        av=AgentView(d_av, v_av), mv=AgentView(d_mv, v_mv),
        av_omega=w_av, mv_omega=w_mv,
        headway_t=headway,
    )


def test_style_validation():
    for w_av, w_mv in ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)):
        with pytest.raises(ValueError):
            ctx_for(80, 10, 100, 10, w_av=w_av, w_mv=w_mv)


def test_headway_margin_validation():
    with pytest.raises(ValueError):
        ctx_for(80, 10, 100, 10, headway=0.0)


def test_agent_view_validation():
    with pytest.raises(ValueError):
        AgentView(-1.0, 10.0)
    with pytest.raises(ValueError):
        AgentView(10.0, 0.0)


def test_arrival_time_go_branch():
    assert target_arrival_time(ctx_for(80, 10, 100, 10), Role.AV, yields=False) == pytest.approx(8.0)


def test_arrival_time_yield_branch():
    assert target_arrival_time(ctx_for(80, 10, 100, 10), Role.AV, yields=True) == pytest.approx(12.0)


def test_arrival_time_clamped_when_opponent_close():
    assert target_arrival_time(ctx_for(80, 10, 10, 10), Role.AV, yields=False) == ARRIVAL_TIME_FLOOR


def test_arrival_time_uses_opponent_fields():
    ctx = ctx_for(80, 10, 100, 10)
    assert target_arrival_time(ctx, Role.MV, yields=False) == pytest.approx(80 / 10 - 2)


def test_required_avg_accel_zero_case():
    assert required_avg_accel(80, 10, 8) == 0.0


def test_required_avg_accel_positive():
    assert required_avg_accel(100, 10, 6) == pytest.approx(2.2222, abs=1e-3)


def test_required_avg_accel_negative():
    assert required_avg_accel(80, 10, 12) == pytest.approx(-0.5556, abs=1e-3)


def test_required_avg_accel_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        required_avg_accel(80, 10, 0.0)


def test_conflict_weight_table():
    assert conflict_weight(MA) == 1
    assert conflict_weight(YY) == 1
    assert conflict_weight(MY) == 0
    assert conflict_weight(YA) == 0


@pytest.fixture
def worked(worked_ctx):
    return worked_ctx


def test_cell_costs_worked_merge_yield(worked):
    cell = cell_costs(worked, MY)
    assert_close(cell.j_av, 4.000)
    assert_close(cell.j_mv, 5.000)


def test_cell_costs_worked_yield_accelerate(worked):
    cell = cell_costs(worked, YA)
    assert_close(cell.j_av, 6.154)
    assert_close(cell.j_mv, 5.469)


def test_cell_costs_worked_merge_accelerate(worked):
    cell = cell_costs(worked, MA)
    assert_close(cell.j_av, 6.222)
    assert_close(cell.j_mv, 7.691)


def test_cell_costs_match_oracle_everywhere(worked):
    pairs = {
        YY: (True, True), YA: (True, False), MY: (False, True), MA: (False, False),
    }
    for pair, (av_yields, mv_yields) in pairs.items():
        cell = cell_costs(worked, pair)
        ref = oracle_cell(
            WORKED["d_av"], WORKED["v_av"], WORKED["d_mv"], WORKED["v_mv"],
            WORKED["headway"], WORKED["w_av"], WORKED["w_mv"], av_yields, mv_yields,
        )
        assert cell.j_av == pytest.approx(ref.j_av, abs=1e-12)
        assert cell.j_mv == pytest.approx(ref.j_mv, abs=1e-12)


def test_build_matrix_worked_entries(worked):
    m = build_matrix(worked)
    assert_close(m.u21, -4.000)
    assert_close(m.v21, -5.000)
    assert_close(m.u11, -6.710)
    assert_close(m.v22, -7.691)


def test_build_matrix_deterministic(worked):
    assert build_matrix(worked) == build_matrix(worked)


def test_efficiency_only_limit_reduces_to_arrival_times():
    # with the style weight at the efficiency end and symmetric states, the
    # fitness gap between the two conflict-free cells is exactly the
    # arrival-time gap of the yield and go branches
    ctx = ctx_for(100, 10, 100, 10, w_av=1 - 1e-9, w_mv=0.5)
    m = build_matrix(ctx)
    t_yield = 100 / 10 + 2
    t_go = 100 / 10 - 2
    assert m.u12 - m.u21 == pytest.approx(-(t_yield - t_go), abs=1e-6)


def test_fitness_is_negated_cost_exactly(worked):
    m = build_matrix(worked)
    assert m.u11 == -cell_costs(worked, YY).j_av
    assert m.u12 == -cell_costs(worked, YA).j_av
    assert m.u21 == -cell_costs(worked, MY).j_av
    assert m.u22 == -cell_costs(worked, MA).j_av
    assert m.v11 == -cell_costs(worked, YY).j_mv
    assert m.v22 == -cell_costs(worked, MA).j_mv


def test_arrival_floor_reaches_cell_costs():
    # the opponent is 1 s from the merge point, so the AV's go branch is floored
    assert cell_costs(ctx_for(80, 10, 10, 10), MY).t_av == ARRIVAL_TIME_FLOOR


dists = st.floats(min_value=10.0, max_value=300.0)
speeds = st.floats(min_value=2.0, max_value=25.0)
weights = st.floats(min_value=0.05, max_value=0.95)
margins = st.floats(min_value=0.5, max_value=3.0)


@settings(max_examples=60, deadline=None)
@given(dists, speeds, dists, speeds, margins, weights, weights)
def test_yield_ordering_gap_is_twice_headway(d_av, v_av, d_mv, v_mv, T, w_av, w_mv):
    ctx = ctx_for(d_av, v_av, d_mv, v_mv, T, w_av, w_mv)
    go = target_arrival_time(ctx, Role.AV, yields=False)
    assume(go > ARRIVAL_TIME_FLOOR)  # not floored
    stay = target_arrival_time(ctx, Role.AV, yields=True)
    assert stay - go == pytest.approx(2 * T, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(dists, speeds, dists, speeds, margins, weights, weights, weights)
def test_style_weight_monotonicity(d_av, v_av, d_mv, v_mv, T, w_av, w_lo, w_hi):
    assume(abs(w_hi - w_lo) > 1e-3)
    w_lo, w_hi = min(w_lo, w_hi), max(w_lo, w_hi)
    lo = cell_costs(ctx_for(d_av, v_av, d_mv, v_mv, T, w_av, w_lo), MY)
    hi = cell_costs(ctx_for(d_av, v_av, d_mv, v_mv, T, w_av, w_hi), MY)
    # arrival time and acceleration do not depend on the weight, so the
    # efficiency share strictly grows and the comfort share strictly shrinks
    assert hi.t_mv == lo.t_mv and hi.a_mv == lo.a_mv
    assert w_hi * hi.t_mv > w_lo * lo.t_mv
    if lo.a_mv != 0.0:
        assert (1 - w_hi) * hi.a_mv**2 < (1 - w_lo) * lo.a_mv**2


@settings(max_examples=60, deadline=None)
@given(dists, speeds, dists, speeds, margins, weights, weights)
def test_conflict_symmetry(d_av, v_av, d_mv, v_mv, T, w_av, w_mv):
    ctx = ctx_for(d_av, v_av, d_mv, v_mv, T, w_av, w_mv)
    for pair in (YY, MA):
        cell = cell_costs(ctx, pair)
        base_av = ctx.av_omega * cell.t_av + (1 - ctx.av_omega) * cell.a_av**2
        base_mv = ctx.mv_omega * cell.t_mv + (1 - ctx.mv_omega) * cell.a_mv**2
        assert cell.j_av - base_av == pytest.approx(cell.j_mv - base_mv, rel=1e-9, abs=1e-12)


def test_zero_acceleration_consistency():
    # both players arrive exactly on their free-flight schedule in the
    # merge/yield cell, so comfort and safety vanish
    ctx = ctx_for(80, 10, 100, 10, headway=2.0, w_av=0.3, w_mv=0.7)
    cell = cell_costs(ctx, MY)
    assert cell.a_av == 0.0 and cell.a_mv == 0.0
    assert cell.j_av == pytest.approx(0.3 * cell.t_av)
    assert cell.j_mv == pytest.approx(0.7 * cell.t_mv)


@settings(max_examples=40, deadline=None)
@given(dists, speeds, dists, speeds, margins, weights, weights)
@example(10.0, 3.0, 10.0, 2.0, 3.0, 0.5, 0.5)
@example(36.0, 11.0, 242.0, 5.0, 1.5, 0.5, 0.9)  # (1-w)*a*a != (1-w)*(a*a) here
@example(10.0, 10.0, 10.0, 5.0, 1.5, 0.5, 0.5)  # both go branches at ARRIVAL_TIME_FLOOR
def test_cell_table_matches_build_matrix(d_av, v_av, d_mv, v_mv, T, w_av, w_mv):
    ctx = ctx_for(d_av, v_av, d_mv, v_mv, T, w_av, w_mv)
    m = build_matrix(ctx)
    assert CellTable(ctx).matrix_at(ctx.mv_omega) == m
    cells = [cell_costs(ctx, pair) for pair in (YY, YA, MY, MA)]
    assert (m.u11, m.u12, m.u21, m.u22) == tuple(-c.j_av for c in cells)
    assert (m.v11, m.v12, m.v21, m.v22) == tuple(-c.j_mv for c in cells)


scan_omegas = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))


@settings(max_examples=100, deadline=None)
@given(dists, speeds, dists, speeds, margins, weights, weights, scan_omegas)
@example(10.0, 10.0, 10.0, 5.0, 1.5, 0.5, 0.5, 0.0)  # both go branches at ARRIVAL_TIME_FLOOR
@example(80.0, 10.0, 100.0, 10.0, 2.0, 0.3, 0.7, 1.0)  # zero-acceleration cell
def test_gains_at_matches_the_matrix_path(d_av, v_av, d_mv, v_mv, T, w_av, w_mv, omega):
    table = CellTable(ctx_for(d_av, v_av, d_mv, v_mv, T, w_av, w_mv))
    m = table.matrix_at(omega)
    gains = table.gains_at(omega)
    # repr tells -0.0 from 0.0, which == does not: the two paths agree bit for bit.
    assert repr(gains) == repr(deviation_gains(m))
    assert _operative_ess(gains) == solve_ess(m).ess


@pytest.mark.parametrize("d_av, v_av, d_mv, v_mv", [
    pytest.param(1e300, 1.0, 100.0, 10.0, id="av-accel-squared"),
    pytest.param(100.0, 10.0, 1e300, 1.0, id="mv-accel-squared"),
])
def test_overflowing_costs_are_rejected(d_av, v_av, d_mv, v_mv):
    ctx = ctx_for(d_av, v_av, d_mv, v_mv)
    with pytest.raises(ValueError):
        build_matrix(ctx)
    with pytest.raises(ValueError):
        ess_stability_interval(ctx, StrategyState(0.0, 1.0))
    with pytest.raises(ValueError):
        CellTable(ctx)


def test_cell_table_rejects_costs_that_overflow_only_at_other_styles():
    # At omega = 1 - 1e-9 the MV's comfort term (1e-9 a) a stays finite, but
    # a * a overflows, so the table's scan at omega = 0 would not be finite.
    ctx = ctx_for(100.0, 10.0, 7.2e157, 1.0, w_mv=1.0 - 1e-9)
    with pytest.raises(ValueError, match="not finite"):
        CellTable(ctx)
