import math
from dataclasses import astuple, fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evomerge import (
    PayoffMatrix,
    StrategyState,
    build_matrix,
    deviation_gains,
    eigenvalues_at,
    integrate_replicator,
    integrate_replicator_batch,
    replicator_rhs,
    solve_ess,
)
from evomerge.egt import EIGENVALUE_ZERO_TOL, PURE_POINTS, _operative_ess

from conftest import assert_close

ZERO = PayoffMatrix(0, 0, 0, 0, 0, 0, 0, 0)

entries = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
matrices = st.builds(PayoffMatrix, *([entries] * 8))
probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        PayoffMatrix(math.nan, 0, 0, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        PayoffMatrix(0, 0, 0, math.inf, 0, 0, 0, 0)


def test_strategy_state_bounds():
    with pytest.raises(ValueError):
        StrategyState(-0.1, 0.5)
    with pytest.raises(ValueError):
        StrategyState(0.5, 1.1)


def test_replicator_rhs_boundary_fixed_point():
    m = PayoffMatrix(1, -2, 3, 4, -1, 2, 0, 5)
    assert replicator_rhs(m, StrategyState(1.0, 0.0)) == (0.0, 0.0)


def test_replicator_rhs_direct_substitution():
    # u11 - u21 = 2 ensures E_AV1 - E_AV2 = 2 at q = 1
    m = PayoffMatrix(u11=2.0, u12=0.0, u21=0.0, u22=0.0,
                     v11=0.0, v12=0.0, v21=0.0, v22=0.0)
    dp, dq = replicator_rhs(m, StrategyState(0.5, 1.0))
    assert dp == pytest.approx(0.5)
    assert dq == 0.0


def test_replicator_rhs_worked_matrix(worked_ctx, worked_bimatrix):
    u, v = worked_bimatrix
    m = build_matrix(worked_ctx)
    p = q = 0.5
    e_av1 = q * u[(1, 1)] + (1 - q) * u[(1, 2)]
    e_av2 = q * u[(2, 1)] + (1 - q) * u[(2, 2)]
    e_mv1 = p * v[(1, 1)] + (1 - p) * v[(2, 1)]
    e_mv2 = p * v[(1, 2)] + (1 - p) * v[(2, 2)]
    dp, dq = replicator_rhs(m, StrategyState(p, q))
    assert dp == pytest.approx(p * (1 - p) * (e_av1 - e_av2), abs=1e-12)
    assert dq == pytest.approx(q * (1 - q) * (e_mv1 - e_mv2), abs=1e-12)


def test_eigenvalues_zero_matrix():
    for point in PURE_POINTS:
        assert eigenvalues_at(ZERO, point) == (0.0, 0.0)


def test_eigenvalues_worked_matrix(worked_ctx):
    m = build_matrix(worked_ctx)
    lam1, lam2 = eigenvalues_at(m, StrategyState(0.0, 1.0))
    assert_close(lam1, -2.710)
    assert_close(lam2, -2.691)


def test_eigenvalue_single_term():
    # u11 - u21 = -c at q = 1 gives lambda1 = -c at the point (0, 1)
    c = 3.7
    m = PayoffMatrix(u11=-c, u12=0.0, u21=0.0, u22=0.0,
                     v11=0.0, v12=0.0, v21=0.0, v22=0.0)
    lam1, _ = eigenvalues_at(m, StrategyState(0.0, 1.0))
    assert lam1 == pytest.approx(-c)


def test_eigenvalues_rejects_mixed_point():
    with pytest.raises(ValueError):
        eigenvalues_at(ZERO, StrategyState(0.5, 0.5))


def test_solve_ess_zero_matrix_degenerate():
    report = solve_ess(ZERO)
    assert report.ess is None
    assert report.stable_points == ()


def test_solve_ess_worked_matrix(worked_ctx):
    report = solve_ess(build_matrix(worked_ctx))
    assert report.ess == StrategyState(0.0, 1.0)
    # the mirrored convention (AV yields, MV pushes) is also attracting here,
    # so the report must flag the multiplicity for the decision layer
    assert not report.has_unique_ess
    assert set(report.stable_points) == {StrategyState(0.0, 1.0), StrategyState(1.0, 0.0)}


def test_deviation_gains_are_the_pure_point_eigenvalues(worked_ctx):
    m = build_matrix(worked_ctx)
    assert deviation_gains(m) == tuple(eigenvalues_at(m, point) for point in PURE_POINTS)
    # at (0, 1) the AV gains u11 - u21 by yielding instead, the MV v22 - v21
    # by accelerating instead
    assert deviation_gains(m)[1] == (m.u11 - m.u21, m.v22 - m.v21)


def test_solve_ess_near_tie_goes_to_smaller_profile():
    # (0, 1) and (1, 0) are both stable; the slowest rates differ by 1e-12,
    # below the eigenvalue tolerance, so (0, 1) wins although (1, 0) is
    # faster by that margin
    eps = 1e-12
    m = PayoffMatrix(u11=-1.0, u12=0.0, u21=0.0, u22=-1.0,
                     v11=-1.0, v12=0.0, v21=0.0, v22=-1.0 + eps)
    report = solve_ess(m)
    assert set(report.stable_points) == {StrategyState(0.0, 1.0), StrategyState(1.0, 0.0)}
    assert report.ess == StrategyState(0.0, 1.0)
    # a gap well beyond the tolerance still goes to the faster point
    m = PayoffMatrix(u11=-1.0, u12=0.0, u21=0.0, u22=-1.5,
                     v11=-1.5, v12=0.0, v21=0.0, v22=-1.0)
    assert solve_ess(m).ess == StrategyState(1.0, 0.0)


# Half the games have small integer entries, so ties and zero gains are common.
tie_prone = st.builds(PayoffMatrix, *([st.integers(-2, 2).map(float)] * 8))


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrices, tie_prone))
@example(PayoffMatrix(-1.0, 0.0, 0.0, -1.0, -1.0, 0.0, 0.0, -1.0))  # (0, 1) and (1, 0) tie exactly
def test_operative_ess_is_the_reported_ess(m):
    report = solve_ess(m)
    assert _operative_ess(deviation_gains(m)) == report.ess
    # the documented rule, applied to the report's stable points and their gains
    gains = dict(zip(PURE_POINTS, deviation_gains(m)))
    stable = [(max(gains[point]), point) for point in report.stable_points]
    expected = None
    if stable:
        fastest = min(rate for rate, _ in stable)
        expected = min(
            (point for rate, point in stable if rate - fastest <= EIGENVALUE_ZERO_TOL),
            key=lambda point: (point.p, point.q),
        )
    assert report.ess == expected


@settings(max_examples=60, deadline=None)
@given(matrices, probs, probs)
def test_pure_points_are_exact_fixed_points(m, p, q):
    for point in PURE_POINTS:
        assert replicator_rhs(m, point) == (0.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(matrices, st.floats(min_value=-5, max_value=5, allow_nan=False))
def test_shift_invariance_of_classification(m, c):
    shifted = PayoffMatrix(m.u11 + c, m.u12 + c, m.u21 + c, m.u22 + c,
                           m.v11 + c, m.v12 + c, m.v21 + c, m.v22 + c)
    for point in PURE_POINTS:
        base = eigenvalues_at(m, point)
        moved = eigenvalues_at(shifted, point)
        assert moved[0] == pytest.approx(base[0], abs=1e-9)
        assert moved[1] == pytest.approx(base[1], abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(matrices, st.floats(min_value=0.1, max_value=10, allow_nan=False))
def test_positive_scaling_equivariance(m, alpha):
    scaled = PayoffMatrix(*[alpha * x for x in
                            (m.u11, m.u12, m.u21, m.u22, m.v11, m.v12, m.v21, m.v22)])
    for point in PURE_POINTS:
        base = eigenvalues_at(m, point)
        big = eigenvalues_at(scaled, point)
        assert big[0] == pytest.approx(alpha * base[0], rel=1e-9, abs=1e-12)
        assert big[1] == pytest.approx(alpha * base[1], rel=1e-9, abs=1e-12)


def test_integrate_constant_at_pure_point():
    m = PayoffMatrix(1, 2, 3, 4, 4, 3, 2, 1)
    traj = integrate_replicator(m, StrategyState(1.0, 1.0), dt=0.01, steps=50)
    assert len(traj) == 51
    assert all(s == StrategyState(1.0, 1.0) for s in traj)


def test_integrate_zero_matrix_constant():
    traj = integrate_replicator(ZERO, StrategyState(0.3, 0.8), dt=0.01, steps=20)
    assert all(s == StrategyState(0.3, 0.8) for s in traj)


def test_integrate_worked_matrix_converges(worked_ctx):
    m = build_matrix(worked_ctx)
    traj = integrate_replicator(m, StrategyState(0.01, 0.99), dt=0.01, steps=5000)
    final = traj[-1]
    assert abs(final.p - 0.0) < 1e-3
    assert abs(final.q - 1.0) < 1e-3


def test_integrate_validates_arguments():
    with pytest.raises(ValueError):
        integrate_replicator(ZERO, StrategyState(0.5, 0.5), dt=0.0, steps=10)
    with pytest.raises(ValueError):
        integrate_replicator(ZERO, StrategyState(0.5, 0.5), dt=0.01, steps=0)


def test_batch_integrator_matches_scalar():
    rng = np.random.default_rng(7)
    for _ in range(5):
        m = PayoffMatrix(*rng.uniform(-10, 10, size=8))
        starts = rng.uniform(0, 1, size=(8, 2))
        finals = integrate_replicator_batch(m, starts, dt=0.01, steps=400)
        for start, final in zip(starts, finals):
            traj = integrate_replicator(m, StrategyState(*start), dt=0.01, steps=400)
            assert final[0] == pytest.approx(traj[-1].p, abs=1e-10)
            assert final[1] == pytest.approx(traj[-1].q, abs=1e-10)


def test_stability_matches_trajectories_on_random_matrices():
    # small-scale twin of the full acceptance check; every (matrix, stable
    # point) start set is integrated in one batch, payoff entries repeated
    # per start row
    rng = np.random.default_rng(42)
    entries, starts, targets = [], [], []
    checked = 0
    while checked < 40:
        m = PayoffMatrix(*rng.uniform(-10, 10, size=8))
        lams = [eigenvalues_at(m, pt) for pt in PURE_POINTS]
        if min(abs(x) for pair in lams for x in pair) < 0.05:
            continue  # degenerate-near case, excluded as in the acceptance gate
        checked += 1
        report = solve_ess(m)
        for point in report.stable_points:
            starts.append(np.clip(
                np.array([point.p, point.q]) + rng.uniform(-0.008, 0.008, size=(30, 2)),
                0.0, 1.0,
            ))
            entries.append(np.tile(astuple(m), (30, 1)))
            targets.append(np.tile([point.p, point.q], (30, 1)))
    columns = np.concatenate(entries).T
    batch = SimpleNamespace(**{f.name: col for f, col in zip(fields(PayoffMatrix), columns)})
    finals = integrate_replicator_batch(batch, np.concatenate(starts), dt=0.01, steps=5000)
    dist = np.abs(finals - np.concatenate(targets)).max(axis=1)
    assert dist.max() < 1e-3
