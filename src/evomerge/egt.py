"""Asymmetric 2x2 evolutionary game solver.

Two populations (the merging AV and the opposing main-road vehicle) each mix
over two actions.  The state (p, q) holds the probability that the AV yields
and that the MV yields; the replicator vector field

    F(p) = p (1 - p) (E_AV1 - E_AV2)
    F(q) = q (1 - q) (E_MV1 - E_MV2)

drives each population toward the action with above-average fitness.  An
evolutionarily stable strategy is a pure rest point whose Jacobian (diagonal
at pure points) has two strictly negative eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Eigenvalues closer to zero than this are treated as exactly zero, so the
# strict-negativity test fails and the point is not stable.  Guards against
# classifying marginally stable points under floating-point noise.
EIGENVALUE_ZERO_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class PayoffMatrix:
    """Fitness bimatrix of the merging game.

    Row index 1 is AV Yield, row 2 is AV Merge; column index 1 is MV Yield,
    column 2 is MV Accelerate.  ``u`` entries are AV fitness, ``v`` entries
    MV fitness (fitness = negated multi-objective cost).
    """

    u11: float
    u12: float
    u21: float
    u22: float
    v11: float
    v12: float
    v21: float
    v22: float

    def __post_init__(self) -> None:
        for name in ("u11", "u12", "u21", "u22", "v11", "v12", "v21", "v22"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"payoff entry {name} is not finite")


@dataclass(frozen=True, slots=True)
class StrategyState:
    """Mixed-strategy pair: p = P(AV yields), q = P(MV yields)."""

    p: float
    q: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.q <= 1.0):
            raise ValueError(f"strategy probabilities outside [0,1]: ({self.p}, {self.q})")

    def is_pure(self) -> bool:
        return self.p in (0.0, 1.0) and self.q in (0.0, 1.0)


#: The four pure rest points, in canonical order E1..E4.
PURE_POINTS: tuple[StrategyState, ...] = (
    StrategyState(0.0, 0.0),
    StrategyState(0.0, 1.0),
    StrategyState(1.0, 0.0),
    StrategyState(1.0, 1.0),
)


def _gaps(m: PayoffMatrix, p, q):
    """(E_AV1 - E_AV2, E_MV1 - E_MV2) at (p, q), on floats or arrays.

    Each player's fitness advantage of yielding over going; the replicator
    field and the deviation gains are both read off these two gaps.
    """
    return (
        q * (m.u11 - m.u21) + (1.0 - q) * (m.u12 - m.u22),
        p * (m.v11 - m.v12) + (1.0 - p) * (m.v21 - m.v22),
    )


def _field(m: PayoffMatrix, p, q):
    gap_av, gap_mv = _gaps(m, p, q)
    return p * (1.0 - p) * gap_av, q * (1.0 - q) * gap_mv


def replicator_rhs(m: PayoffMatrix, s: StrategyState) -> tuple[float, float]:
    """Replicator vector field (dp/dt, dq/dt) at state s."""
    return _field(m, s.p, s.q)


def eigenvalues_at(m: PayoffMatrix, point: StrategyState) -> tuple[float, float]:
    """Jacobian eigenvalues at a pure rest point.

    At pure points the off-diagonal Jacobian terms carry factors p(1-p) or
    q(1-q) and vanish, so the matrix is diagonal and the eigenvalues are

        lambda1 = (1 - 2p) (E_AV1 - E_AV2)|q
        lambda2 = (1 - 2q) (E_MV1 - E_MV2)|p

    which are exactly each player's fitness gain from switching action while
    the other keeps its own.  Interior points are rejected: the Jacobian is
    not diagonal there and the rest point is classified by construction in
    :func:`solve_ess`.
    """
    if not point.is_pure():
        raise ValueError(f"eigenvalues_at requires a pure point, got ({point.p}, {point.q})")
    return deviation_gains(m)[PURE_POINTS.index(point)]


def deviation_gains(m: PayoffMatrix) -> tuple[tuple[float, float], ...]:
    """(AV gain, MV gain) from a unilateral switch at each of :data:`PURE_POINTS`.

    These are the Jacobian eigenvalues of :func:`eigenvalues_at`.  A pure
    point is a Nash profile when neither gain is positive, and an ESS
    (asymptotically stable rest point) when both are strictly negative.
    """
    gains = []
    for point in PURE_POINTS:
        gap_av, gap_mv = _gaps(m, point.p, point.q)
        gains.append(((1.0 - 2.0 * point.p) * gap_av, (1.0 - 2.0 * point.q) * gap_mv))
    return tuple(gains)


@dataclass(frozen=True, slots=True)
class EquilibriumReport:
    """Stable rest points of the replicator system and the operative equilibrium.

    ``stable_points`` lists the asymptotically stable pure points in
    :data:`PURE_POINTS` order; their eigenvalues are the
    :func:`deviation_gains` of the matrix.  ``ess`` carries the operative
    equilibrium: the unique stable pure point, or, when several pure points
    are stable, the most strongly attracting one
    (smallest slowest eigenvalue; slowest eigenvalues within
    ``EIGENVALUE_ZERO_TOL`` of each other count as tied and go to the smaller
    (p, q)).  ``multiple_stable`` flags the latter case so the decision layer
    can fall back conservatively; ``ess`` is None when no pure point is
    stable.  ``interior`` is the interior rest point, when it exists; it is
    never stable.
    """

    stable_points: tuple[StrategyState, ...]
    ess: Optional[StrategyState]
    interior: Optional[StrategyState]

    @property
    def multiple_stable(self) -> bool:
        return len(self.stable_points) > 1

    @property
    def has_unique_ess(self) -> bool:
        return len(self.stable_points) == 1


def _interior_point(m: PayoffMatrix) -> Optional[StrategyState]:
    """Interior rest point from the two indifference conditions, if any.

    Solves E_AV1 = E_AV2 for q and E_MV1 = E_MV2 for p; a solution counts
    only when both coordinates fall strictly inside (0, 1).
    """
    den_q = m.u11 - m.u21 - m.u12 + m.u22
    den_p = m.v11 - m.v21 - m.v12 + m.v22
    if abs(den_q) < 1e-12 or abs(den_p) < 1e-12:
        return None
    q = (m.u22 - m.u12) / den_q
    p = (m.v22 - m.v21) / den_p
    if 0.0 < p < 1.0 and 0.0 < q < 1.0:
        return StrategyState(p, q)
    return None


def solve_ess(m: PayoffMatrix) -> EquilibriumReport:
    """Classify the rest points' stability and extract the ESS.

    A pure point is stable when both its eigenvalues are strictly negative.
    The interior rest point, when it exists, is reported but never stable:
    in two-population bimatrix replicator dynamics the Jacobian at an
    interior rest point has zero trace, so it cannot be asymptotically
    stable.  Degenerate games (zero eigenvalues everywhere) yield ess=None
    rather than a false positive.
    """
    gains = deviation_gains(m)
    stable = [point for point, point_gains in zip(PURE_POINTS, gains) if _is_stable(max(point_gains))]
    return EquilibriumReport(
        stable_points=tuple(stable),
        ess=_operative_ess(gains),
        interior=_interior_point(m),
    )


def _is_stable(slowest: float) -> bool:
    """Whether a pure point with this slowest (larger) eigenvalue is asymptotically stable."""
    return slowest <= -EIGENVALUE_ZERO_TOL


def _operative_ess(gains: tuple[tuple[float, float], ...]) -> Optional[StrategyState]:
    """The ``ess`` of :func:`solve_ess`, from the :func:`deviation_gains` table alone.

    Among the stable pure points, the one with the smallest slowest
    eigenvalue; slowest eigenvalues within ``EIGENVALUE_ZERO_TOL`` of the
    smallest tie and go to the smaller (p, q).  None when no point is stable.
    Callers that read only the operative point skip the report's other fields.
    """
    slowest = [max(point_gains) for point_gains in gains]
    # When any point is stable, the overall minimum is a stable point's.
    fastest = min(slowest)
    # PURE_POINTS ascend in (p, q), so the first point in the tie band is the smallest.
    for point, rate in zip(PURE_POINTS, slowest):
        if rate - fastest <= EIGENVALUE_ZERO_TOL and _is_stable(rate):
            return point
    return None


def _rk4_step(m: PayoffMatrix, p, q, dt: float):
    """One unclamped RK4 step of the replicator field, on floats or arrays.

    Plain elementwise arithmetic, so the entries of ``m`` may be arrays too,
    broadcasting against ``p`` and ``q``.
    """
    k1p, k1q = _field(m, p, q)
    k2p, k2q = _field(m, p + 0.5 * dt * k1p, q + 0.5 * dt * k1q)
    k3p, k3q = _field(m, p + 0.5 * dt * k2p, q + 0.5 * dt * k2q)
    k4p, k4q = _field(m, p + dt * k3p, q + dt * k3q)
    return (
        p + dt * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0,
        q + dt * (k1q + 2.0 * k2q + 2.0 * k3q + k4q) / 6.0,
    )


def integrate_replicator(
    m: PayoffMatrix, s0: StrategyState, dt: float, steps: int
) -> list[StrategyState]:
    """Fixed-step RK4 integration of the replicator field from s0.

    Each state is clamped to the unit square after every step.  Returns the
    full trajectory, s0 included, so its length is steps + 1.  Serves as the
    independent dynamical check on the eigenvalue classification.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    traj = [s0]
    p, q = s0.p, s0.q
    for _ in range(steps):
        p, q = _rk4_step(m, p, q, dt)
        p, q = min(max(p, 0.0), 1.0), min(max(q, 0.0), 1.0)
        traj.append(StrategyState(p, q))
    return traj


def integrate_replicator_batch(
    m: PayoffMatrix, starts: np.ndarray, dt: float, steps: int
) -> np.ndarray:
    """Vectorized twin of :func:`integrate_replicator` for many start states.

    ``starts`` has shape (n, 2) with columns (p, q); returns the final states
    with the same shape.  Runs the same RK4 step and per-step clamp as the
    scalar integrator on arrays, so it agrees with it to within float rounding.
    Several games integrate in one call when ``m`` is an object with the
    eight payoff attributes of :class:`PayoffMatrix` holding length-n arrays,
    one game per start row; each row's result is bit-identical to a call on
    its own matrix, since the arithmetic is elementwise.
    """
    state = np.array(starts, dtype=float, copy=True)
    if state.ndim != 2 or state.shape[1] != 2:
        raise ValueError("starts must have shape (n, 2)")
    p = state[:, 0]
    q = state[:, 1]
    for _ in range(steps):
        p, q = _rk4_step(m, p, q, dt)
        np.clip(p, 0.0, 1.0, out=p)
        np.clip(q, 0.0, 1.0, out=q)
    return np.stack([p, q], axis=1)
