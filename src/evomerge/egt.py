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
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
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


def _gaps(u11, u12, u21, u22, v11, v12, v21, v22, p, q):
    """(E_AV1 - E_AV2, E_MV1 - E_MV2) at (p, q) from the eight payoff entries, on floats or arrays.

    Each player's fitness advantage of yielding over going; the replicator
    field and the deviation gains are both read off these two gaps.
    """
    return (
        q * (u11 - u21) + (1.0 - q) * (u12 - u22),
        p * (v11 - v12) + (1.0 - p) * (v21 - v22),
    )


def _field(m: PayoffMatrix, p, q):
    gap_av, gap_mv = _gaps(m.u11, m.u12, m.u21, m.u22, m.v11, m.v12, m.v21, m.v22, p, q)
    return p * (1.0 - p) * gap_av, q * (1.0 - q) * gap_mv


def eigenvalues_at(m: PayoffMatrix, point: StrategyState) -> tuple[float, float]:
    """Jacobian eigenvalues at a pure rest point.

    At pure points the off-diagonal Jacobian terms carry factors p(1-p) or
    q(1-q) and vanish, so the matrix is diagonal and the eigenvalues are

        lambda1 = (1 - 2p) (E_AV1 - E_AV2)|q
        lambda2 = (1 - 2q) (E_MV1 - E_MV2)|p

    which are exactly each player's fitness gain from switching action while
    the other keeps its own.  Mixed points are rejected: the Jacobian is not
    diagonal there.
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
    return _gains(m.u11, m.u12, m.u21, m.u22, m.v11, m.v12, m.v21, m.v22)


def _gains(u11, u12, u21, u22, v11, v12, v21, v22) -> tuple[tuple[float, float], ...]:
    """The :func:`deviation_gains` table from the eight payoff entries, on plain floats.

    Callers that hold the entries without a :class:`PayoffMatrix` (the
    per-style evaluation of a cached cell table) skip building one.
    """
    gains = []
    for point in PURE_POINTS:
        p, q = point.p, point.q
        gap_av, gap_mv = _gaps(u11, u12, u21, u22, v11, v12, v21, v22, p, q)
        gains.append(((1.0 - 2.0 * p) * gap_av, (1.0 - 2.0 * q) * gap_mv))
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
    (p, q)).  ``has_unique_ess`` tells the two cases apart, so the decision
    layer can fall back conservatively; ``ess`` is None when no pure point
    is stable.
    """

    stable_points: tuple[StrategyState, ...]
    ess: Optional[StrategyState]

    @property
    def has_unique_ess(self) -> bool:
        return len(self.stable_points) == 1


def solve_ess(m: PayoffMatrix) -> EquilibriumReport:
    """Classify the pure rest points' stability and extract the ESS.

    A pure point is stable when both its eigenvalues are strictly negative.
    Only pure points can be: in two-population bimatrix replicator dynamics
    the Jacobian at a mixed rest point has zero trace, so it cannot be
    asymptotically stable.  Degenerate games (zero eigenvalues everywhere)
    yield ess=None rather than a false positive.
    """
    gains = deviation_gains(m)
    stable = [point for point, point_gains in zip(PURE_POINTS, gains) if _is_stable(max(point_gains))]
    return EquilibriumReport(stable_points=tuple(stable), ess=_operative_ess(gains))


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


def integrate_replicator_batch(
    m: PayoffMatrix, starts: np.ndarray, dt: float, steps: int
) -> np.ndarray:
    """Fixed-step RK4 integration of the replicator field from many start states.

    ``starts`` has shape (n, 2) with columns (p, q); returns the final states
    with the same shape.  Each state is clamped to the unit square after every
    step.  Serves as the independent dynamical check on the eigenvalue
    classification.  Several games integrate in one call when ``m`` is an
    object with the eight payoff attributes of :class:`PayoffMatrix` holding
    length-n arrays, one game per start row; each row's result is
    bit-identical to a call on its own matrix, since the arithmetic is
    elementwise.
    """
    import numpy as np  # only this batch path needs arrays; importing evomerge stays NumPy-free

    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    state = np.array(starts, dtype=float, copy=True)
    if state.ndim != 2 or state.shape[1] != 2:
        raise ValueError("starts must have shape (n, 2)")
    p = state[:, 0]
    q = state[:, 1]
    for _ in range(steps):
        k1p, k1q = _field(m, p, q)
        k2p, k2q = _field(m, p + 0.5 * dt * k1p, q + 0.5 * dt * k1q)
        k3p, k3q = _field(m, p + 0.5 * dt * k2p, q + 0.5 * dt * k2q)
        k4p, k4q = _field(m, p + dt * k3p, q + dt * k3q)
        p = p + dt * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0
        q = q + dt * (k1q + 2.0 * k2q + 2.0 * k3q + k4q) / 6.0
        np.clip(p, 0.0, 1.0, out=p)
        np.clip(q, 0.0, 1.0, out=q)
    return np.stack([p, q], axis=1)
