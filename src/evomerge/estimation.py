"""Online bisection estimation of a hidden driving-style weight.

The estimator keeps an interval [k_l, k_u] believed to contain the opposing
driver's style weight, with the midpoint as the working estimate.  Each
interaction round compares the equilibrium-predicted reaction with the
observed speed change:

  * predicted accelerate (q* = 0) but no observed speed increase: the
    estimate was too aggressive, so the upper bound drops to the lower
    endpoint of the equilibrium's stability interval;
  * predicted yield (q* = 1) but an observed speed increase: the estimate
    was too conservative, so the lower bound rises to the upper endpoint.

Confirmed predictions leave the belief untouched.  The stability interval is
the maximal contiguous range of style weights over which the solver keeps
returning the same equilibrium point for the same kinematic context.  It is
found in closed form: the MV payoffs are affine in its style weight, so every
pure-point eigenvalue is too, and the equilibrium can change only where one
eigenvalue line crosses the stability threshold or two lines of different
points leave the solver's tie band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .egt import EIGENVALUE_ZERO_TOL, StrategyState, _operative_ess
from .egt import solve_ess  # noqa: F401  (perfbench's trace_targets name estimation.solve_ess)
from .payoff import CellTable, GameContext

#: Style-weight breakpoints closer than this to each other, to the estimate
#: or to the ends of [0, 1] are merged.  Rounding in the matrices splits one
#: exact root into several a few ulps apart; a segment that narrow is below
#: what the arithmetic resolves, so its midpoint would classify noise.
BREAKPOINT_RESOLUTION = 1e-10

#: A speed gain of this much or less over one decision period is not read
#: as a deliberate acceleration, m/s.
REACTION_DEADBAND = 0.18


@dataclass(frozen=True, slots=True)
class StyleBelief:
    """Bisection interval for a hidden style weight; estimate is the midpoint."""

    k_l: float = 0.0
    k_u: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.k_l <= self.k_u <= 1.0):
            raise ValueError(f"invalid belief bounds [{self.k_l}, {self.k_u}]")

    @property
    def omega_hat(self) -> float:
        return 0.5 * (self.k_l + self.k_u)

    @property
    def inconsistent(self) -> bool:
        """Whether an update collapsed the interval; only a collapse makes the bounds equal."""
        return self.k_l == self.k_u


@dataclass(frozen=True, slots=True)
class Reaction:
    accelerated: bool


def observed_reaction(v_now: float, v_prev: float) -> Reaction:
    """Classify two consecutive speed observations as acceleration or not.

    A speed gain of ``REACTION_DEADBAND`` m/s or less does not count as
    acceleration.
    """
    return Reaction(accelerated=v_now > v_prev + REACTION_DEADBAND)


@dataclass(frozen=True, slots=True)
class StabilityInterval:
    """Style-weight range preserving one equilibrium; degenerate when stale."""

    lo: float
    hi: float
    stale: bool = False


def ess_stability_interval(ctx: GameContext, ess: StrategyState) -> StabilityInterval:
    """Maximal contiguous style range around the context's estimate keeping ``ess``.

    Walks the eigenvalue breakpoints outward from the context's MV style
    weight, classifying each segment between them once at its midpoint, and
    stops at the first segment whose equilibrium differs; that breakpoint is
    the bound, otherwise the bound is 0 or 1.  Both bounds are points where
    the solver still returns ``ess``, within rounding and
    ``BREAKPOINT_RESOLUTION`` of the exact boundary.  If the equilibrium does
    not hold even at the estimate itself, the context is stale and the
    degenerate interval is returned flagged.
    """
    table = CellTable(ctx)
    omega_hat = ctx.mv_omega

    def holds(omega: float) -> bool:
        # The ess solve_ess would report, read off the gain table alone.
        return _operative_ess(table.gains_at(omega)) == ess

    if not holds(omega_hat):
        return StabilityInterval(omega_hat, omega_hat, stale=True)

    breaks = _breakpoints(table)
    below = [b for b in reversed(breaks) if b < omega_hat - BREAKPOINT_RESOLUTION] + [0.0]
    above = [b for b in breaks if b > omega_hat + BREAKPOINT_RESOLUTION] + [1.0]
    return StabilityInterval(_edge(holds, omega_hat, below), _edge(holds, omega_hat, above))


def _breakpoints(table: CellTable) -> list[float]:
    """Sorted style weights in (0, 1) where the operative equilibrium can change, merged.

    The AV eigenvalue at each pure point does not depend on the MV style
    weight and the MV eigenvalue is affine in it, so each of the eight
    deviation gains is a line read off the gain tables at 0 and 1.  Stability
    flips where a line crosses -EIGENVALUE_ZERO_TOL.  Between two stable
    points the solver keeps the earlier one in PURE_POINTS (the smaller
    (p, q)) until its slowest eigenvalue exceeds the later one's by more than
    EIGENVALUE_ZERO_TOL, so the pick can change only where a line of an
    earlier point lies EIGENVALUE_ZERO_TOL above a line of a later point.
    """
    points = []  # per pure point, its two gains as (intercept, slope)
    for at0, at1 in zip(table.gains_at(0.0), table.gains_at(1.0)):
        points.append([(a, b - a) for a, b in zip(at0, at1)])
    roots = []
    for k, lines in enumerate(points):
        for a, s in lines:
            if s != 0.0:
                roots.append((-EIGENVALUE_ZERO_TOL - a) / s)
            for later in points[k + 1:]:
                for a2, s2 in later:
                    if s != s2:
                        roots.append((EIGENVALUE_ZERO_TOL + a2 - a) / (s - s2))
    breaks: list[float] = []
    for r in sorted(roots):
        if BREAKPOINT_RESOLUTION < r < 1.0 - BREAKPOINT_RESOLUTION and (
            not breaks or r - breaks[-1] > BREAKPOINT_RESOLUTION
        ):
            breaks.append(r)
    return breaks


def _edge(holds, start: float, breaks: list[float]) -> float:
    """Walk ``breaks`` (in order away from ``start``, ending at the range limit) to the bound.

    Rounding in the matrix can leave the solver's answer at the computed
    breakpoint itself on the far side; the bound then steps back toward the
    last point seen to hold until the equilibrium holds there.
    """
    inside = edge = start
    for far in breaks:
        mid = 0.5 * (edge + far)
        if not holds(mid):
            break
        inside, edge = mid, far
    toward_inside = 1.0 if inside > edge else -1.0
    back = 0.0
    while back < abs(edge - inside):
        candidate = edge + toward_inside * back
        if holds(candidate):
            return candidate
        back = back * 8.0 if back else 1e-15
    return inside


def update_belief(
    belief: StyleBelief,
    ess: StrategyState,
    reaction: Reaction,
    ctx: GameContext,
    interval: Optional[StabilityInterval] = None,
) -> StyleBelief:
    """One estimation round: tighten a bound on a contradicted prediction.

    ``ctx`` must be the context whose matrix produced ``ess`` (the MV style
    weight equal to the belief midpoint at prediction time); ``interval`` may
    carry a precomputed stability interval to skip recomputing it.  Confirmed
    predictions and collapsed beliefs are no-ops.
    """
    if belief.inconsistent:
        return belief

    predicted_accelerate = ess.q == 0.0
    predicted_yield = ess.q == 1.0
    new_kl, new_ku = belief.k_l, belief.k_u
    if predicted_accelerate and not reaction.accelerated:
        bound = interval if interval is not None else ess_stability_interval(ctx, ess)
        new_ku = bound.lo
    elif predicted_yield and reaction.accelerated:
        bound = interval if interval is not None else ess_stability_interval(ctx, ess)
        new_kl = bound.hi
    else:
        return belief

    if new_kl >= new_ku:
        mid = belief.omega_hat
        return StyleBelief(k_l=mid, k_u=mid)
    return StyleBelief(k_l=new_kl, k_u=new_ku)
