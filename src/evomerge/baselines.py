"""Nash and Stackelberg decision policies on the same payoff matrices.

Both baselines consume the exact matrices the evolutionary policy plays on
and differ only in how they pick a profile, which isolates the equilibrium
concept as the experimental variable.
"""

from __future__ import annotations

from enum import Enum

from .egt import PURE_POINTS, PayoffMatrix, StrategyState, deviation_gains


class Policy(Enum):
    EGT = "egt"
    NASH = "nash"
    STACKELBERG = "stackelberg"


def _payoffs(m: PayoffMatrix, profile: StrategyState) -> tuple[float, float]:
    """(AV, MV) fitness of a pure profile: p = 1 is row 1 (Yield), q = 1 column 1."""
    if profile.p == 1.0:
        return (m.u11, m.v11) if profile.q == 1.0 else (m.u12, m.v12)
    return (m.u21, m.v21) if profile.q == 1.0 else (m.u22, m.v22)


def nash_pure(m: PayoffMatrix) -> list[StrategyState]:
    """All pure Nash profiles: no player gains by a unilateral strict deviation."""
    return [point for point, gains in zip(PURE_POINTS, deviation_gains(m)) if max(gains) <= 0.0]


def select_nash(m: PayoffMatrix) -> StrategyState | None:
    """Deterministic selection among pure Nash profiles.

    Prefers a Pareto-dominant profile if one exists, then the largest joint
    fitness, then the lexicographically first (p, q).  None when the game has
    no pure Nash profile.
    """
    candidates = nash_pure(m)
    if not candidates:
        return None
    if len(candidates) == 1:
        return candidates[0]

    def dominates(a: StrategyState, b: StrategyState) -> bool:
        ua, va = _payoffs(m, a)
        ub, vb = _payoffs(m, b)
        return ua >= ub and va >= vb and (ua > ub or va > vb)

    pareto = [c for c in candidates if all(c == o or not dominates(o, c) for o in candidates)]
    dominant = [c for c in pareto if all(c == o or dominates(c, o) for o in candidates)]
    if len(dominant) == 1:
        return dominant[0]
    # joint fitness, then table order (both-yield corner first)
    return max(candidates, key=lambda c: (sum(_payoffs(m, c)), c.p, c.q))


def stackelberg(m: PayoffMatrix) -> StrategyState:
    """Leader-follower profile with the AV leading.

    For each AV pure action the MV best-responds (ties resolved to Yield);
    the AV commits to the action whose induced response pays it best, ties
    again resolved to Yield.
    """
    gains = dict(zip(PURE_POINTS, deviation_gains(m)))
    # the MV yields unless accelerating against the AV's action pays it strictly more
    after_yield, after_merge = (
        StrategyState(p, 1.0 if gains[StrategyState(p, 1.0)][1] <= 0.0 else 0.0) for p in (1.0, 0.0)
    )
    return after_merge if _payoffs(m, after_merge)[0] > _payoffs(m, after_yield)[0] else after_yield


def merge_profile(profile: StrategyState | None) -> bool:
    """True when a pure profile prescribes the merge-ahead maneuver (p < q)."""
    return profile is not None and profile.p < profile.q
