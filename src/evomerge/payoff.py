"""Multi-objective cell costs and game-matrix construction.

Each cell of the 2x2 game prices one joint semantic decision for a pair of
vehicles approaching the merge point.  A player's cost is

    J = omega * t  +  (1 - omega) * a_avg^2  +  w_s * |a_avg_self + a_avg_opp|

where t is the arrival time implied by the decision (yielding adds the safe
time headway T to the opponent's projected arrival, going subtracts it),
a_avg = 2 (d - v t) / t^2 is the constant acceleration required to arrive on
schedule, and the conflict weight w_s is 1 exactly on the two conflicting
decision pairs (both push, or both hang back).  Units are mixed by
construction (seconds, (m/s^2)^2, m/s^2); no normalization is applied.

The matrix stores fitness = -cost, since replicator dynamics select for the
higher value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .egt import PayoffMatrix, _gains

# Floor for the go-branch arrival time.  The raw expression d/v - T can reach
# zero or below when the opponent is nearly at the merge point; the floor
# keeps the acceleration term defined and prices such cells as undesirable
# through a huge comfort cost.
ARRIVAL_TIME_FLOOR = 0.5


class AvMove(Enum):
    YIELD = "yield"
    MERGE = "merge"


class MvMove(Enum):
    YIELD = "yield"
    ACCELERATE = "accelerate"


@dataclass(frozen=True, slots=True)
class StrategyPair:
    av_move: AvMove
    mv_move: MvMove


@dataclass(frozen=True, slots=True)
class AgentView:
    """Kinematic view of one player: arc distance to the merge point and speed."""

    dist_to_merge: float
    speed: float

    def __post_init__(self) -> None:
        if self.dist_to_merge < 0.0:
            raise ValueError(f"dist_to_merge must be >= 0, got {self.dist_to_merge}")
        if self.speed <= 0.0:
            raise ValueError(f"speed must be > 0, got {self.speed}")


@dataclass(frozen=True, slots=True)
class GameContext:
    """Everything one matrix needs: paired states, style weights, and the headway margin.

    A style weight lies in (0, 1); larger is more aggressive.
    """

    av: AgentView
    mv: AgentView
    av_omega: float
    mv_omega: float
    headway_t: float

    def __post_init__(self) -> None:
        if not (0.0 < self.av_omega < 1.0 and 0.0 < self.mv_omega < 1.0):
            raise ValueError(f"style weights must lie in (0, 1), got {self.av_omega}, {self.mv_omega}")
        if self.headway_t <= 0.0:
            raise ValueError(f"headway_t must be positive, got {self.headway_t}")


def arrival_time(opp_dist: float, opp_speed: float, headway_t: float, yields: bool) -> float:
    """Arrival time, seconds, implied by a decision against an opponent at ``opp_dist``, ``opp_speed``.

    The schedule is anchored on the opponent's free-flight arrival d/v:
    yielding targets T seconds after it, going targets T seconds before it.
    A go-branch result below the floor is clamped to it.
    """
    base = opp_dist / opp_speed
    if yields:
        return base + headway_t
    return max(base - headway_t, ARRIVAL_TIME_FLOOR)


def required_avg_accel(d: float, v: float, t: float) -> float:
    """Constant acceleration that covers distance d from speed v in time t."""
    if t <= 0.0:
        raise ValueError(f"arrival time must be positive, got {t}")
    return 2.0 * (d - v * t) / (t * t)


def conflict_weight(pair: StrategyPair) -> int:
    """1 on conflicting decision pairs: both going, or both hanging back."""
    both_go = pair.av_move is AvMove.MERGE and pair.mv_move is MvMove.ACCELERATE
    both_wait = pair.av_move is AvMove.YIELD and pair.mv_move is MvMove.YIELD
    return 1 if (both_go or both_wait) else 0


@dataclass(frozen=True, slots=True)
class CellCosts:
    """One cell's costs plus the per-term quantities, for testing and tracing."""

    j_av: float
    j_mv: float
    t_av: float
    t_mv: float
    a_av: float
    a_mv: float


def _cost(omega: float, t: float, a: float, safety: float) -> float:
    """One player's cell cost from its style weight, arrival time, acceleration and safety term."""
    return omega * t + (1.0 - omega) * a * a + safety


def _schedule(own: AgentView, opp: AgentView, headway_t: float, yields: bool) -> tuple[float, float]:
    """One player's arrival time against ``opp`` and the constant acceleration that meets it."""
    arrival = arrival_time(opp.dist_to_merge, opp.speed, headway_t, yields)
    return arrival, required_avg_accel(own.dist_to_merge, own.speed, arrival)


_PAIRS = (
    StrategyPair(AvMove.YIELD, MvMove.YIELD),
    StrategyPair(AvMove.YIELD, MvMove.ACCELERATE),
    StrategyPair(AvMove.MERGE, MvMove.YIELD),
    StrategyPair(AvMove.MERGE, MvMove.ACCELERATE),
)


def _cell_terms(ctx: GameContext) -> list[tuple[float, float, float, float, float]]:
    """Each cell's (t_av, a_av, t_mv, a_mv, safety), in ``_PAIRS`` order.

    Each player has two schedules; the four cells only pair them up.  The
    safety term is the conflict term both players of a cell pay.
    """
    av, mv, headway_t = ctx.av, ctx.mv, ctx.headway_t
    av_yield, av_go = _schedule(av, mv, headway_t, True), _schedule(av, mv, headway_t, False)
    mv_yield, mv_go = _schedule(mv, av, headway_t, True), _schedule(mv, av, headway_t, False)
    terms = []
    for pair, (t_av, a_av), (t_mv, a_mv) in zip(
        _PAIRS, (av_yield, av_yield, av_go, av_go), (mv_yield, mv_go, mv_yield, mv_go)
    ):
        terms.append((t_av, a_av, t_mv, a_mv, conflict_weight(pair) * abs(a_av + a_mv)))
    return terms


def cell_costs(ctx: GameContext, pair: StrategyPair) -> CellCosts:
    t_av, a_av, t_mv, a_mv, safety = _cell_terms(ctx)[_PAIRS.index(pair)]
    return CellCosts(
        j_av=_cost(ctx.av_omega, t_av, a_av, safety),
        j_mv=_cost(ctx.mv_omega, t_mv, a_mv, safety),
        t_av=t_av,
        t_mv=t_mv,
        a_av=a_av,
        a_mv=a_mv,
    )


def build_matrix(ctx: GameContext) -> PayoffMatrix:
    """Fill all four cells and store fitness = -cost, indexed as in the game table."""
    return CellTable(ctx).matrix_at(ctx.mv_omega)


class CellTable:
    """Per-cell kinematics of a context, cached for fast style sweeps.

    Arrival times, accelerations and the safety term do not depend on either
    style weight, so a sweep over the MV's omega only re-weights fixed
    numbers.  ``matrix_at(omega)`` and ``gains_at(omega)`` accept the closed
    interval [0, 1]; the open-interval constraint applies to configured
    styles, not to scan points.  The terms are checked once, on
    construction, so that every matrix and gain table the table yields is
    finite.
    """

    __slots__ = ("_av_fitness", "_mv_terms")

    def __init__(self, ctx: GameContext) -> None:
        omega_av = ctx.av_omega
        av_fitness = []
        mv_terms = []
        for pair, (t_av, a_av, t_mv, a_mv, safety) in zip(_PAIRS, _cell_terms(ctx)):
            fitness = -_cost(omega_av, t_av, a_av, safety)
            # The MV cost at omega adds omega * t, (1 - omega) * a * a and the
            # safety term, each nonnegative and at most its part of this sum,
            # so the sum bounds the cost at every omega in [0, 1].
            if not (math.isfinite(fitness) and math.isfinite(t_mv + a_mv * a_mv + safety)):
                raise ValueError(f"payoff of cell {pair.av_move.value}/{pair.mv_move.value} is not finite")
            av_fitness.append(fitness)
            mv_terms.append((t_mv, a_mv, safety))
        self._av_fitness = tuple(av_fitness)
        self._mv_terms = tuple(mv_terms)

    def _mv_fitness(self, omega_mv: float) -> list[float]:
        if not 0.0 <= omega_mv <= 1.0:
            raise ValueError(f"scan omega outside [0, 1]: {omega_mv}")
        return [-_cost(omega_mv, t, a, safety) for t, a, safety in self._mv_terms]

    def matrix_at(self, omega_mv: float) -> PayoffMatrix:
        u = self._av_fitness
        v = self._mv_fitness(omega_mv)
        return PayoffMatrix(
            u11=u[0], u12=u[1], u21=u[2], u22=u[3],
            v11=v[0], v12=v[1], v21=v[2], v22=v[3],
        )

    def gains_at(self, omega_mv: float) -> tuple[tuple[float, float], ...]:
        """``deviation_gains(self.matrix_at(omega_mv))``, without building the matrix."""
        return _gains(*self._av_fitness, *self._mv_fitness(omega_mv))
