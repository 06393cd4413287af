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

from dataclasses import dataclass
from enum import Enum

from .egt import PayoffMatrix

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


class Role(Enum):
    AV = "av"
    MV = "mv"


@dataclass(frozen=True, slots=True)
class StrategyPair:
    av_move: AvMove
    mv_move: MvMove


@dataclass(frozen=True, slots=True)
class DrivingStyle:
    """Style weight (larger = more aggressive) and preferred time headway."""

    omega: float
    headway: float

    def __post_init__(self) -> None:
        if not 0.0 < self.omega < 1.0:
            raise ValueError(f"omega must lie in (0, 1), got {self.omega}")
        if self.headway <= 0.0:
            raise ValueError(f"headway must be positive, got {self.headway}")


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
    """Everything one matrix needs: paired states, styles, and the headway margin."""

    av: AgentView
    mv: AgentView
    av_style: DrivingStyle
    mv_style: DrivingStyle
    headway_t: float

    def __post_init__(self) -> None:
        if self.headway_t <= 0.0:
            raise ValueError(f"headway_t must be positive, got {self.headway_t}")


def target_arrival_time(ctx: GameContext, role: Role, yields: bool) -> float:
    """Arrival time, seconds, implied by one player's decision.

    The schedule is anchored on the opponent's free-flight arrival d/v:
    yielding targets T seconds after it, going targets T seconds before it.
    A go-branch result below the floor is clamped to it.
    """
    opp = ctx.mv if role is Role.AV else ctx.av
    base = opp.dist_to_merge / opp.speed
    if yields:
        return base + ctx.headway_t
    return max(base - ctx.headway_t, ARRIVAL_TIME_FLOOR)


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
    safety: float  # conflict term both players pay


def _cost(omega: float, t: float, a: float, safety: float) -> float:
    """One player's cell cost from its style weight, arrival time, acceleration and safety term."""
    return omega * t + (1.0 - omega) * a * a + safety


def _schedule(ctx: GameContext, role: Role, yields: bool) -> tuple[float, float]:
    """One player's arrival time and the constant acceleration that meets it."""
    arrival = target_arrival_time(ctx, role, yields)
    own = ctx.av if role is Role.AV else ctx.mv
    return arrival, required_avg_accel(own.dist_to_merge, own.speed, arrival)


def _safety(pair: StrategyPair, a_av: float, a_mv: float) -> float:
    """The conflict term both players of a cell pay."""
    return conflict_weight(pair) * abs(a_av + a_mv)


def cell_costs(ctx: GameContext, pair: StrategyPair) -> CellCosts:
    t_av, a_av = _schedule(ctx, Role.AV, pair.av_move is AvMove.YIELD)
    t_mv, a_mv = _schedule(ctx, Role.MV, pair.mv_move is MvMove.YIELD)
    safety = _safety(pair, a_av, a_mv)
    return CellCosts(
        j_av=_cost(ctx.av_style.omega, t_av, a_av, safety),
        j_mv=_cost(ctx.mv_style.omega, t_mv, a_mv, safety),
        t_av=t_av,
        t_mv=t_mv,
        a_av=a_av,
        a_mv=a_mv,
        safety=safety,
    )


_PAIRS = (
    StrategyPair(AvMove.YIELD, MvMove.YIELD),
    StrategyPair(AvMove.YIELD, MvMove.ACCELERATE),
    StrategyPair(AvMove.MERGE, MvMove.YIELD),
    StrategyPair(AvMove.MERGE, MvMove.ACCELERATE),
)


def build_matrix(ctx: GameContext) -> PayoffMatrix:
    """Fill all four cells and store fitness = -cost, indexed as in the game table."""
    return CellTable(ctx).matrix_at(ctx.mv_style.omega)


class CellTable:
    """Per-cell kinematics of a context, cached for fast style sweeps.

    Arrival times, accelerations and the safety term do not depend on either
    style weight, so a sweep over the MV's omega only re-weights fixed
    numbers.  ``matrix_at(omega)`` accepts the closed interval [0, 1]; the
    open-interval constraint applies to configured styles, not to scan
    points.
    """

    __slots__ = ("_av_fitness", "_mv_terms")

    def __init__(self, ctx: GameContext) -> None:
        # Each player has two schedules; the four cells only pair them up.
        av = {move: _schedule(ctx, Role.AV, move is AvMove.YIELD) for move in AvMove}
        mv = {move: _schedule(ctx, Role.MV, move is MvMove.YIELD) for move in MvMove}
        omega_av = ctx.av_style.omega
        av_fitness = []
        mv_terms = []
        for pair in _PAIRS:
            t_av, a_av = av[pair.av_move]
            t_mv, a_mv = mv[pair.mv_move]
            safety = _safety(pair, a_av, a_mv)
            av_fitness.append(-_cost(omega_av, t_av, a_av, safety))
            mv_terms.append((t_mv, a_mv, safety))
        self._av_fitness = tuple(av_fitness)
        self._mv_terms = tuple(mv_terms)

    def matrix_at(self, omega_mv: float) -> PayoffMatrix:
        if not 0.0 <= omega_mv <= 1.0:
            raise ValueError(f"scan omega outside [0, 1]: {omega_mv}")
        u = self._av_fitness
        v = [-_cost(omega_mv, t, a, safety) for t, a, safety in self._mv_terms]
        return PayoffMatrix(
            u11=u[0], u12=u[1], u21=u[2], u22=u[3],
            v11=v[0], v12=v[1], v21=v[2], v22=v[3],
        )
