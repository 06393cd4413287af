"""Scenario orchestration: per-period games, control, lane change, tracing.

One simulation advances in fixed kinematic steps.  At every decision period
the merging vehicle locates the main-road vehicle directly behind its
claimed slot, folds the previous period's prediction and the observed speed
change into that driver's style belief, rebuilds the payoff matrix at the
belief midpoint, solves for the equilibrium, and maps it to a maneuver:
merge ahead of the opponent, or yield and shift the claim one slot back.
Between periods the maneuver is tracked by a constant-acceleration arrival
law re-evaluated every step; main-road vehicles follow the IDM, treating
the merging vehicle as a virtual leader while it games them.  The lane
change itself is a single-period lane reassignment in the convergence area
guarded by a bumper-gap feasibility check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING, Optional

from .baselines import Policy, merge_profile, select_nash, stackelberg
from .egt import EquilibriumReport, PayoffMatrix, StrategyState, _operative_ess, solve_ess
from .estimation import StyleBelief, observed_reaction, update_belief
from .payoff import (
    AgentView,
    CellTable,
    GameContext,
    arrival_time,
    build_matrix,
    required_avg_accel,
)
from .traffic import (
    CONVERGENCE_AREA,
    EMERGENCY_DECEL,
    FREE_ROAD_GAP,
    IDMParams,
    Lane,
    MERGE_POINT_S,
    VehicleState,
    advance,
    body_gap,
    check_collision,
    headway_from_style,
    idm_accel,
    idm_params_for_style,
    leaders,
    projected_arrival,
    step_kinematics,  # noqa: F401  (perfbench's trace_targets name runner.step_kinematics)
    style_from_headway,
)

if TYPE_CHECKING:
    import numpy as np

AV_ID = "AV"

# Merge-control authority limits, m/s^2.
CONTROL_MIN = -8.0
CONTROL_MAX = 3.0

#: Proactive test acceleration in the opening game, m/s^2, and the decision
#: periods it lasts.
PROBE_ACCEL = 1.2
PROBE_PERIODS = 3

#: Headway samples are truncated into this range, seconds.
HEADWAY_RANGE = (0.5, 3.5)

#: Targets below this demand immediate braking and bypass the comfort slew.
EMERGENCY_TARGET = -4.0

#: Main-road comfort slew on acceleration, m/s^3.
JERK_LIMIT = 1.2

#: Most kinematic steps one run may take: 10 000 s at the shipped dt of
#: 0.1 s, far beyond any merge.  A run stores every step, so an unbounded
#: duration would never end and would exhaust memory on the way.
MAX_STEPS = 100_000


class ManeuverKind(Enum):
    MERGE_AHEAD = "merge_ahead"
    YIELD_SHIFT = "yield_shift"


@dataclass(frozen=True, slots=True)
class Maneuver:
    """Decision outcome; target is the opponent id, None for the platoon tail."""

    kind: ManeuverKind
    target: Optional[str] = None


def merges(policy: Policy, matrix: PayoffMatrix, report: EquilibriumReport) -> bool:
    """Whether ``policy`` merges ahead on one game (its profile has p < q); otherwise it yields.

    EGT plays only a unique stable point: none or several fall back to
    yielding, the conservative default.  The baselines are called through
    this module's names, which perfbench's traced run wraps.
    """
    if policy is Policy.EGT:
        profile = report.ess if report.has_unique_ess else None
    elif policy is Policy.NASH:
        profile = select_nash(matrix)
    else:
        profile = stackelberg(matrix)
    return merge_profile(profile)


def _game_style(omega: float) -> float:
    """A style weight clamped into [1e-9, 1 - 1e-9], where every game is built."""
    eps = 1e-9
    return min(max(omega, eps), 1.0 - eps)


def merge_control(d_av: float, v_av: float, d_opp: float, v_opp: float,
                  headway_t: float, yields: bool) -> float:
    """Constant-acceleration command tracking the arrival target against one opponent.

    Merging ahead schedules arrival one headway margin before the opponent's
    projected arrival, yielding one margin after it; the go-branch time is
    floored and the command clamped to the control authority.
    """
    u = required_avg_accel(d_av, v_av, arrival_time(d_opp, v_opp, headway_t, yields))
    return min(max(u, CONTROL_MIN), CONTROL_MAX)


def _game_terms(s: float, v: float) -> tuple[float, float]:
    """Distance to the merge point and speed as a game sees them: past the point reads 0, a stop 0.1 m/s."""
    return max(MERGE_POINT_S - s, 0.0), max(v, 0.1)


def execute_lane_change(
    av: VehicleState,
    front: Optional[VehicleState],
    rear: Optional[VehicleState],
    min_gap: float,
) -> tuple[VehicleState, bool]:
    """Reassign the merging vehicle to the main lane if the slot fits.

    Both bumper gaps must be at least ``min_gap``; a missing neighbor leaves
    that side unconstrained.  On an infeasible slot the state is returned
    unchanged with ok=False, signaling a re-queue.
    """
    if front is not None and body_gap(av.s, front.s) < min_gap:
        return av, False
    if rear is not None and body_gap(rear.s, av.s) < min_gap:
        return av, False
    return replace(av, lane=Lane.MAIN), True


# --------------------------------------------------------------------------
# Scenario configuration


def _check(what: str, value: float, positive: bool) -> None:
    """Reject a value that is not finite, or is negative (or zero, when ``positive``)."""
    if not math.isfinite(value) or value < 0.0 or (positive and value == 0.0):
        raise ValueError(f"{what} must be {'positive' if positive else '>= 0'} and finite, got {value}")


def _check_finite(what: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value}")


@dataclass(frozen=True, slots=True)
class HeadwaySpec:
    """Fixed headway, or one truncated-normal draw per run.

    Normal draws come in vehicle order from one ``numpy.random.default_rng``
    seeded with the run's seed; only such a draw loads NumPy.
    """

    kind: str  # "fixed" | "normal"
    value: float = 0.0
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "normal"):
            raise ValueError(f"unknown headway kind {self.kind!r}")
        if self.kind == "fixed":
            _check("fixed headway", self.value, positive=True)
        else:
            _check_finite("headway mean", self.value)
            _check("headway sigma", self.sigma, positive=False)

    def sample(self, rng: Optional[np.random.Generator]) -> float:
        """The headway for one run; a fixed headway reads no ``rng`` and may pass None."""
        if self.kind == "fixed":
            return self.value
        lo, hi = HEADWAY_RANGE
        for _ in range(1000):
            draw = rng.normal(self.value, self.sigma)
            if lo <= draw <= hi:
                return float(draw)
        return float(min(max(self.value, lo), hi))


@dataclass(frozen=True, slots=True)
class VehicleSpec:
    vid: str
    dist_to_merge: float
    speed: float
    headway: HeadwaySpec

    def __post_init__(self) -> None:
        # The trace CSV separates fields by ',', final_order ids by '>', and wraps ids in '[...]'.
        if not self.vid or any(c in ",>[]" or c.isspace() for c in self.vid):
            raise ValueError(f"vehicle id {self.vid!r} must be non-empty, without ',', '>', '[', ']' or whitespace")
        _check_finite(f"vehicle {self.vid}: distance to merge", self.dist_to_merge)
        _check(f"vehicle {self.vid}: speed", self.speed, positive=False)


@dataclass(frozen=True, slots=True)
class AvSpec:
    dist_to_merge: float = 100.0
    speed: float = 10.0
    omega: float = 0.5

    def __post_init__(self) -> None:
        _check_finite("AV distance to merge", self.dist_to_merge)
        if MERGE_POINT_S - self.dist_to_merge > CONVERGENCE_AREA[1]:
            raise ValueError(f"AV must start before the ramp ends at {CONVERGENCE_AREA[1]} m,"
                             f" got distance to merge {self.dist_to_merge}")
        _check("AV speed", self.speed, positive=False)
        if not 0.0 < self.omega < 1.0:
            raise ValueError(f"AV omega must lie in (0, 1), got {self.omega}")


@dataclass(frozen=True, slots=True)
class SimConfig:
    vehicles: tuple[VehicleSpec, ...]
    av: AvSpec = AvSpec()
    duration: float = 10.0
    dt: float = 0.1
    decision_period: float = 1.0
    seed: int = 0
    headway_t: float = 2.0       # right-of-way margin in the payoff and control laws

    def __post_init__(self) -> None:
        if not self.vehicles:
            raise ValueError("scenario needs at least one main-road vehicle")
        for name in ("duration", "dt", "decision_period", "headway_t"):
            _check(name, getattr(self, name), positive=True)
        if self.duration / self.dt > MAX_STEPS:
            raise ValueError(f"duration must span at most {MAX_STEPS} steps of dt")
        ratio = self.decision_period / self.dt
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("dt must divide decision_period")
        if self.n_steps < 2:
            raise ValueError("duration must span at least 2 steps of dt")
        ids = [v.vid for v in self.vehicles]
        if len(set(ids)) != len(ids) or AV_ID in ids:
            raise ValueError("vehicle ids must be unique and must not shadow the AV")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))

    @property
    def steps_per_period(self) -> int:
        return int(round(self.decision_period / self.dt))


# --------------------------------------------------------------------------
# Trace records


@dataclass(frozen=True, slots=True)
class DecisionRecord:
    t: float
    opponent: Optional[str]
    p_star: Optional[float]
    q_star: Optional[float]
    maneuver: ManeuverKind
    k_l: Optional[float]
    k_u: Optional[float]

    @property
    def omega_hat(self) -> Optional[float]:
        return None if self.k_l is None else 0.5 * (self.k_l + self.k_u)


@dataclass(frozen=True, slots=True)
class CollisionEvent:
    t: float
    first: str
    second: str


@dataclass(slots=True)
class SimTrace:
    """Complete, deterministic record of one run.

    The per-step record is columnar.  ``t`` holds the step times; ``s``,
    ``v`` and ``a`` map each vehicle id to one entry per step: its position
    and speed at the start of the step and the acceleration applied during
    it.  Vehicles appear in the order the run lists them, the merging
    vehicle first, then the main-road vehicles in configuration order.  Only
    the merging vehicle changes lane, once, at ``lane_change_time``.
    """

    seed: int
    policy: Policy
    dt: float
    duration: float
    t: list[float] = field(default_factory=list)
    s: dict[str, list[float]] = field(default_factory=dict)
    v: dict[str, list[float]] = field(default_factory=dict)
    a: dict[str, list[float]] = field(default_factory=dict)
    decisions: list[DecisionRecord] = field(default_factory=list)
    collisions: list[CollisionEvent] = field(default_factory=list)
    final_order: tuple[str, ...] = ()
    lane_change_time: Optional[float] = None
    true_styles: dict[str, float] = field(default_factory=dict)

    @property
    def merge_step(self) -> int:
        """Index of the first step the merging vehicle spends on the main lane; len(t) if none."""
        return len(self.t) if self.lane_change_time is None else self.t.index(self.lane_change_time)

    @property
    def av_front(self) -> Optional[str]:
        return (None, *self.final_order)[self.final_order.index(AV_ID)]

    @property
    def av_rear(self) -> Optional[str]:
        return (*self.final_order, None)[self.final_order.index(AV_ID) + 1]


@dataclass(slots=True)
class _Prediction:
    opponent: str
    ctx: GameContext
    ess: StrategyState
    v_opponent: float


class _Sim:
    """Mutable loop state for one scenario run.

    Vehicle state is columnar: ``s`` and ``v`` hold one entry per vehicle,
    index 0 the merging vehicle and 1..n the main-road vehicles in
    configuration order (the order of ``ids``).  The main-road vehicles never
    leave the main lane; the merging vehicle joins it, committed to its slot,
    once ``merged`` is set.
    """

    def __init__(self, cfg: SimConfig, policy: Policy):
        self.cfg = cfg
        self.policy = policy

        self.mv_ids: list[str] = []
        # By vehicle index, the merging vehicle's own style first.
        self.idm = [idm_params_for_style(cfg.av.omega, headway_from_style(cfg.av.omega))]
        self.true_styles: dict[str, float] = {}
        # Made at the first normal headway: fixed headways never draw, so the
        # stream equals one made up front, and a run without a normal headway
        # never loads NumPy.
        rng: Optional[np.random.Generator] = None
        for spec in cfg.vehicles:
            if rng is None and spec.headway.kind == "normal":
                import numpy

                rng = numpy.random.default_rng(cfg.seed)
            headway = spec.headway.sample(rng)
            omega = style_from_headway(headway)
            self.mv_ids.append(spec.vid)
            self.idm.append(idm_params_for_style(omega, headway))
            self.true_styles[spec.vid] = omega

        self.ids = [AV_ID, *self.mv_ids]
        self.index = {vid: i for i, vid in enumerate(self.ids)}
        self.merged = False
        self.s = [MERGE_POINT_S - cfg.av.dist_to_merge]
        self.s += [MERGE_POINT_S - spec.dist_to_merge for spec in cfg.vehicles]
        self.v = [cfg.av.speed] + [spec.speed for spec in cfg.vehicles]
        arrival = [projected_arrival(s, v) for s, v in zip(self.s, self.v)]

        self.beliefs: dict[str, StyleBelief] = {vid: StyleBelief() for vid in self.mv_ids}
        self.pending: Optional[_Prediction] = None
        self.maneuver = Maneuver(ManeuverKind.YIELD_SHIFT, target=None)
        self.front: Optional[int] = None  # index of the AV's leader once merged
        self.prev_accel: list[Optional[float]] = [None] * len(self.ids)
        self.jerk_span = JERK_LIMIT * cfg.dt  # most slew of a command in one step, m/s^2
        self.periods = 0  # decision periods played

        # Opponent progression: fixed arrival order at t=0, advanced on yields.
        order = sorted(
            range(1, len(self.ids)),
            key=lambda i: (arrival[i], self.ids[i]),
        )
        self.opponent_order = [self.ids[i] for i in order]
        self.next_opponent = 0
        while self.next_opponent < len(order) and arrival[order[self.next_opponent]] <= arrival[0]:
            self.next_opponent += 1
        self.first_opponent = self.next_opponent

    # -- helpers -----------------------------------------------------------

    def view(self, i: int) -> VehicleState:
        """Vehicle i as a state object, for the one-vehicle API."""
        lane = Lane.MAIN if i or self.merged else Lane.RAMP
        return VehicleState(self.ids[i], lane, self.s[i], self.v[i])

    def opponent(self) -> Optional[str]:
        if self.next_opponent < len(self.opponent_order):
            return self.opponent_order[self.next_opponent]
        return None

    def game_view(self, i: int) -> AgentView:
        return AgentView(*_game_terms(self.s[i], self.v[i]))

    def context_for(self, opponent: str, omega_hat: float) -> GameContext:
        return GameContext(
            av=self.game_view(0),
            mv=self.game_view(self.index[opponent]),
            av_omega=self.cfg.av.omega,
            mv_omega=_game_style(omega_hat),
            headway_t=self.cfg.headway_t,
        )

    # -- decision period ---------------------------------------------------

    def decision_step(self, t: float, trace: SimTrace) -> None:
        self.periods += 1
        opp = self.opponent()
        pending, self.pending = self.pending, None
        belief = ess = None
        if opp is None:
            merge = True  # yielded past the whole platoon: claim the tail slot
        else:
            v_opp = self.v[self.index[opp]]
            if pending is not None and pending.opponent == opp:
                reaction = observed_reaction(v_opp, pending.v_opponent)
                self.beliefs[opp] = update_belief(self.beliefs[opp], pending.ess, reaction, pending.ctx)
            belief = self.beliefs[opp]
            ctx = self.context_for(opp, belief.omega_hat)
            matrix = build_matrix(ctx)
            report = solve_ess(matrix)
            merge = merges(self.policy, matrix, report)
            ess = report.ess
            if ess is not None:
                self.pending = _Prediction(opponent=opp, ctx=ctx, ess=ess, v_opponent=v_opp)

        self.maneuver = Maneuver(ManeuverKind.MERGE_AHEAD if merge else ManeuverKind.YIELD_SHIFT, target=opp)
        trace.decisions.append(DecisionRecord(
            t=t, opponent=opp,
            p_star=None if ess is None else ess.p,
            q_star=None if ess is None else ess.q,
            maneuver=self.maneuver.kind,
            k_l=None if belief is None else belief.k_l,
            k_u=None if belief is None else belief.k_u,
        ))
        if merge:
            self.try_lane_change(t, trace)
        else:
            self.advance_past()

    def advance_past(self) -> None:
        self.next_opponent += 1
        self.pending = None

    def try_lane_change(self, t: float, trace: SimTrace) -> None:
        lo, hi = CONVERGENCE_AREA
        if not lo <= self.s[0] <= hi:
            return
        ahead = leaders(self.s)[0]
        front = None if ahead is None else self.view(ahead)
        target = self.maneuver.target
        rear = None if target is None else self.view(self.index[target])
        if execute_lane_change(self.view(0), front, rear, min_gap=self.idm[0].s0)[1]:
            self.merged = True
            self.front = ahead
            self.pending = None
            trace.lane_change_time = t
        elif target is not None:
            # Infeasible slot at the boundary: forced yield, re-queue.
            self.maneuver = Maneuver(ManeuverKind.YIELD_SHIFT, target=target)
            self.advance_past()

    # -- per-step controls -------------------------------------------------

    def accelerations(self) -> list[float]:
        """This step's commands, by vehicle index, in one pass over the columns.

        Each main-road vehicle follows its leader on the main lane (IDM, free
        road without one, full braking on overlap), the AV included once
        merged.  Before that the AV caps the driver it games while ahead of
        it.  Main-road commands then pass the comfort slew.
        """
        s, v, idm, prev = self.s, self.v, self.idm, self.prev_accel
        opp = None if self.merged else self.opponent()
        game = None if opp is None else self.index[opp]
        if self.merged:
            lead = leaders(s)
            lead[0] = self.front
            accel = []
        else:
            lead = leaders([-math.inf, *s[1:]])  # the ramp AV leads no one; its leader is the tail
            if self.maneuver.target is None and s[0] < s[lead[0]]:
                accel = []  # tail slot claimed: the AV follows the tail
            else:
                accel = [self.av_accel(lead[0])]
        span = self.jerk_span
        for i in range(len(accel), len(s)):
            j, w = lead[i], v[i]
            if j is None:
                a = idm_accel(idm[i], w, FREE_ROAD_GAP, 0.0)
            else:
                gap = body_gap(s[i], s[j])
                a = -EMERGENCY_DECEL if gap <= 0.0 else idm_accel(idm[i], w, gap, w - v[j])
            if i:  # the AV, when it follows here, is neither capped nor slewed
                if i == game and s[0] > s[i]:
                    cap = idm_accel(idm[i], w, max(body_gap(s[i], s[0]), 0.5), w - v[0])
                    if cap < a:
                        a = cap
                last = prev[i]
                if last is not None:
                    # min(max(a, last - span), last + span) as comparisons,
                    # except that an emergency target applies at once.
                    target = a
                    if last - span > a:
                        a = last - span
                    if last + span < a:
                        a = last + span
                    if target <= EMERGENCY_TARGET and target < a:
                        a = target
                prev[i] = a
            accel.append(a)
        return accel

    def av_accel(self, tail: int) -> float:
        """The ramp AV's tracking command: its maneuver target's, or the claimed platoon ``tail``'s."""
        if self.maneuver.target is None:
            return self.track(tail, yields=True)
        u = self.track(self.index[self.maneuver.target],
                       yields=self.maneuver.kind is ManeuverKind.YIELD_SHIFT)
        if (self.maneuver.kind is ManeuverKind.MERGE_AHEAD
                and self.next_opponent == self.first_opponent
                and self.periods <= PROBE_PERIODS):
            # Proactive acceleration test against the adjacent driver: open
            # the gap so a chase becomes visible before arrival tracking
            # takes over.  Every period so far was played against this first
            # opponent.  Later games skip the probe; the slot between two
            # platoon vehicles is too tight to accelerate into blindly.
            u = max(u, PROBE_ACCEL)
        return u

    def track(self, opponent: int, yields: bool) -> float:
        """The :func:`merge_control` command against vehicle ``opponent``."""
        s, v = self.s, self.v
        return merge_control(*_game_terms(s[0], v[0]), *_game_terms(s[opponent], v[opponent]),
                             self.cfg.headway_t, yields)


def _by_vehicle(ids: list[str], rows: list) -> dict[str, list]:
    """Per-step rows (one entry per vehicle) turned into per-vehicle columns."""
    return {vid: list(col) for vid, col in zip(ids, zip(*rows))}


def run_scenario(cfg: SimConfig, policy: Policy = Policy.EGT) -> SimTrace:
    """Run one seeded scenario to completion and return its trace."""
    sim = _Sim(cfg, policy)
    trace = SimTrace(seed=cfg.seed, policy=policy, dt=cfg.dt, duration=cfg.duration,
                     true_styles=sim.true_styles)
    positions, speeds, accels = [], [], []
    dt, period = cfg.dt, cfg.steps_per_period

    for k in range(cfg.n_steps):
        t = round(k * dt, 9)
        if k % period == 0 and not sim.merged:
            sim.decision_step(t, trace)

        accel = sim.accelerations()
        trace.t.append(t)
        positions.append(tuple(sim.s))
        speeds.append(tuple(sim.v))
        accels.append(accel)

        advance(sim.s, sim.v, accel, dt)
        # The ramp only ever holds the AV, so only the main lane can collide.
        main = 0 if sim.merged else 1
        for first, second in check_collision(sim.ids[main:], sim.s[main:]):
            trace.collisions.append(CollisionEvent(t=round((k + 1) * dt, 9), first=first, second=second))

    trace.s = _by_vehicle(sim.ids, positions)
    trace.v = _by_vehicle(sim.ids, speeds)
    trace.a = _by_vehicle(sim.ids, accels)
    _finalize(sim, trace)
    return trace


def _finalize(sim: _Sim, trace: SimTrace) -> None:
    """Final merge position: physical order if merged, projected slot otherwise."""
    mains = sorted(range(1, len(sim.ids)), key=lambda i: -sim.s[i])
    if sim.merged:
        ids = [sim.ids[i] for i in sorted([0, *mains], key=lambda i: -sim.s[i])]
    else:
        ids = [sim.ids[i] for i in mains]  # front to back
        opp = sim.opponent()
        ids.insert(len(ids) if opp is None else ids.index(opp), AV_ID)
    trace.final_order = tuple(ids)


# --------------------------------------------------------------------------
# Style-estimation testbench


@dataclass(frozen=True, slots=True)
class EstimationRound:
    t: float
    k_l: float
    k_u: float
    predicted_q: Optional[float]
    accelerated: bool
    updated: bool

    @property
    def omega_hat(self) -> float:
        return 0.5 * (self.k_l + self.k_u)


@dataclass(slots=True)
class EstimationResult:
    true_omega: float
    rounds: list[EstimationRound]
    belief: StyleBelief

    @property
    def n_updates(self) -> int:
        return sum(r.updated for r in self.rounds)

    @property
    def contained(self) -> bool:
        """Whether the true style never left the belief interval (1e-9 slack)."""
        return all(r.k_l - 1e-9 <= self.true_omega <= r.k_u + 1e-9 for r in self.rounds)

    @property
    def error(self) -> float:
        return abs(self.belief.omega_hat - self.true_omega)


#: Crisp longitudinal actions of the synthetic truthful driver, m/s^2.
BENCH_PUSH_ACCEL = 0.6
BENCH_YIELD_DECEL = -0.6

#: Probe schedule: merging-vehicle arrival times walked from far to near,
#: seconds.  Across this range the equilibrium's style boundary sweeps the
#: whole admissible style interval for merge-scale geometries.
BENCH_TAU_FAR = 26.0
BENCH_TAU_NEAR = 6.0
BENCH_TAU_STEP = 0.25


def run_estimation_bench(
    cfg: SimConfig,
    true_omega: float,
    seed: Optional[int] = None,
) -> EstimationResult:
    """Estimate a synthetic truthful driver's style through repeated probes.

    Each interaction is a short encounter with the same hidden-style driver
    at one point of an approach schedule: the merging vehicle arrives
    ``tau`` seconds from the merge point, the driver behind it at the
    scenario's configured offset.  The driver plays the equilibrium action
    of its own true style for one decision period (a visible push or a
    visible yield) and the resulting speed change is folded into the belief.
    Walking ``tau`` from ``BENCH_TAU_FAR`` to ``BENCH_TAU_NEAR`` in
    ``BENCH_TAU_STEP`` steps and back sweeps the equilibrium's style
    boundary up and then down across the whole interval, so both belief
    bounds get pinched against the true weight; updates remain strictly
    chronological.  ``seed`` does not change the result: it draws only
    ``normal`` headways, and no round reads one.  A file with fixed headways
    only never loads NumPy.
    """
    if not 0.0 < true_omega < 1.0:
        raise ValueError("true_omega must lie in (0, 1)")
    cfg = replace(cfg, seed=cfg.seed if seed is None else seed)
    sim = _Sim(cfg, Policy.EGT)
    opp = sim.opponent()
    if opp is None:
        raise ValueError("estimation bench needs an opponent behind the merging vehicle")
    i = sim.index[opp]
    offset = sim.s[0] - sim.s[i]
    if offset <= 0.0:
        raise ValueError("the bench opponent must be behind the merging vehicle")
    v_av, v_mv = sim.v[0], sim.v[i]

    belief = StyleBelief()
    rounds: list[EstimationRound] = []

    leg = int(math.floor((BENCH_TAU_FAR - BENCH_TAU_NEAR) / BENCH_TAU_STEP)) + 1
    schedule = [BENCH_TAU_FAR - k * BENCH_TAU_STEP for k in range(leg)]
    schedule += list(reversed(schedule[:-1]))
    for k, tau in enumerate(schedule):
        t = k * cfg.decision_period
        s_av = MERGE_POINT_S - tau * v_av
        s_mv = s_av - offset
        sim.s[0], sim.s[i] = s_av, s_mv

        # One kinematic context serves both games: the prediction at the
        # belief midpoint and the driver's own at its true style.
        ctx = sim.context_for(opp, belief.omega_hat)
        table = CellTable(ctx)
        ess = _operative_ess(table.gains_at(ctx.mv_omega))
        if ess is None:
            rounds.append(EstimationRound(
                t=t, k_l=belief.k_l, k_u=belief.k_u,
                predicted_q=None, accelerated=False, updated=False,
            ))
            continue

        truth = _operative_ess(table.gains_at(_game_style(true_omega)))
        if truth is not None and truth.q == 0.0:
            u_mv = BENCH_PUSH_ACCEL
        elif truth is not None and truth.q == 1.0:
            u_mv = BENCH_YIELD_DECEL
        else:
            u_mv = 0.0
        s, v, u = [s_mv], [v_mv], (u_mv,)
        for _ in range(cfg.steps_per_period):
            advance(s, v, u, cfg.dt)

        reaction = observed_reaction(v[0], v_mv)
        new_belief = update_belief(belief, ess, reaction, ctx)
        updated = new_belief != belief
        belief = new_belief

        rounds.append(EstimationRound(
            t=t, k_l=belief.k_l, k_u=belief.k_u,
            predicted_q=ess.q, accelerated=reaction.accelerated, updated=updated,
        ))

    return EstimationResult(true_omega=true_omega, rounds=rounds, belief=belief)
