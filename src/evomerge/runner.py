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
from typing import Optional

import numpy as np

from .baselines import Policy, merge_profile, select_nash, stackelberg
from .egt import EquilibriumReport, StrategyState, _operative_ess, solve_ess
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


def decide(report: EquilibriumReport, target: Optional[str] = None) -> Maneuver:
    """Map an equilibrium report to a maneuver.

    Merge ahead only on a unique stable point with p* < q* (the merging
    vehicle pushes, the opponent yields).  Everything else, including the
    both-push point, no stable point, and multiple stable points, falls back
    to yielding: the conservative default preserves the safety claims.
    """
    merges = merge_profile(report.ess if report.has_unique_ess else None)
    return Maneuver(ManeuverKind.MERGE_AHEAD if merges else ManeuverKind.YIELD_SHIFT, target=target)


def _game_style(omega: float) -> float:
    """A style weight clamped into [1e-9, 1 - 1e-9], where every game is built."""
    eps = 1e-9
    return min(max(omega, eps), 1.0 - eps)


def merge_control(ctx: GameContext, maneuver: Maneuver) -> float:
    """Constant-acceleration command tracking the maneuver's arrival target.

    Merging ahead schedules arrival one headway margin before the opponent's
    projected arrival, yielding one margin after it; the go-branch time is
    floored and the command clamped to the control authority.
    """
    return _tracking_accel(ctx.av.dist_to_merge, ctx.av.speed, ctx.mv.dist_to_merge, ctx.mv.speed,
                           ctx.headway_t, yields=maneuver.kind is ManeuverKind.YIELD_SHIFT)


def _tracking_accel(d_av: float, v_av: float, d_opp: float, v_opp: float,
                    headway_t: float, yields: bool) -> float:
    """The :func:`merge_control` command from the two players' game views, on plain floats."""
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
    """Fixed headway, or one truncated-normal draw per run."""

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

    def sample(self, rng: np.random.Generator) -> float:
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
        rng = np.random.default_rng(cfg.seed)

        self.mv_ids: list[str] = []
        # By vehicle index, the merging vehicle's own style first.
        self.idm = [idm_params_for_style(cfg.av.omega, headway_from_style(cfg.av.omega))]
        self.true_styles: dict[str, float] = {}
        for spec in cfg.vehicles:
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
        arrival = [projected_arrival(self.view(i)) for i in range(len(self.ids))]

        self.beliefs: dict[str, StyleBelief] = {vid: StyleBelief() for vid in self.mv_ids}
        self.pending: Optional[_Prediction] = None
        self.maneuver = Maneuver(ManeuverKind.YIELD_SHIFT, target=None)
        self.front: Optional[int] = None  # index of the AV's leader once merged
        self.prev_accel: list[Optional[float]] = [None] * len(self.ids)
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

    def place(self, state: VehicleState) -> None:
        """Write a state object's position and speed back into the columns."""
        i = self.index[state.vid]
        self.s[i], self.v[i] = state.s, state.v

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

        if opp is None:
            # Yielded past the whole platoon: claim the tail slot.
            self.pending = None
            self.maneuver = Maneuver(ManeuverKind.MERGE_AHEAD, target=None)
            trace.decisions.append(DecisionRecord(
                t=t, opponent=None, p_star=None, q_star=None,
                maneuver=self.maneuver.kind, k_l=None, k_u=None,
            ))
            self.try_lane_change(t, trace)
            return

        v_opp = self.v[self.index[opp]]
        if self.pending is not None and self.pending.opponent == opp:
            reaction = observed_reaction(v_opp, self.pending.v_opponent)
            self.beliefs[opp] = update_belief(
                self.beliefs[opp], self.pending.ess, reaction, self.pending.ctx
            )
        self.pending = None

        belief = self.beliefs[opp]
        ctx = self.context_for(opp, belief.omega_hat)
        matrix = build_matrix(ctx)
        report = solve_ess(matrix)

        if self.policy is Policy.EGT:
            self.maneuver = decide(report, target=opp)
        else:
            profile = select_nash(matrix) if self.policy is Policy.NASH else stackelberg(matrix)
            kind = ManeuverKind.MERGE_AHEAD if merge_profile(profile) else ManeuverKind.YIELD_SHIFT
            self.maneuver = Maneuver(kind, target=opp)

        if report.ess is not None:
            self.pending = _Prediction(opponent=opp, ctx=ctx, ess=report.ess, v_opponent=v_opp)

        trace.decisions.append(DecisionRecord(
            t=t, opponent=opp,
            p_star=report.ess.p if report.ess else None,
            q_star=report.ess.q if report.ess else None,
            maneuver=self.maneuver.kind,
            k_l=belief.k_l, k_u=belief.k_u,
        ))

        if self.maneuver.kind is ManeuverKind.YIELD_SHIFT:
            self.advance_past()
        else:
            self.try_lane_change(t, trace)

    def advance_past(self) -> None:
        self.next_opponent += 1
        self.pending = None

    def try_lane_change(self, t: float, trace: SimTrace) -> None:
        lo, hi = CONVERGENCE_AREA
        if not lo <= self.s[0] <= hi or self.maneuver.kind is not ManeuverKind.MERGE_AHEAD:
            return
        ahead = leaders(self.s)[0]
        front = None if ahead is None else self.view(ahead)
        rear = self.view(self.index[self.maneuver.target]) if self.maneuver.target else None
        moved, ok = execute_lane_change(self.view(0), front, rear, min_gap=self.idm[0].s0)
        if ok:
            self.place(moved)
            self.merged = True
            self.front = ahead
            self.pending = None
            trace.lane_change_time = t
        elif self.maneuver.target is not None:
            # Infeasible slot at the boundary: forced yield, re-queue.
            self.maneuver = Maneuver(ManeuverKind.YIELD_SHIFT, target=self.maneuver.target)
            self.advance_past()

    # -- per-step controls -------------------------------------------------

    def accelerations(self) -> list[float]:
        """This step's commands, by vehicle index."""
        s, v = self.s, self.v
        accel = [self.av_accel()]
        # Each main-road vehicle follows its leader on the main lane, the AV
        # included once merged.  Before that the AV is a virtual leader: it
        # constrains the driver it is actively gaming while it is ahead.
        first = 0 if self.merged else 1  # index of the first main-lane vehicle
        opp = None if self.merged else self.opponent()
        game = None if opp is None else self.index[opp]
        for i, ahead in enumerate(leaders(s[first:])[1 - first:], start=1):
            a = self.follow(i, None if ahead is None else ahead + first)
            if i == game and s[0] > s[i]:
                gap = max(body_gap(s[i], s[0]), 0.5)
                a = min(a, idm_accel(self.idm[i], v[i], gap, v[i] - v[0]))
            accel.append(self.slewed(i, a))
        return accel

    def follow(self, i: int, leader: Optional[int]) -> float:
        """IDM command of vehicle i behind ``leader`` (free road when None); full braking on overlap."""
        s, v = self.s, self.v
        if leader is None:
            return idm_accel(self.idm[i], v[i], FREE_ROAD_GAP, 0.0)
        gap = body_gap(s[i], s[leader])
        if gap <= 0.0:
            return -EMERGENCY_DECEL
        return idm_accel(self.idm[i], v[i], gap, v[i] - v[leader])

    def av_accel(self) -> float:
        if self.merged:
            return self.follow(0, self.front)
        if self.maneuver.target is None:
            # Tail slot claimed, the only maneuver without a target: settle behind the platoon.
            tail = min(range(1, len(self.ids)), key=self.s.__getitem__)
            if self.s[0] < self.s[tail]:
                return self.follow(0, tail)
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
        """The :func:`merge_control` command against vehicle ``opponent``, without a game context."""
        s, v = self.s, self.v
        return _tracking_accel(*_game_terms(s[0], v[0]), *_game_terms(s[opponent], v[opponent]),
                               self.cfg.headway_t, yields)

    def slewed(self, i: int, target: float) -> float:
        prev = self.prev_accel[i]
        if prev is None:
            self.prev_accel[i] = target
            return target
        span = JERK_LIMIT * self.cfg.dt
        a = min(max(target, prev - span), prev + span)
        if target <= EMERGENCY_TARGET and target < a:
            a = target
        self.prev_accel[i] = a
        return a

    def step(self, accel: list[float]) -> None:
        """Advance every vehicle by one kinematic step in place."""
        s, v, dt = self.s, self.v, self.cfg.dt
        for i, u in enumerate(accel):
            s[i], v[i] = advance(s[i], v[i], u, dt)


def _by_vehicle(ids: list[str], rows: list) -> dict[str, list]:
    """Per-step rows (one entry per vehicle) turned into per-vehicle columns."""
    return {vid: list(col) for vid, col in zip(ids, zip(*rows))}


def run_scenario(cfg: SimConfig, policy: Policy = Policy.EGT) -> SimTrace:
    """Run one seeded scenario to completion and return its trace."""
    sim = _Sim(cfg, policy)
    trace = SimTrace(seed=cfg.seed, policy=policy, dt=cfg.dt, duration=cfg.duration,
                     true_styles=sim.true_styles)
    positions, speeds, accels = [], [], []

    for k in range(cfg.n_steps):
        t = round(k * cfg.dt, 9)
        if k % cfg.steps_per_period == 0 and not sim.merged:
            sim.decision_step(t, trace)

        accel = sim.accelerations()
        trace.t.append(t)
        positions.append(tuple(sim.s))
        speeds.append(tuple(sim.v))
        accels.append(accel)

        sim.step(accel)
        # The ramp only ever holds the AV, so only the main lane can collide.
        main = 0 if sim.merged else 1
        for first, second in check_collision(sim.ids[main:], sim.s[main:]):
            trace.collisions.append(CollisionEvent(t=round((k + 1) * cfg.dt, 9), first=first, second=second))

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
    chronological.
    """
    if not 0.0 < true_omega < 1.0:
        raise ValueError("true_omega must lie in (0, 1)")
    cfg = replace(cfg, seed=cfg.seed if seed is None else seed)
    sim = _Sim(cfg, Policy.EGT)
    opp = sim.opponent()
    if opp is None:
        raise ValueError("estimation bench needs an opponent behind the merging vehicle")
    i = sim.index[opp]
    av, mv = sim.view(0), sim.view(i)
    offset = mv.dist_to_merge - av.dist_to_merge
    if offset <= 0.0:
        raise ValueError("the bench opponent must be behind the merging vehicle")
    v_av = av.v
    v_mv = mv.v

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
        v_now = v_mv
        for _ in range(cfg.steps_per_period):
            s_mv, v_now = advance(s_mv, v_now, u_mv, cfg.dt)

        reaction = observed_reaction(v_now, v_mv)
        new_belief = update_belief(belief, ess, reaction, ctx)
        updated = new_belief != belief
        belief = new_belief

        rounds.append(EstimationRound(
            t=t, k_l=belief.k_l, k_u=belief.k_u,
            predicted_q=ess.q, accelerated=reaction.accelerated, updated=updated,
        ))

    return EstimationResult(true_omega=true_omega, rounds=rounds, belief=belief)
