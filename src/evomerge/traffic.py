"""Vehicle kinematics, IDM car-following, leader search, collision checks.

The road is modeled as two parallel lanes sharing one arc-length coordinate:
the main lane and the ramp, meeting at the merge point.  Geometry follows
the scenario layout: the gap decision is made in the merging area upstream
of the merge point, the lane change is executed in the convergence area
downstream of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from operator import sub
from typing import Optional, Sequence

# Road geometry (arc-length coordinates, meters).
MERGE_POINT_S = 200.0
CONVERGENCE_AREA = (200.0, 260.0)

VEHICLE_LENGTH = 5.0

#: Hard deceleration bound for car-following output, m/s^2.
EMERGENCY_DECEL = 8.0


class Lane(Enum):
    MAIN = "main"
    RAMP = "ramp"


@dataclass(frozen=True, slots=True)
class VehicleState:
    """Longitudinal state of one vehicle on the shared arc-length axis."""

    vid: str
    lane: Lane
    s: float
    v: float

    def __post_init__(self) -> None:
        if self.v < 0.0:
            raise ValueError(f"speed must be >= 0, got {self.v}")


def step_kinematics(state: VehicleState, u: float, t_s: float) -> VehicleState:
    """Discrete double-integrator update with a nonnegative-speed clamp.

    s' = s + T_s v,  v' = max(0, v + T_s u).
    """
    if t_s <= 0.0:
        raise ValueError(f"step size must be positive, got {t_s}")
    s, v = [state.s], [state.v]
    advance(s, v, (u,), t_s)
    return VehicleState(state.vid, state.lane, s[0], v[0])


def advance(s: list[float], v: list[float], accel: Sequence[float], t_s: float) -> None:
    """One :func:`step_kinematics` step in place for each vehicle of the columns ``s`` and ``v``."""
    for i, u in enumerate(accel):
        s[i] += t_s * v[i]
        w = v[i] + t_s * u
        v[i] = w if w > 0.0 else 0.0  # max(0.0, w), -0.0 and NaN included


@dataclass(frozen=True, slots=True)
class IDMParams:
    """Intelligent-driver-model parameters; T and v0 carry the driving style."""

    v0: float = 15.0
    T: float = 1.5
    a_max: float = 1.5
    b: float = 2.0
    s0: float = 2.0
    delta: float = 4.0  # the free-road exponent; no other value is accepted
    #: 2 sqrt(a_max b), the denominator of the dynamic term of s*.
    brake_scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("v0", "T", "a_max", "b", "s0"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"IDM parameter {name} must be positive")
        if self.delta != 4.0:
            raise ValueError(f"the IDM exponent delta is fixed at 4.0, got {self.delta}")
        object.__setattr__(self, "brake_scale", 2.0 * math.sqrt(self.a_max * self.b))


#: Stand-in gap when a vehicle has no leader.
FREE_ROAD_GAP = 1.0e6


def idm_accel(p: IDMParams, v: float, gap: float, dv: float) -> float:
    """IDM acceleration for speed v, bumper gap, and closing speed dv = v - v_leader.

    a = a_max [1 - (v/v0)^delta - (s*/gap)^2],
    s* = s0 + v T + v dv / (2 sqrt(a_max b)),
    clamped to [-EMERGENCY_DECEL, a_max].  A non-positive gap means the
    configuration has already collided and is rejected rather than clamped.
    """
    if gap <= 0.0:
        raise ValueError(f"non-positive gap {gap}: vehicles already overlap")
    s_star = p.s0 + v * p.T + v * dv / p.brake_scale
    a = p.a_max * (1.0 - (v / p.v0) ** p.delta - (s_star / gap) ** 2)
    # min(max(a, -EMERGENCY_DECEL), p.a_max) as comparisons, NaN included
    return -EMERGENCY_DECEL if a < -EMERGENCY_DECEL else p.a_max if a > p.a_max else a


def projected_arrival(s: float, v: float) -> float:
    """Time to the merge point from position s at speed v; negative once past it."""
    return (MERGE_POINT_S - s) / max(v, 1e-9)


def body_gap(rear_s: float, front_s: float) -> float:
    """Bumper-to-bumper distance between two positions; negative when the bodies overlap."""
    return (front_s - rear_s) - VEHICLE_LENGTH


def leaders(positions: Sequence[float]) -> list[Optional[int]]:
    """Index of each vehicle's leader among ``positions``, None for the front ones.

    The leader is the nearest vehicle strictly ahead; among several at that
    position the lowest index wins.  One sort serves every vehicle.
    """
    out: list[Optional[int]] = [None] * len(positions)
    leader = head = None  # lowest index of the position group above / of this one
    group_s = None
    # Walking the stable ascending sort backwards meets each tie group
    # highest index first, so its head is the last member seen.
    for i in reversed(sorted(range(len(positions)), key=positions.__getitem__)):
        s = positions[i]
        if s != group_s:
            leader, group_s = head, s
        head = i
        out[i] = leader
    return out


def check_collision(vids: Sequence[str], positions: Sequence[float]) -> list[tuple[str, str]]:
    """Pairs of one lane's vehicles whose bodies overlap, one entry per vehicle.

    Two bodies overlap when their centers are less than one vehicle length
    apart.  Each pair is ordered by id; pairs come in (position, id) order of
    their first vehicle.
    """
    hits: list[tuple[str, str]] = []
    spread = sorted(positions)
    if min(map(sub, spread[1:], spread), default=VEHICLE_LENGTH) >= VEHICLE_LENGTH:
        return hits  # no two bodies come close enough to touch
    ordered = sorted(zip(positions, vids))
    for i, (s_a, vid_a) in enumerate(ordered):
        for s_b, vid_b in ordered[i + 1:]:
            if s_b - s_a >= VEHICLE_LENGTH:
                break  # later vehicles are farther still
            hits.append((vid_a, vid_b) if vid_a < vid_b else (vid_b, vid_a))
    return hits


# Ground-truth link between a preferred time headway and the style weight:
# a shorter headway reads as more aggressive.  The inverse maps a style back to
# a headway for vehicles whose headway is not configured directly.
STYLE_HEADWAY_REF = 2.5
STYLE_HEADWAY_SPAN = 2.0
STYLE_MIN, STYLE_MAX = 0.05, 0.95


def style_from_headway(headway: float) -> float:
    raw = (STYLE_HEADWAY_REF - headway) / STYLE_HEADWAY_SPAN
    return min(max(raw, STYLE_MIN), STYLE_MAX)


def headway_from_style(omega: float) -> float:
    return STYLE_HEADWAY_REF - STYLE_HEADWAY_SPAN * omega


#: Style-linked acceleration limit: a_max = ACCEL_BASE + ACCEL_SLOPE * omega.
#: Aggressive drivers push harder; conservative drivers regain speed lazily,
#: which keeps their post-yield recovery below the reaction deadband.
ACCEL_BASE = 0.6
ACCEL_SLOPE = 1.6

#: Nominal main-road speed anchoring the desired speeds, m/s.
FLOW_SPEED = 10.0
#: Extra desired speed of a fully aggressive style, m/s.
SPEED_SLACK = 6.0


def desired_speed(omega: float) -> float:
    """Style-linked IDM desired speed.

    Neutral and conservative drivers are content with the prevailing flow
    speed; aggressive drivers want to travel above it, by up to
    ``SPEED_SLACK`` m/s at omega = 1.  This keeps an undisturbed platoon from
    drifting upward en masse while still letting aggressive drivers close
    gaps actively.
    """
    return FLOW_SPEED + SPEED_SLACK * max(0.0, 2.0 * (omega - 0.5))


def style_accel_limit(omega: float) -> float:
    return ACCEL_BASE + ACCEL_SLOPE * omega


def idm_params_for_style(omega: float, headway: float) -> IDMParams:
    return IDMParams(v0=desired_speed(omega), T=headway, a_max=style_accel_limit(omega))
