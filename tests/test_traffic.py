import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from evomerge import (
    IDMParams,
    Lane,
    VehicleState,
    check_collision,
    idm_accel,
    step_kinematics,
)
from evomerge.traffic import (
    FREE_ROAD_GAP,
    VEHICLE_LENGTH,
    advance,
    body_gap,
    desired_speed,
    headway_from_style,
    leaders,
    style_accel_limit,
    style_from_headway,
)


def veh(vid, s, v):
    return VehicleState(vid=vid, lane=Lane.MAIN, s=s, v=v)


def test_step_constant_velocity():
    out = step_kinematics(veh("x", 0.0, 10.0), u=0.0, t_s=0.1)
    assert out.s == pytest.approx(1.0)
    assert out.v == 10.0


def test_step_direct_substitution():
    out = step_kinematics(veh("x", 0.0, 10.0), u=2.0, t_s=0.1)
    assert out.s == pytest.approx(1.0)
    assert out.v == pytest.approx(10.2)


def test_step_speed_clamps_at_zero():
    out = step_kinematics(veh("x", 0.0, 0.05), u=-2.0, t_s=0.1)
    assert out.v == 0.0


def test_step_rejects_bad_dt():
    with pytest.raises(ValueError):
        step_kinematics(veh("x", 0.0, 1.0), u=0.0, t_s=0.0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(
    st.floats(min_value=-1e3, max_value=1e3),
    st.one_of(st.sampled_from([0.0, -0.0, 0.05, 1.0]), st.floats()),
    st.one_of(st.sampled_from([0.0, -0.0, -0.5, -10.0]), st.floats()),
), max_size=6), st.sampled_from([0.1, 0.05, 1.0]))
# Below zero, exactly -0.0, exactly 0.0 and NaN: each speed becomes +0.0, as max(0.0, w) gives.
@example([(0.0, 0.05, -2.0), (0.0, -0.0, -0.0), (0.0, 1.0, -10.0), (0.0, math.nan, 1.0)], 0.1)
def test_advance_in_place_matches_the_scalar_law(rows, dt):
    # s' = s + dt v, v' = max(0.0, v + dt u), bit for bit.
    s, v = [row[0] for row in rows], [row[1] for row in rows]
    advance(s, v, [row[2] for row in rows], dt)
    assert repr(s) == repr([s0 + dt * v0 for s0, v0, _ in rows])
    assert repr(v) == repr([max(0.0, v0 + dt * u) for _, v0, u in rows])


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=500.0),
    st.floats(min_value=5.0, max_value=30.0),
    st.floats(min_value=-1.0, max_value=1.5),
)
def test_constant_input_matches_closed_form(s0, v0, u):
    # forward integration: v(n) = v0 + n dt u,  s(n) = s0 + dt sum v(k)
    dt = 0.1
    n = 100
    assume(v0 + n * dt * u >= 0.0)  # keep the speed clamp disengaged
    state = veh("x", s0, v0)
    for _ in range(n):
        state = step_kinematics(state, u, dt)
    v_exact = v0 + n * dt * u
    s_exact = s0 + n * dt * v0 + dt * dt * u * (n * (n - 1) / 2)
    assert state.v == pytest.approx(v_exact, abs=1e-9)
    assert state.s == pytest.approx(s_exact, abs=1e-9)


DEFAULT = IDMParams(v0=15.0, T=1.5, a_max=1.5, b=2.0, s0=2.0, delta=4.0)


def test_idm_free_road_equilibrium_at_desired_speed():
    assert abs(idm_accel(DEFAULT, 15.0, FREE_ROAD_GAP, 0.0)) < 1e-3


def test_idm_free_flow_accelerates_below_desired():
    a = idm_accel(DEFAULT, 10.0, FREE_ROAD_GAP, 0.0)
    assert a == pytest.approx(1.5 * (1 - (10 / 15) ** 4), abs=1e-3)


def test_idm_same_speed_leader_at_desired_gap():
    # independent transcription of the formula for this configuration
    gap = DEFAULT.s0 + 10.0 * DEFAULT.T
    expected = 1.5 * (1.0 - (10.0 / 15.0) ** 4 - 1.0)
    assert idm_accel(DEFAULT, 10.0, gap, 0.0) == pytest.approx(expected, abs=1e-9)


def test_idm_equilibrium_gap_residual():
    # at gap = s* / sqrt(1 - (v/v0)^delta) the acceleration vanishes
    v = 10.0
    s_star = DEFAULT.s0 + v * DEFAULT.T
    gap = s_star / math.sqrt(1.0 - (v / DEFAULT.v0) ** DEFAULT.delta)
    assert abs(idm_accel(DEFAULT, v, gap, 0.0)) < 1e-6


def test_idm_exponent_is_fixed_at_four():
    assert IDMParams(delta=4.0).delta == 4.0
    for delta in (1.0, 2.0, 3.999, 5.0, math.nan):
        with pytest.raises(ValueError, match="delta"):
            IDMParams(delta=delta)


def test_idm_rejects_nonpositive_gap():
    with pytest.raises(ValueError):
        idm_accel(DEFAULT, 10.0, 0.0, 0.0)


def test_idm_clamps_to_emergency_decel():
    assert idm_accel(DEFAULT, 20.0, 0.5, 10.0) == -8.0


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=1.0, max_value=200.0),
    st.floats(min_value=1.0, max_value=200.0),
    st.floats(min_value=-5.0, max_value=5.0),
)
def test_idm_monotone_in_gap(v, g1, g2, dv):
    lo, hi = min(g1, g2), max(g1, g2)
    assert idm_accel(DEFAULT, v, hi, dv) >= idm_accel(DEFAULT, v, lo, dv)


def test_collision_same_lane_overlap():
    hits = check_collision(["a", "b"], [100.0, 104.0])
    assert hits == [("a", "b")]


def test_collision_clear_gap():
    hits = check_collision(["a", "b"], [100.0, 105.1])
    assert hits == []


def all_pairs_overlaps(vids, positions):
    """Every pair closer than one vehicle length, ranked by (position, id)."""
    order = sorted(range(len(vids)), key=lambda i: (positions[i], vids[i]))
    hits = []
    for x, i in enumerate(order):
        for j in order[x + 1:]:
            if abs(positions[i] - positions[j]) < VEHICLE_LENGTH:
                hits.append(tuple(sorted((vids[i], vids[j]))))
    return hits


# Few distinct positions, so exact ties and touching bodies are common.
POSITIONS = st.sampled_from([0.0, 2.5, 4.0, 5.0, 9.5, 12.0]) | st.floats(-20.0, 20.0)


@settings(max_examples=300, deadline=None)
@given(st.lists(POSITIONS, max_size=9), st.randoms(use_true_random=False))
def test_collision_check_matches_all_pairs(positions, rnd):
    vids = [f"v{k}" for k in range(len(positions))]
    rnd.shuffle(vids)  # id order independent of list order
    assert check_collision(vids, positions) == all_pairs_overlaps(vids, positions)


def nearest_ahead(positions, s):
    """Nearest position strictly ahead of s; ties to the lowest index."""
    best = None
    for j, other in enumerate(positions):
        if other > s and (best is None or other < positions[best]):
            best = j
    return best


@settings(max_examples=300, deadline=None)
@given(st.lists(POSITIONS, max_size=9))
def test_leaders_are_the_nearest_vehicle_ahead(positions):
    assert leaders(positions) == [nearest_ahead(positions, s) for s in positions]


def test_body_gap():
    assert body_gap(100.0, 120.0) == pytest.approx(15.0)


def test_style_headway_link_round_trip():
    assert style_from_headway(2.5) == pytest.approx(0.05)  # clamped floor
    assert style_from_headway(0.5) == pytest.approx(0.95)  # clamped ceiling
    assert style_from_headway(1.5) == pytest.approx(0.5)
    assert headway_from_style(0.5) == pytest.approx(1.5)


def test_desired_speed_link():
    assert desired_speed(0.3) == 10.0
    assert desired_speed(0.5) == 10.0
    assert desired_speed(0.75) == pytest.approx(13.0)


def test_style_accel_limit_increases_with_aggression():
    assert style_accel_limit(0.75) > style_accel_limit(0.25)
