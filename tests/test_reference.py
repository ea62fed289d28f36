"""Weight functions, target programs, and reference-velocity generation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmtrack.engine import TurningRef
from swarmtrack.reference import (
    ConstantVelocityTarget,
    ConstantWeight,
    DistanceDependentWeight,
    TurningTarget,
    WaypointTarget,
    polar_velocity,
    reference_kinematics,
    reference_rates,
    reference_signal,
    target_state,
)


# --------------------------------------------------------------------------
# weights


def test_constant_weight():
    w = ConstantWeight(0.5)
    assert w.pull(0.0)[0] == 0.5
    assert w.pull(123.0)[0] == 0.5
    with pytest.raises(ValueError):
        ConstantWeight(0.0)


def test_distance_weight_values():
    w = DistanceDependentWeight(scale=0.1)
    # (1/10)(1 - e^{-1})
    assert w.pull(10.0)[0] == pytest.approx(0.0632120558828558, abs=1e-15)
    assert w.pull(0.0)[0] == 0.1  # continuous extension


def test_distance_weight_continuous_at_zero():
    w = DistanceDependentWeight(scale=0.1)
    assert w.pull(1e-9)[0] == pytest.approx(w.pull(0.0)[0], rel=1e-6)


@given(st.floats(1e-6, 1e4), st.floats(1e-6, 1e4))
@settings(max_examples=100)
def test_distance_weight_decreasing_and_bounded(r1, r2):
    w = DistanceDependentWeight(scale=0.25)
    lo, hi = sorted((r1, r2))
    w_lo, w_hi = w.pull(lo)[0], w.pull(hi)[0]
    assert 0.0 < w_hi <= w_lo <= w.scale
    # position pull saturates: w(rho)*rho = 1 - e^{-scale*rho} <= 1
    # (equality only by float rounding at huge scale*rho)
    assert w_hi * hi <= 1.0


@pytest.mark.parametrize("w", [ConstantWeight(0.3), DistanceDependentWeight(0.1)])
def test_weight_pull_matches_weight_and_slope(w):
    value, slope = w.pull(0.0)
    assert slope == value  # slope of rho*w at 0 is w(0)
    for rho in (0.5, 7.0, 40.0, 300.0):
        _, slope = w.pull(rho)
        h = 1e-5 * rho
        fd = ((rho + h) * w.pull(rho + h)[0] - (rho - h) * w.pull(rho - h)[0]) / (2.0 * h)
        assert slope == pytest.approx(fd, rel=1e-7, abs=1e-12)


# --------------------------------------------------------------------------
# target programs


def test_constant_velocity_target():
    tgt = ConstantVelocityTarget(initial_position=(0, 0), velocity=(2, 0))
    pos, vel = target_state(tgt, 5.0)
    np.testing.assert_allclose(pos, [10.0, 0.0])
    np.testing.assert_allclose(vel, [2.0, 0.0])
    assert tgt.max_speed() == 2.0


def test_target_state_rejects_negative_time():
    tgt = ConstantVelocityTarget(initial_position=(0, 0), velocity=(1, 0))
    with pytest.raises(ValueError, match="non-negative"):
        target_state(tgt, -0.5)


def test_turning_target_closes_its_circle():
    tgt = TurningTarget(initial_position=(3, -1), speed=1.0, kappa=0.5)
    period = 2.0 * math.pi / 0.5
    pos, vel = target_state(tgt, period)
    np.testing.assert_allclose(pos, [3.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(vel, [1.0, 0.0], atol=1e-12)
    # quarter turn: velocity rotated by +90 degrees
    pos_q, vel_q = target_state(tgt, period / 4.0)
    np.testing.assert_allclose(vel_q, [0.0, 1.0], atol=1e-12)
    assert tgt.max_speed() == 1.0


def test_turning_target_zero_kappa_is_a_line():
    tgt = TurningTarget(initial_position=(0, 0), speed=2.0, kappa=0.0, heading0=0.3)
    pos, vel = target_state(tgt, 4.0)
    np.testing.assert_allclose(pos, [8.0 * math.cos(0.3), 8.0 * math.sin(0.3)], atol=1e-12)
    np.testing.assert_allclose(vel, [2.0 * math.cos(0.3), 2.0 * math.sin(0.3)], atol=1e-12)


@pytest.mark.parametrize("kappa", [1e-310, -1e-310, 5e-324, 1e-300, -1e-300])
def test_turning_target_subnormal_kappa_is_a_line(kappa):
    # speed / kappa overflows to inf, where the arc form would give (inf, nan),
    # or kappa * t is lost against heading0, where it would give no offset
    tgt = TurningTarget(initial_position=(3.0, -1.0), speed=2.0, kappa=kappa, heading0=0.3)
    pos, vel = target_state(tgt, 4.0)
    np.testing.assert_allclose(pos, [3.0 + 8.0 * math.cos(0.3), -1.0 + 8.0 * math.sin(0.3)],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(vel, [2.0 * math.cos(0.3), 2.0 * math.sin(0.3)], atol=1e-12)


SQUARE = ((0.0, 0.0), (100.0, 0.0), (100.0, 100.0), (0.0, 100.0))


def test_waypoint_target_corner_turn():
    tgt = WaypointTarget(waypoints=SQUARE, speed=2.0)
    pos, vel = target_state(tgt, 10.0)
    np.testing.assert_allclose(pos, [20.0, 0.0])
    np.testing.assert_allclose(vel, [2.0, 0.0])
    # exactly at the first corner the velocity already points up the next leg
    pos, vel = target_state(tgt, 50.0)
    np.testing.assert_allclose(pos, [100.0, 0.0])
    np.testing.assert_allclose(vel, [0.0, 2.0])


def test_waypoint_target_dwell_then_go():
    tgt = WaypointTarget(waypoints=SQUARE, speed=2.0, dwell=30.0)
    pos, vel = target_state(tgt, 12.0)
    np.testing.assert_allclose(pos, [0.0, 0.0])
    np.testing.assert_allclose(vel, [0.0, 0.0])
    pos, vel = target_state(tgt, 31.0)
    np.testing.assert_allclose(pos, [2.0, 0.0])
    np.testing.assert_allclose(vel, [2.0, 0.0])


def test_waypoint_target_closed_loops():
    tgt = WaypointTarget(waypoints=SQUARE, speed=2.0, closed=True)
    lap = 400.0 / 2.0
    pos1, vel1 = target_state(tgt, 37.0)
    pos2, vel2 = target_state(tgt, 37.0 + lap)
    np.testing.assert_allclose(pos1, pos2, atol=1e-9)
    np.testing.assert_allclose(vel1, vel2, atol=1e-9)


def test_waypoint_target_open_path_stops():
    tgt = WaypointTarget(waypoints=SQUARE, speed=2.0, closed=False)
    pos, vel = target_state(tgt, 1000.0)
    np.testing.assert_allclose(pos, [0.0, 100.0])
    np.testing.assert_allclose(vel, [0.0, 0.0])


def test_waypoint_target_validation():
    with pytest.raises(ValueError, match="empty"):
        WaypointTarget(waypoints=(), speed=1.0)
    with pytest.raises(ValueError, match="duplicate"):
        WaypointTarget(waypoints=((0, 0), (0, 0), (1, 1)), speed=1.0)
    with pytest.raises(ValueError, match="speed"):
        WaypointTarget(waypoints=SQUARE, speed=0.0)
    # single waypoint: a static target
    tgt = WaypointTarget(waypoints=((5.0, 5.0),), speed=1.0)
    pos, vel = target_state(tgt, 99.0)
    np.testing.assert_allclose(pos, [5.0, 5.0])
    np.testing.assert_allclose(vel, [0.0, 0.0])


def test_open_route_rests_at_its_last_waypoint_from_an_ulp_before_its_end():
    # an ulp before the end, the running subtraction already leaves s on the
    # last segment's length
    tgt = WaypointTarget(waypoints=((79, 53), (-48, 19), (48, 67), (42, -93)), speed=1.0,
                         closed=False)
    for t in (398.91615396705623, 398.9161539670563):
        pos, vel = target_state(tgt, t)
        np.testing.assert_array_equal(pos, [42.0, -93.0])
        np.testing.assert_array_equal(vel, [0.0, 0.0])


def test_closed_route_rounding_onto_its_end_starts_its_first_segment():
    # fmod leaves s an ulp short of the lap; the running subtraction then
    # lands exactly on the closing segment's length
    wps = ((28, -44), (67, -32), (-39, -17), (-53, 73))
    tgt = WaypointTarget(waypoints=wps, speed=1.0, closed=True)
    pos, vel = target_state(tgt, 381.2453466083575)
    np.testing.assert_array_equal(pos, [28.0, -44.0])
    first = np.subtract(wps[1], wps[0])
    np.testing.assert_allclose(vel, first / np.linalg.norm(first), rtol=1e-15)


def test_target_acceleration_closed_form():
    tgt = TurningTarget(initial_position=(3, -1), speed=1.5, kappa=0.2, heading0=0.4)
    h = 1e-5
    for t in (0.5, 3.0, 17.0):
        fd = (target_state(tgt, t + h)[1] - target_state(tgt, t - h)[1]) / (2.0 * h)
        np.testing.assert_allclose(tgt.acceleration(t), fd, atol=1e-8)
    line = ConstantVelocityTarget(initial_position=(0, 0), velocity=(2, 1))
    np.testing.assert_array_equal(line.acceleration(4.0), [0.0, 0.0])
    # waypoint corners are velocity resets: no acceleration anywhere, corner included
    square = WaypointTarget(waypoints=SQUARE, speed=2.0)
    for t in (10.0, 50.0, 75.0):
        np.testing.assert_array_equal(square.acceleration(t), [0.0, 0.0])


# --------------------------------------------------------------------------
# reference velocity


def test_reference_velocity_constant_weight():
    out, _ = reference_kinematics((10, 0), (2, 0), (0, 0), (0, 0), ConstantWeight(0.3))
    np.testing.assert_allclose(out, [5.0, 0.0], atol=1e-15)


def test_reference_velocity_distance_weight():
    out, _ = reference_kinematics((10, 0), (2, 0), (0, 0), (0, 0), DistanceDependentWeight(0.1))
    np.testing.assert_allclose(out, [2.0 + (1.0 - math.exp(-1.0)), 0.0], atol=1e-15)


def test_reference_velocity_at_zero_offset_is_target_velocity():
    target_vel = np.array([1.25, -0.75])
    out, _ = reference_kinematics((3, 4), target_vel, (0, 0), (3, 4), DistanceDependentWeight(0.1))
    assert out[0] == target_vel[0] and out[1] == target_vel[1]


@given(st.floats(-50, 50), st.floats(-50, 50), st.floats(0.01, 2.0))
@settings(max_examples=50)
def test_reference_velocity_pull_is_bounded(ox, oy, scale):
    # with the saturating weight, the pull part never exceeds 1 m/s (w*rho
    # rounds to 1.0 far away, so the computed norm may sit an ulp or two above)
    out, _ = reference_kinematics((ox, oy), (0, 0), (0, 0), (0, 0), DistanceDependentWeight(scale))
    assert np.linalg.norm(out) <= 1.0 + 4.0 * np.finfo(float).eps


def test_reference_kinematics_derivative_along_reference():
    # c_dot = v_ref, so d_dot = -w d and vdot_ref = a_T - w (rho w)' d
    w = ConstantWeight(0.3)
    v_ref, vdot = reference_kinematics((10, 0), (2, 0), (0.0, 0.1), (0, 0), w)
    np.testing.assert_allclose(v_ref, [5.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(vdot, [-0.09 * 10.0, 0.1], atol=1e-15)
    # on the target: the reference is the target's own motion
    v_ref, vdot = reference_kinematics((1, 1), (2, 0), (0.0, 0.1), (1, 1), w)
    np.testing.assert_array_equal(v_ref, [2.0, 0.0])
    np.testing.assert_array_equal(vdot, [0.0, 0.1])


def test_reference_rates_split_turn_and_speed():
    kappa, a = reference_rates((2.0, 0.0), (0.3, 1.0))
    assert kappa == pytest.approx(0.5, abs=1e-15)
    assert a == pytest.approx(0.3, abs=1e-15)
    assert reference_rates((0.0, 0.0), (1.0, 1.0)) == (0.0, 0.0)


def test_reference_signal_velocity_roundtrip():
    _, velocity, _, _ = reference_signal((0, 0), 2.0, math.pi / 3)
    np.testing.assert_allclose(velocity, [1.0, math.sqrt(3.0)], atol=1e-12)
    # the polar form's speed is never negative: the one mode that takes it
    # as an input rejects a negative one
    with pytest.raises(ValueError):
        TurningRef(speed=-1.0, kappa=0.0)


def test_polar_velocity_zero_uses_fallback():
    v, th = polar_velocity((0.0, 0.0))
    assert v == 0.0 and th == 0.0
    v, th = polar_velocity((0.0, 2.0))
    assert v == 2.0 and th == pytest.approx(math.pi / 2)
