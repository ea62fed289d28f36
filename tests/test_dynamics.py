"""Vector helpers, the group's centroid quantities, and the fixed-step integrator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import rotate90, scalar_product, wrap_angle
from swarmtrack.controllers import ControllerGains, SpacingMode, control_terms
from swarmtrack.dynamics import rk4_unicycle_arrays, vec2, wrap_angles
from swarmtrack.engine import AgentInit, ConstantRef, ScenarioConfig, run
from swarmtrack.reference import reference_signal

finite_angles = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)


def same_float(a, b) -> bool:
    """a and b are the same binary64 value, the sign of a zero included."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


# --------------------------------------------------------------------------
# angle wrapping


@given(finite_angles)
def test_wrap_angle_in_range(theta):
    r = wrap_angles(theta)
    assert -math.pi < r <= math.pi


@given(finite_angles)
@settings(max_examples=200)
def test_wrap_angle_preserves_angle_mod_2pi(theta):
    r = wrap_angles(theta)
    k = (theta - r) / (2.0 * math.pi)
    assert abs(k - round(k)) < 1e-9


@given(st.floats(min_value=-math.pi + 1e-12, max_value=math.pi, allow_nan=False))
def test_wrap_angle_identity_in_range(theta):
    assert wrap_angles(theta) == theta


def test_wrap_angle_boundary():
    # convention: (-pi, pi], so both +pi and -pi map to +pi
    assert wrap_angles(math.pi) == math.pi
    assert wrap_angles(-math.pi) == math.pi
    assert wrap_angles(3.0 * math.pi) == pytest.approx(math.pi)
    assert wrap_angles(0.0) == 0.0


def test_wrap_angles_matches_scalar():
    th = np.array([0.0, 4.0, -4.0, 7.5, -7.5, math.pi, -math.pi, 100.0])
    vec = wrap_angles(th)
    for a, b in zip(th, vec):
        assert same_float(b, wrap_angle(a))
    assert np.all(vec > -math.pi) and np.all(vec <= math.pi)


@given(st.one_of(finite_floats, st.lists(finite_floats, min_size=1, max_size=8)))
@settings(max_examples=500)
def test_wrap_angles_is_the_exact_remainder(theta):
    # every finite float, alone or in an array, is reduced exactly: far out of
    # range too, where theta - 2 pi * round(theta / 2 pi) is not
    r = wrap_angles(np.asarray(theta) if isinstance(theta, list) else theta)
    for a, b in zip(np.atleast_1d(theta), np.atleast_1d(r)):
        assert same_float(b, wrap_angle(a))
        assert -math.pi < b <= math.pi


def test_wrap_angles_exact_on_explicit_inputs():
    # -1e18 came out as -121.7 when the wrap subtracted 2 pi times a rounded quotient
    for theta in (-1e18, 1e16, 12345.678, math.pi, -math.pi, -0.0):
        for r in (wrap_angles(theta), wrap_angles(np.array([theta]))[0]):
            assert same_float(r, wrap_angle(theta)), theta
            assert -math.pi < r <= math.pi


# --------------------------------------------------------------------------
# planar algebra


def test_vec2_and_norm():
    a = vec2(3, 4)
    assert a.dtype == np.float64
    assert np.linalg.norm(a) == 5.0
    assert scalar_product(a, a) == 25.0


@given(
    st.floats(-1e3, 1e3, allow_nan=False),
    st.floats(-1e3, 1e3, allow_nan=False),
)
@settings(max_examples=50)
def test_rotate90_orthogonal(x, y):
    a = vec2(x, y)
    assert abs(scalar_product(a, rotate90(a))) <= 1e-12 * (1.0 + x * x + y * y)
    # two quarter turns = point reflection
    np.testing.assert_allclose(rotate90(rotate90(a)), -a, atol=1e-15)


def test_scalar_product_polar_identity():
    # <v_k e^{i th_k}, v_j e^{i th_j}> = v_k v_j cos(th_j - th_k)
    vk, tk, vj, tj = 2.0, 0.3, 5.0, -1.1
    a = vec2(vk * math.cos(tk), vk * math.sin(tk))
    b = vec2(vj * math.cos(tj), vj * math.sin(tj))
    assert scalar_product(a, b) == pytest.approx(vk * vj * math.cos(tj - tk), abs=1e-12)


# --------------------------------------------------------------------------
# vehicle state and snapshot


def lone_vehicle(heading=0.0, speed=1.0, dt=0.1):
    """A one-vehicle, one-step run configuration."""
    return ScenarioConfig(
        agents=(AgentInit(position=(1, 2), heading=heading, speed=speed),),
        gains=ControllerGains(gamma=0.1),
        reference_mode=ConstantRef(velocity=(0.0, 0.0)),
        duration=0.1,
        dt=dt,
        allow_infeasible=True,  # one vehicle cannot hold a zero reference
    )


def test_vehicle_state_validates_speed():
    with pytest.raises(ValueError, match="speeds must all be positive"):
        run(lone_vehicle(speed=0.0))
    with pytest.raises(ValueError, match="speeds must all be positive"):
        run(lone_vehicle(speed=-3.0))


def test_vehicle_state_wraps_heading():
    # the engine normalizes initial headings to (-pi, pi]
    log = run(lone_vehicle(heading=3.0 * math.pi))
    assert log.theta[0, 0] == pytest.approx(math.pi)
    # its velocity is v e^{i th}
    np.testing.assert_allclose(log.centroid_vel[0], [-1.0, 0.0], atol=1e-12)


def test_snapshot_centroid_and_velocity():
    speeds, headings = np.array([1.0, 2.0]), np.array([0.0, math.pi / 2])
    positions = np.array([[0.0, 0.0], [4.0, 2.0]])
    log = run(ScenarioConfig(
        agents=tuple(AgentInit(p, h, v) for p, h, v in zip(positions, headings, speeds)),
        gains=ControllerGains(gamma=0.1),
        reference_mode=ConstantRef(velocity=(0.0, 0.0)),
        duration=0.1,
        dt=0.1,
        allow_infeasible=True,
    ))
    # the logged centroid and centroid velocity of the state at t = 0
    np.testing.assert_allclose(log.centroid[0], [2.0, 1.0])
    np.testing.assert_allclose(log.centroid_vel[0], [0.5, 1.0], atol=1e-15)
    # the beacon law reads the heading vectors v_k e^{i th_k} = (1, 0) and (0, 2):
    # u_k = -(omega0 + gamma * omega0 * <r_k, v_k e^{i th_k}>) about the origin
    gains = ControllerGains(gamma=0.1, omega0=0.5, spacing_mode=SpacingMode.BEACON)
    u_spc = control_terms(speeds, headings, positions, reference_signal(np.zeros(2), 0.0, 0.0),
                          gains)[2]
    np.testing.assert_allclose(u_spc, [-0.5, -(0.5 + 0.05 * 4.0)], atol=1e-15)
    assert log.stale_count[0] == 0


# --------------------------------------------------------------------------
# integrator


def _exact_arc(x0, y0, th0, v, u, t):
    """Closed-form unicycle state under a constant turn rate."""
    if u == 0.0:
        return x0 + v * t * math.cos(th0), y0 + v * t * math.sin(th0), th0
    th = th0 + u * t
    r = v / u
    return (
        x0 + r * (math.sin(th) - math.sin(th0)),
        y0 - r * (math.cos(th) - math.cos(th0)),
        th,
    )


def test_rk4_single_step_matches_arc():
    v, u, dt = 10.0, 0.5, 0.01
    x, y, th = rk4_unicycle_arrays(
        np.array([1.0]), np.array([-2.0]), np.array([0.3]), np.array([v]), np.array([u]), dt
    )
    ex, ey, eth = _exact_arc(1.0, -2.0, 0.3, v, u, dt)
    assert x[0] == pytest.approx(ex, abs=1e-12)
    assert y[0] == pytest.approx(ey, abs=1e-12)
    assert th[0] == pytest.approx(eth, abs=0.0)  # heading update is exact


def test_rk4_100_steps_follow_arc():
    v, u, dt = 3.0, 0.8, 0.05
    x, y, th = np.array([0.0]), np.array([0.0]), np.array([1.0])
    for _ in range(100):
        x, y, th = rk4_unicycle_arrays(x, y, th, np.array([v]), np.array([u]), dt)
    ex, ey, eth = _exact_arc(0.0, 0.0, 1.0, v, u, 100 * dt)
    assert x[0] == pytest.approx(ex, abs=1e-7)
    assert y[0] == pytest.approx(ey, abs=1e-7)
    assert th[0] == pytest.approx(wrap_angles(eth), abs=1e-12)


def test_rk4_zero_control_goes_straight():
    x, y, th = rk4_unicycle_arrays(
        np.array([0.0]), np.array([0.0]), np.array([0.7]), np.array([2.0]),
        np.array([0.0]), 0.25,
    )
    assert x[0] == pytest.approx(0.5 * math.cos(0.7), abs=1e-15)
    assert y[0] == pytest.approx(0.5 * math.sin(0.7), abs=1e-15)
    assert th[0] == 0.7


@given(
    st.floats(-3.0, 3.0, allow_nan=False),
    st.floats(-2.0, 2.0, allow_nan=False),
    st.floats(0.5, 5.0, allow_nan=False),
)
@settings(max_examples=50)
def test_rk4_heading_stays_wrapped(th0, u, v):
    _, _, th = rk4_unicycle_arrays(
        np.zeros(1), np.zeros(1), np.array([th0]), np.array([v]), np.array([u]), 2.0
    )
    assert -math.pi < th[0] <= math.pi


def test_step_displacement_bounded_by_speed():
    speeds = np.array([4.0, 1.5])
    x0, y0, th0 = np.array([0.0, 5.0]), np.array([0.0, 5.0]), np.array([0.2, -1.0])
    dt = 0.1
    x, y, th = rk4_unicycle_arrays(x0, y0, th0, speeds, np.array([0.3, -0.2]), dt)
    d = np.hypot(x - x0, y - y0)
    assert (d <= speeds * dt + 1e-12).all()
    assert (d >= 0.99 * speeds * dt).all()  # tiny turn, nearly straight
    np.testing.assert_array_equal(th, th0 + dt * np.array([0.3, -0.2]))


def test_step_validates_inputs():
    # the integrator trusts its inputs; the step length is checked with the run's configuration
    with pytest.raises(ValueError, match="dt"):
        lone_vehicle(dt=0.0)
    with pytest.raises(ValueError, match="dt"):
        lone_vehicle(dt=-0.1)
