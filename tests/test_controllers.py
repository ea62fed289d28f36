"""Velocity-tracking, feedforward, and spacing control laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    build_A,
    centroid_velocity,
    lyapunov_V,
    random_view,
    u_spacing_beacon,
    u_velocity,
    u_velocity_real_form,
)
from swarmtrack.controllers import (
    ControllerGains,
    SpacingMode,
    beacon_lead,
    control_terms,
    project_spacing_to_kernel,
)
from swarmtrack.dynamics import rk4_unicycle_arrays, wrap_angle
from swarmtrack.engine import AgentInit, ConstantRef, ScenarioConfig, run
from swarmtrack.reference import reference_signal


def view(speeds, headings, positions):
    """A view of the group as control_terms reads it: float arrays."""
    return (
        np.asarray(speeds, dtype=float),
        np.asarray(headings, dtype=float),
        np.asarray(positions, dtype=float),
    )


def total_command(v, ref, gains):
    """u_vel + h + u_spc for every agent: the command the engine applies."""
    u_vel, h, u_spc = control_terms(*v, ref, gains)
    return u_vel + h + u_spc


GAINS_FF = ControllerGains(gamma=0.1)  # feedforward on, spacing off


def feedforward_h(v, ref):
    """The feedforward term h of control_terms."""
    return control_terms(*v, ref, GAINS_FF)[1]


# --------------------------------------------------------------------------
# velocity-tracking term


def test_u_velocity_zero_error():
    v = view([1.0, 2.0], [0.0, 0.0], np.zeros((2, 2)))
    vx, vy = centroid_velocity(v[0], v[1])
    ref = reference_signal((0, 0), math.hypot(vx, vy), math.atan2(vy, vx))
    np.testing.assert_array_equal(ref[1], centroid_velocity(v[0], v[1]))
    u_vel, _, _ = control_terms(*v, ref, ControllerGains(gamma=0.7))
    assert (u_vel == 0.0).all()


def test_u_velocity_single_agent_example():
    v = view([1.0], [math.pi / 2], np.zeros((1, 2)))
    ref = reference_signal((0, 0), 0.5, 0.0)  # velocity (0.5, 0)
    u_vel, _, _ = control_terms(*v, ref, ControllerGains(gamma=1.0))
    assert u_vel[0] == pytest.approx(-0.5, abs=1e-15)


def test_u_velocity_matches_real_variable_form():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        v = random_view(rng, n)
        v_ref = float(rng.uniform(0.0, 2.0))
        th_ref = float(rng.uniform(-math.pi, math.pi))
        gamma = float(rng.uniform(0.01, 1.0))
        ref = reference_signal((0, 0), v_ref, th_ref)
        k = int(rng.integers(0, n))
        a = control_terms(*v, ref, ControllerGains(gamma=gamma))[0][k]
        b = u_velocity_real_form(v[0], v[1], k, v_ref, th_ref, gamma)
        assert abs(a - b) <= 1e-12


# --------------------------------------------------------------------------
# feedforward


def test_build_A_axis_aligned():
    A = build_A([1.0, 1.0], [0.0, math.pi / 2])
    np.testing.assert_allclose(A, 0.5 * np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-16)


def test_build_A_rank():
    assert np.linalg.matrix_rank(build_A([1.0, 2.0, 3.0], [0.4, 0.4, 0.4 + math.pi])) == 1
    assert np.linalg.matrix_rank(build_A([1.0, 2.0], [0.4, 0.9])) == 2


def residual(v, ref, h) -> float:
    """||A h - b|| for the view's A and the reference's feedforward rhs b."""
    b = np.zeros(2) if ref[2] is None else np.array(ref[2])
    return float(np.linalg.norm(build_A(v[0], v[1]) @ h - b))


def test_solve_feedforward_worked_example():
    v = view([1.0, 1.0], [0.0, math.pi / 2], np.zeros((2, 2)))
    ref = reference_signal((0, 0), 1.0, 0.0, kappa_ref=0.5, a_ref=0.0)
    np.testing.assert_allclose(ref[2], [0.0, 0.5], atol=1e-16)
    h = feedforward_h(v, ref)
    np.testing.assert_allclose(h, [1.0, 0.0], atol=1e-12)
    assert residual(v, ref, h) <= 1e-12


def test_solve_feedforward_zero_rhs():
    rng = np.random.default_rng(3)
    v = random_view(rng, 4)
    ref = reference_signal((0, 0), 1.5, 0.3)  # kappa = a = 0
    assert ref[2] is None
    h = feedforward_h(v, ref)
    np.testing.assert_allclose(h, np.zeros(4), atol=1e-15)
    assert residual(v, ref, h) <= 1e-15


def test_solve_feedforward_rank_deficient():
    v = view([1.0, 2.0], [0.2, 0.2], np.zeros((2, 2)))
    ref = reference_signal((0, 0), 1.0, 0.2 + math.pi / 2, kappa_ref=1.0)
    assert np.linalg.matrix_rank(build_A(v[0], v[1])) == 1
    # the rhs leaves range(A), so no h solves the system and h falls back to 0
    assert residual(v, ref, np.zeros(2)) > 0.5
    np.testing.assert_allclose(feedforward_h(v, ref), np.zeros(2))


def test_solve_feedforward_residual_and_min_norm():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        v = random_view(rng, n)
        ref = reference_signal(
            (0, 0),
            float(rng.uniform(0.1, 2.0)),
            float(rng.uniform(-math.pi, math.pi)),
            kappa_ref=float(rng.uniform(-1.0, 1.0)),
            a_ref=float(rng.uniform(-0.5, 0.5)),
        )
        h = feedforward_h(v, ref)
        A = build_A(v[0], v[1])
        b = np.array(ref[2])
        if np.linalg.matrix_rank(A) < 2:
            continue
        assert residual(v, ref, h) <= 1e-9 * (1.0 + np.linalg.norm(b))
        # the minimum-norm solution is the pseudo-inverse's
        np.testing.assert_allclose(h, np.linalg.pinv(A) @ b, rtol=0.0,
                                   atol=1e-9 * (1.0 + np.linalg.norm(b)))
        # any kernel addition can only grow the norm
        z, ok = project_spacing_to_kernel(rng.standard_normal(n), A)
        assert ok
        assert np.linalg.norm(h + z) >= np.linalg.norm(h) - 1e-12
        assert abs(h @ z) <= 1e-9 * (1.0 + np.linalg.norm(h) * np.linalg.norm(z))


def test_feedforward_rhs_acceleration_part():
    ref = reference_signal((0, 0), 2.0, 0.0, kappa_ref=0.5, a_ref=0.3)
    turn_only = reference_signal((0, 0), 2.0, 0.0, kappa_ref=0.5)
    np.testing.assert_allclose(turn_only[2], [0.0, 1.0], atol=1e-16)
    np.testing.assert_allclose(ref[2], [0.3, 1.0], atol=1e-16)


# --------------------------------------------------------------------------
# spacing


GAINS_V = ControllerGains(gamma=0.001, omega0=0.25, spacing_mode=SpacingMode.BEACON)


def lone_spacing(position, heading, speed, ref_position, gains=GAINS_V, beacon_velocity=None):
    """control_terms' spacing term for a single vehicle."""
    v = view([speed], [heading], [position])
    ref = reference_signal(np.asarray(ref_position, dtype=float), 0.0, 0.0,
                           beacon_velocity=beacon_velocity)
    return control_terms(*v, ref, gains)[2][0]


def test_u_spacing_at_beacon():
    assert lone_spacing((3.0, -2.0), 1.0, 10.0, (3.0, -2.0)) == pytest.approx(-0.25, abs=1e-15)


def test_u_spacing_orthogonal_offset():
    assert lone_spacing((0.0, 7.0), 0.0, 10.0, (0.0, 0.0)) == pytest.approx(-0.25, abs=1e-15)


def test_u_spacing_radial_offset():
    assert lone_spacing((10.0, 0.0), 0.0, 10.0, (0.0, 0.0)) == pytest.approx(-0.275, abs=1e-15)


def test_u_spacing_beacon_led_along_beacon_velocity():
    lead = beacon_lead(10.0, GAINS_V.gamma)
    assert lead == pytest.approx(20.0, rel=1e-15)  # 2 / (gamma v^2) seconds
    # the led law is the plain law about the point lead * V ahead of r_ref
    V = (0.5, -0.25)
    ahead = (lead * V[0], lead * V[1])
    assert lone_spacing((10.0, 0.0), 0.0, 10.0, (0.0, 0.0), beacon_velocity=V) == pytest.approx(
        lone_spacing((10.0, 0.0), 0.0, 10.0, ahead), abs=1e-15
    )


def test_swarm_spacing_uses_reference_beacon_velocity():
    rng = np.random.default_rng(17)
    speeds, headings, positions = random_view(rng, 4)
    ref = reference_signal((1, 2), 1.0, 0.4, beacon_velocity=(0.8, -0.3))
    gains = ControllerGains(gamma=0.1, omega0=0.3, spacing_mode=SpacingMode.BEACON)
    _, _, u_spc = control_terms(speeds, headings, positions, ref, gains)
    for k in range(4):
        assert u_spc[k] == pytest.approx(
            u_spacing_beacon(positions[k], headings[k], speeds[k], ref[0], gains, ref[3]),
            abs=1e-12,
        )


def mean_orbit_centre_offset(beacon_velocity):
    """Mean of (orbit centre - moving reference point) for one vehicle under
    the beacon law alone, the reference point moving east at 2 m/s."""
    V = np.array([2.0, 0.0])
    x, y, th, sp = np.array([0.0]), np.array([-40.0]), np.array([0.0]), np.array([10.0])
    dt = 0.1
    offsets = []
    for m in range(6000):
        t = m * dt
        u = lone_spacing((x[0], y[0]), th[0], sp[0], V * t, beacon_velocity=beacon_velocity)
        if t >= 400.0:  # eight orbits after the transient
            r = sp[0] / GAINS_V.omega0
            offsets.append((x[0] + r * math.sin(th[0]) - V[0] * t, y[0] - r * math.cos(th[0])))
        x, y, th = rk4_unicycle_arrays(x, y, th, sp, np.array([u]), dt)
    return np.mean(offsets, axis=0)


def test_led_beacon_centres_orbit_on_moving_reference():
    lag = 2.0 * 2.0 / (GAINS_V.gamma * 10.0**2)  # 40 m predicted by orbit averaging
    trailing = mean_orbit_centre_offset(None)
    assert trailing[0] == pytest.approx(-lag, rel=0.1)
    led = mean_orbit_centre_offset((2.0, 0.0))
    assert abs(led[0]) < 0.1 * lag


def test_projector_annihilates_and_idempotent():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(3, 8))
        speeds, headings, _ = random_view(rng, n)
        A = build_A(speeds, headings)
        raw = rng.standard_normal(n)
        out, ok = project_spacing_to_kernel(raw, A)
        assert ok
        assert np.linalg.norm(A @ out) <= 1e-10 * max(1.0, np.linalg.norm(raw))
        again, _ = project_spacing_to_kernel(out, A)
        np.testing.assert_allclose(again, out, atol=1e-12)


def test_projector_trivial_kernel_n2():
    out, ok = project_spacing_to_kernel(np.array([0.7, -0.4]), build_A([1.0, 1.0], [0.0, math.pi / 2]))
    assert ok
    np.testing.assert_allclose(out, np.zeros(2), atol=1e-12)


def test_projector_rank_deficient_passthrough():
    raw = np.array([1.0, 2.0])
    out, ok = project_spacing_to_kernel(raw, build_A([1.0, 1.0], [0.3, 0.3]))
    assert not ok
    np.testing.assert_allclose(out, raw)


# --------------------------------------------------------------------------
# combination


def test_combined_control_zero_at_matched_stationary_ref():
    v = view([1.0, 1.0], [0.0, math.pi], [[0.0, 0.0], [1.0, 1.0]])
    ref = reference_signal(np.zeros(2), 0.0, 0.0)
    gains = ControllerGains(gamma=0.5, spacing_mode=SpacingMode.OFF)
    u_vel, h, u_spc = control_terms(*v, ref, gains)
    # centroid velocity cancels only up to sin(pi) rounding
    assert abs(u_vel[0] + h[0] + u_spc[0]) <= 1e-15
    assert abs(u_vel[0]) <= 1e-15
    assert h[0] == 0.0 and u_spc[0] == 0.0


def min_norm_h(speeds, headings, ref):
    """The minimum-norm solution of A h = b, from the pseudo-inverse."""
    return np.linalg.pinv(build_A(speeds, headings)) @ np.array(ref[2])


def test_combined_control_is_sum_of_parts():
    rng = np.random.default_rng(9)
    speeds, headings, positions = random_view(rng, 5)
    ref = reference_signal(np.array([1.0, 2.0]), 1.0, 0.4, kappa_ref=0.2, a_ref=0.1)
    gains = ControllerGains(gamma=0.1, omega0=0.3, spacing_mode=SpacingMode.BEACON)
    # the engine applies u_vel + h + u_spc (test_engine's
    # test_log_derived_columns_consistent); each part is checked here
    u_vel, h, u_spc = control_terms(speeds, headings, positions, ref, gains)
    np.testing.assert_allclose(h, min_norm_h(speeds, headings, ref), rtol=0.0, atol=1e-12)
    for k in range(5):
        assert u_vel[k] == pytest.approx(
            u_velocity(speeds, headings, k, ref[1], gains.gamma), abs=1e-12
        )
        assert u_spc[k] == pytest.approx(
            u_spacing_beacon(positions[k], headings[k], speeds[k], ref[0], gains),
            abs=1e-12,
        )


@pytest.mark.parametrize("mode", list(SpacingMode))
def test_control_terms_match_the_separate_laws(mode):
    rng = np.random.default_rng(19)
    speeds, headings, positions = random_view(rng, 5)
    ref = reference_signal(np.array([1.0, 2.0]), 1.0, 0.4, kappa_ref=0.2, a_ref=0.1,
                           beacon_velocity=(0.5, 0.2))
    gains = ControllerGains(gamma=0.1, omega0=0.3, spacing_mode=mode)
    u_vel, h, u_spc = control_terms(speeds, headings, positions, ref, gains)
    np.testing.assert_allclose(h, min_norm_h(speeds, headings, ref), rtol=0.0, atol=1e-12)
    for k in range(5):
        assert u_vel[k] == u_velocity(speeds, headings, k, ref[1], gains.gamma)
    if mode is SpacingMode.OFF:
        np.testing.assert_array_equal(u_spc, np.zeros(5))
    else:
        raw = np.array([
            u_spacing_beacon(positions[k], headings[k], speeds[k], ref[0], gains, ref[3])
            for k in range(5)
        ])
        if mode is SpacingMode.BEACON_PROJECTED:
            raw, _ = project_spacing_to_kernel(raw, build_A(speeds, headings))
        np.testing.assert_allclose(u_spc, raw, rtol=0.0, atol=1e-12)


def test_combined_control_reduces_to_velocity_law():
    rng = np.random.default_rng(13)
    speeds, headings, positions = random_view(rng, 3)
    ref = reference_signal(np.zeros(2), 1.0, -0.2)  # kappa = a = 0
    gains = ControllerGains(gamma=0.4, spacing_mode=SpacingMode.OFF)
    u_vel, h, u_spc = control_terms(speeds, headings, positions, ref, gains)
    for k in range(3):
        assert u_vel[k] + h[k] + u_spc[k] == pytest.approx(
            u_velocity(speeds, headings, k, ref[1], gains.gamma), abs=1e-15
        )
        assert h[k] == 0.0 and u_spc[k] == 0.0


def test_feedforward_toggle():
    rng = np.random.default_rng(15)
    v = random_view(rng, 4)
    ref = reference_signal(np.zeros(2), 1.0, 0.0, kappa_ref=0.5)
    gains_off = ControllerGains(gamma=0.1, feedforward=False)
    assert (control_terms(*v, ref, gains_off)[1] == 0.0).all()
    gains_on = ControllerGains(gamma=0.1, feedforward=True)
    assert (control_terms(*v, ref, gains_on)[1] != 0.0).any()


# --------------------------------------------------------------------------
# Lyapunov identities


def test_analytic_Vdot_matches_finite_difference():
    rng = np.random.default_rng(21)
    gamma, dt = 0.5, 1e-5
    ref = reference_signal(np.zeros(2), 0.8, 0.5)
    gains = ControllerGains(gamma=gamma, spacing_mode=SpacingMode.OFF)
    # (position, heading, speed) per vehicle
    rows = [(rng.uniform(-5, 5, 2), rng.uniform(-3, 3), rng.uniform(1, 2)) for _ in range(3)]
    speeds, headings, positions = view(
        [r[2] for r in rows], [r[1] for r in rows], [r[0] for r in rows]
    )
    controls = total_command((speeds, headings, positions), ref, gains)
    err = centroid_velocity(speeds, headings) - ref[1]
    brackets = [
        -err[0] * v * math.sin(th) + err[1] * v * math.cos(th)
        for v, th in zip(speeds, headings)
    ]
    vdot_analytic = -(gamma / len(speeds)) * sum(b * b for b in brackets)
    v0 = lyapunov_V(speeds, headings, ref[1])
    _, _, th = rk4_unicycle_arrays(positions[:, 0], positions[:, 1], headings, speeds, controls, dt)
    v1 = lyapunov_V(speeds, th, ref[1])
    assert (v1 - v0) / dt == pytest.approx(vdot_analytic, abs=100.0 * dt)
    assert vdot_analytic <= 0.0


def test_projected_spacing_leaves_Vdot_unchanged():
    rng = np.random.default_rng(23)
    ref = reference_signal(np.array([3.0, -1.0]), 1.0, 0.1)
    for _ in range(25):
        n = int(rng.integers(3, 7))
        v = random_view(rng, n)
        A = build_A(v[0], v[1])
        err = centroid_velocity(v[0], v[1]) - ref[1]
        gains_off = ControllerGains(gamma=0.2, omega0=0.3, spacing_mode=SpacingMode.OFF)
        gains_prj = ControllerGains(gamma=0.2, omega0=0.3, spacing_mode=SpacingMode.BEACON_PROJECTED)
        u_off = total_command(v, ref, gains_off)
        u_prj = total_command(v, ref, gains_prj)
        # Vdot = <err, A u>; the projected spacing term contributes nothing
        vdot_off = float(err @ (A @ u_off))
        vdot_prj = float(err @ (A @ u_prj))
        assert abs(vdot_prj - vdot_off) <= 1e-10 * max(1.0, abs(vdot_off))


@given(st.floats(-math.pi, math.pi, allow_nan=False))
@settings(max_examples=40)
def test_rotation_equivariance(ang):
    rng = np.random.default_rng(31)
    speeds, headings, positions = random_view(rng, 4)
    ref_position, v_ref, theta_ref, kappa_ref, a_ref = np.array([2.0, 1.0]), 1.2, 0.7, 0.3, 0.1
    ref = reference_signal(ref_position, v_ref, theta_ref, kappa_ref, a_ref)
    gains = ControllerGains(gamma=0.05, omega0=0.4, spacing_mode=SpacingMode.BEACON)
    R = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    headings_rot = np.array([wrap_angle(t + ang) for t in headings])
    ref_rot = reference_signal(
        R @ ref_position, v_ref, wrap_angle(theta_ref + ang), kappa_ref, a_ref
    )
    terms = control_terms(speeds, headings, positions, ref, gains)
    terms_rot = control_terms(speeds, headings_rot, positions @ R.T, ref_rot, gains)
    np.testing.assert_allclose(sum(terms_rot), sum(terms), rtol=0.0, atol=1e-9)
    for part, part_rot in zip(terms, terms_rot):  # u_vel, h, u_spc
        np.testing.assert_allclose(part_rot, part, rtol=0.0, atol=1e-9)


# --------------------------------------------------------------------------
# plumbing


def test_saturate():
    # u_max clamps the applied command, and only it, to [-u_max, u_max]
    u_max = 0.3
    config = ScenarioConfig(
        agents=(
            AgentInit((0.0, 0.0), 0.4, 10.0),
            AgentInit((50.0, 0.0), 2.0, 12.0),
            AgentInit((0.0, 50.0), -1.2, 16.0),
        ),
        gains=ControllerGains(gamma=0.3, u_max=u_max),
        reference_mode=ConstantRef(velocity=(2.0, 0.0)),
        duration=2.0,
        dt=0.02,
    )
    log = run(config)
    unclamped = log.u_vel + log.u_h + log.u_spc
    np.testing.assert_array_equal(log.u_total, np.clip(unclamped, -u_max, u_max))
    assert (np.abs(unclamped) > u_max).any() and (np.abs(unclamped) < u_max).any()


def test_gains_validation():
    with pytest.raises(ValueError, match="gamma"):
        ControllerGains(gamma=0.0)
    with pytest.raises(ValueError, match="omega0"):
        ControllerGains(gamma=0.1, omega0=-1.0)
    with pytest.raises(ValueError, match="u_max"):
        ControllerGains(gamma=0.1, u_max=0.0)

