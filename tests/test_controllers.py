"""Velocity-tracking, feedforward, and spacing control laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_snapshot, u_spacing_beacon, u_velocity, u_velocity_real_form
from swarmtrack.controllers import (
    ControllerGains,
    SpacingMode,
    beacon_lead,
    build_A,
    control_terms,
    feedforward_rhs,
    project_spacing_to_kernel,
    saturate,
    solve_feedforward,
)
from swarmtrack.dynamics import Snapshot, rk4_unicycle_arrays, wrap_angle
from swarmtrack.reference import ReferenceSignal


def total_command(snap, ref, gains):
    """u_vel + h + u_spc for every agent: the command the engine applies."""
    u_vel, h, u_spc = control_terms(snap, ref, gains)
    return u_vel + h + u_spc


# --------------------------------------------------------------------------
# velocity-tracking term


def test_u_velocity_zero_error():
    snap = Snapshot(speeds=[1.0, 2.0], headings=[0.0, 0.0], positions=np.zeros((2, 2)))
    vx, vy = snap.centroid_velocity()
    ref = ReferenceSignal(position=(0, 0), v_ref=math.hypot(vx, vy), theta_ref=math.atan2(vy, vx))
    np.testing.assert_array_equal(ref.velocity, snap.centroid_velocity())
    u_vel, _, _ = control_terms(snap, ref, ControllerGains(gamma=0.7))
    assert (u_vel == 0.0).all()


def test_u_velocity_single_agent_example():
    snap = Snapshot(speeds=[1.0], headings=[math.pi / 2], positions=np.zeros((1, 2)))
    ref = ReferenceSignal(position=(0, 0), v_ref=0.5, theta_ref=0.0)  # velocity (0.5, 0)
    u_vel, _, _ = control_terms(snap, ref, ControllerGains(gamma=1.0))
    assert u_vel[0] == pytest.approx(-0.5, abs=1e-15)


def test_u_velocity_matches_real_variable_form():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        snap = random_snapshot(rng, n)
        v_ref = float(rng.uniform(0.0, 2.0))
        th_ref = float(rng.uniform(-math.pi, math.pi))
        gamma = float(rng.uniform(0.01, 1.0))
        ref = ReferenceSignal(position=(0, 0), v_ref=v_ref, theta_ref=th_ref)
        k = int(rng.integers(0, n))
        a = control_terms(snap, ref, ControllerGains(gamma=gamma))[0][k]
        b = u_velocity_real_form(snap, k, v_ref, th_ref, gamma)
        assert abs(a - b) <= 1e-12


# --------------------------------------------------------------------------
# feedforward


def test_build_A_axis_aligned():
    snap = Snapshot(
        speeds=[1.0, 1.0], headings=[0.0, math.pi / 2], positions=np.zeros((2, 2))
    )
    np.testing.assert_allclose(build_A(snap), 0.5 * np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-16)


def test_build_A_rank():
    aligned = Snapshot(speeds=[1.0, 2.0, 3.0], headings=[0.4, 0.4, 0.4 + math.pi], positions=np.zeros((3, 2)))
    assert np.linalg.matrix_rank(build_A(aligned)) == 1
    mixed = Snapshot(speeds=[1.0, 2.0], headings=[0.4, 0.9], positions=np.zeros((2, 2)))
    assert np.linalg.matrix_rank(build_A(mixed)) == 2


def test_solve_feedforward_worked_example():
    snap = Snapshot(
        speeds=[1.0, 1.0], headings=[0.0, math.pi / 2], positions=np.zeros((2, 2))
    )
    ref = ReferenceSignal(position=(0, 0), v_ref=1.0, theta_ref=0.0, kappa_ref=0.5, a_ref=0.0)
    np.testing.assert_allclose(feedforward_rhs(ref), [0.0, 0.5], atol=1e-16)
    sol = solve_feedforward(snap, ref)
    assert sol.rank_ok
    np.testing.assert_allclose(sol.h, [1.0, 0.0], atol=1e-12)
    assert sol.residual <= 1e-12


def test_solve_feedforward_zero_rhs():
    rng = np.random.default_rng(3)
    snap = random_snapshot(rng, 4)
    ref = ReferenceSignal(position=(0, 0), v_ref=1.5, theta_ref=0.3)  # kappa = a = 0
    sol = solve_feedforward(snap, ref)
    np.testing.assert_allclose(sol.h, np.zeros(4), atol=1e-15)
    assert sol.residual <= 1e-15


def test_solve_feedforward_rank_deficient():
    snap = Snapshot(speeds=[1.0, 2.0], headings=[0.2, 0.2], positions=np.zeros((2, 2)))
    ref = ReferenceSignal(position=(0, 0), v_ref=1.0, theta_ref=0.2 + math.pi / 2, kappa_ref=1.0)
    sol = solve_feedforward(snap, ref)
    assert not sol.rank_ok
    np.testing.assert_allclose(sol.h, np.zeros(2))


def test_solve_feedforward_residual_and_min_norm():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        snap = random_snapshot(rng, n)
        ref = ReferenceSignal(
            position=(0, 0),
            v_ref=float(rng.uniform(0.1, 2.0)),
            theta_ref=float(rng.uniform(-math.pi, math.pi)),
            kappa_ref=float(rng.uniform(-1.0, 1.0)),
            a_ref=float(rng.uniform(-0.5, 0.5)),
        )
        sol = solve_feedforward(snap, ref)
        A = build_A(snap)
        b = feedforward_rhs(ref)
        if not sol.rank_ok:
            continue
        assert sol.residual <= 1e-9 * (1.0 + np.linalg.norm(b))
        assert np.linalg.norm(A @ sol.h - b) <= 1e-9 * (1.0 + np.linalg.norm(b))
        # any kernel addition can only grow the norm
        z, ok = project_spacing_to_kernel(rng.standard_normal(n), A)
        assert ok
        assert np.linalg.norm(sol.h + z) >= np.linalg.norm(sol.h) - 1e-12
        assert abs(sol.h @ z) <= 1e-9 * (1.0 + np.linalg.norm(sol.h) * np.linalg.norm(z))


def test_feedforward_rhs_acceleration_part():
    ref = ReferenceSignal(position=(0, 0), v_ref=2.0, theta_ref=0.0, kappa_ref=0.5, a_ref=0.3)
    turn_only = ReferenceSignal(position=(0, 0), v_ref=2.0, theta_ref=0.0, kappa_ref=0.5)
    np.testing.assert_allclose(feedforward_rhs(turn_only), [0.0, 1.0], atol=1e-16)
    np.testing.assert_allclose(feedforward_rhs(ref), [0.3, 1.0], atol=1e-16)


# --------------------------------------------------------------------------
# spacing


GAINS_V = ControllerGains(gamma=0.001, omega0=0.25, spacing_mode=SpacingMode.BEACON)


def lone_spacing(position, heading, speed, ref_position, gains=GAINS_V, beacon_velocity=None):
    """control_terms' spacing term for a single vehicle."""
    snap = Snapshot(speeds=[speed], headings=[heading], positions=[position])
    ref = ReferenceSignal(position=ref_position, v_ref=0.0, theta_ref=0.0,
                          beacon_velocity=beacon_velocity)
    return control_terms(snap, ref, gains)[2][0]


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
    snap = random_snapshot(rng, 4)
    ref = ReferenceSignal(position=(1, 2), v_ref=1.0, theta_ref=0.4, beacon_velocity=(0.8, -0.3))
    gains = ControllerGains(gamma=0.1, omega0=0.3, spacing_mode=SpacingMode.BEACON)
    _, _, u_spc = control_terms(snap, ref, gains)
    for k in range(snap.n):
        assert u_spc[k] == pytest.approx(
            u_spacing_beacon(snap.positions[k], snap.headings[k], snap.speeds[k],
                             ref.position, gains, ref.beacon_velocity),
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
        snap = random_snapshot(rng, n)
        A = build_A(snap)
        raw = rng.standard_normal(n)
        out, ok = project_spacing_to_kernel(raw, A)
        assert ok
        assert np.linalg.norm(A @ out) <= 1e-10 * max(1.0, np.linalg.norm(raw))
        again, _ = project_spacing_to_kernel(out, A)
        np.testing.assert_allclose(again, out, atol=1e-12)


def test_projector_trivial_kernel_n2():
    snap = Snapshot(speeds=[1.0, 1.0], headings=[0.0, math.pi / 2], positions=np.zeros((2, 2)))
    out, ok = project_spacing_to_kernel(np.array([0.7, -0.4]), build_A(snap))
    assert ok
    np.testing.assert_allclose(out, np.zeros(2), atol=1e-12)


def test_projector_rank_deficient_passthrough():
    snap = Snapshot(speeds=[1.0, 1.0], headings=[0.3, 0.3], positions=np.zeros((2, 2)))
    raw = np.array([1.0, 2.0])
    out, ok = project_spacing_to_kernel(raw, build_A(snap))
    assert not ok
    np.testing.assert_allclose(out, raw)


# --------------------------------------------------------------------------
# combination


def test_combined_control_zero_at_matched_stationary_ref():
    snap = Snapshot(
        speeds=[1.0, 1.0], headings=[0.0, math.pi], positions=[[0.0, 0.0], [1.0, 1.0]]
    )
    ref = ReferenceSignal(position=(0, 0), v_ref=0.0, theta_ref=0.0)
    gains = ControllerGains(gamma=0.5, spacing_mode=SpacingMode.OFF)
    u_vel, h, u_spc = control_terms(snap, ref, gains)
    # centroid velocity cancels only up to sin(pi) rounding
    assert abs(u_vel[0] + h[0] + u_spc[0]) <= 1e-15
    assert abs(u_vel[0]) <= 1e-15
    assert h[0] == 0.0 and u_spc[0] == 0.0


def test_combined_control_is_sum_of_parts():
    rng = np.random.default_rng(9)
    snap = random_snapshot(rng, 5)
    ref = ReferenceSignal(position=(1, 2), v_ref=1.0, theta_ref=0.4, kappa_ref=0.2, a_ref=0.1)
    gains = ControllerGains(gamma=0.1, omega0=0.3, spacing_mode=SpacingMode.BEACON)
    # the engine applies u_vel + h + u_spc (test_engine's
    # test_log_derived_columns_consistent); each part is checked here
    u_vel, h, u_spc = control_terms(snap, ref, gains)
    np.testing.assert_array_equal(h, solve_feedforward(snap, ref).h)
    for k in range(snap.n):
        assert u_vel[k] == pytest.approx(
            u_velocity(snap, k, ref.velocity, gains.gamma), abs=1e-12
        )
        assert u_spc[k] == pytest.approx(
            u_spacing_beacon(snap.positions[k], snap.headings[k], snap.speeds[k],
                             ref.position, gains),
            abs=1e-12,
        )


@pytest.mark.parametrize("mode", list(SpacingMode))
def test_control_terms_match_the_separate_laws(mode):
    rng = np.random.default_rng(19)
    snap = random_snapshot(rng, 5)
    ref = ReferenceSignal(position=(1, 2), v_ref=1.0, theta_ref=0.4, kappa_ref=0.2, a_ref=0.1,
                          beacon_velocity=(0.5, 0.2))
    gains = ControllerGains(gamma=0.1, omega0=0.3, spacing_mode=mode)
    u_vel, h, u_spc = control_terms(snap, ref, gains)
    np.testing.assert_array_equal(h, solve_feedforward(snap, ref).h)
    for k in range(snap.n):
        assert u_vel[k] == u_velocity(snap, k, ref.velocity, gains.gamma)
    if mode is SpacingMode.OFF:
        np.testing.assert_array_equal(u_spc, np.zeros(snap.n))
    else:
        raw = np.array([
            u_spacing_beacon(snap.positions[k], snap.headings[k], snap.speeds[k],
                             ref.position, gains, ref.beacon_velocity)
            for k in range(snap.n)
        ])
        if mode is SpacingMode.BEACON_PROJECTED:
            raw, _ = project_spacing_to_kernel(raw, build_A(snap))
        np.testing.assert_allclose(u_spc, raw, rtol=0.0, atol=1e-12)


def test_combined_control_reduces_to_velocity_law():
    rng = np.random.default_rng(13)
    snap = random_snapshot(rng, 3)
    ref = ReferenceSignal(position=(0, 0), v_ref=1.0, theta_ref=-0.2)  # kappa = a = 0
    gains = ControllerGains(gamma=0.4, spacing_mode=SpacingMode.OFF)
    u_vel, h, u_spc = control_terms(snap, ref, gains)
    for k in range(snap.n):
        assert u_vel[k] + h[k] + u_spc[k] == pytest.approx(
            u_velocity(snap, k, ref.velocity, gains.gamma), abs=1e-15
        )
        assert h[k] == 0.0 and u_spc[k] == 0.0


def test_feedforward_toggle():
    rng = np.random.default_rng(15)
    snap = random_snapshot(rng, 4)
    ref = ReferenceSignal(position=(0, 0), v_ref=1.0, theta_ref=0.0, kappa_ref=0.5)
    gains_off = ControllerGains(gamma=0.1, feedforward=False)
    assert (control_terms(snap, ref, gains_off)[1] == 0.0).all()
    gains_on = ControllerGains(gamma=0.1, feedforward=True)
    assert (control_terms(snap, ref, gains_on)[1] != 0.0).any()


# --------------------------------------------------------------------------
# Lyapunov identities


def _lyapunov(snap, ref_vel):
    err = snap.centroid_velocity() - np.asarray(ref_vel, dtype=float)
    return 0.5 * float(err @ err)


def test_analytic_Vdot_matches_finite_difference():
    rng = np.random.default_rng(21)
    gamma, dt = 0.5, 1e-5
    ref = ReferenceSignal(position=(0, 0), v_ref=0.8, theta_ref=0.5)
    gains = ControllerGains(gamma=gamma, spacing_mode=SpacingMode.OFF)
    # (position, heading, speed) per vehicle
    rows = [(rng.uniform(-5, 5, 2), rng.uniform(-3, 3), rng.uniform(1, 2)) for _ in range(3)]
    snap = Snapshot(
        speeds=[r[2] for r in rows], headings=[r[1] for r in rows], positions=[r[0] for r in rows]
    )
    controls = total_command(snap, ref, gains)
    err = snap.centroid_velocity() - ref.velocity
    brackets = [
        -err[0] * v * math.sin(th) + err[1] * v * math.cos(th)
        for v, th in zip(snap.speeds, snap.headings)
    ]
    vdot_analytic = -(gamma / snap.n) * sum(b * b for b in brackets)
    v0 = _lyapunov(snap, ref.velocity)
    x, y, th = rk4_unicycle_arrays(
        snap.positions[:, 0], snap.positions[:, 1], snap.headings, snap.speeds, controls, dt
    )
    after = Snapshot(speeds=snap.speeds, headings=th, positions=np.column_stack((x, y)))
    v1 = _lyapunov(after, ref.velocity)
    assert (v1 - v0) / dt == pytest.approx(vdot_analytic, abs=100.0 * dt)
    assert vdot_analytic <= 0.0


def test_projected_spacing_leaves_Vdot_unchanged():
    rng = np.random.default_rng(23)
    ref = ReferenceSignal(position=(3.0, -1.0), v_ref=1.0, theta_ref=0.1)
    for _ in range(25):
        n = int(rng.integers(3, 7))
        snap = random_snapshot(rng, n)
        A = build_A(snap)
        err = snap.centroid_velocity() - ref.velocity
        gains_off = ControllerGains(gamma=0.2, omega0=0.3, spacing_mode=SpacingMode.OFF)
        gains_prj = ControllerGains(gamma=0.2, omega0=0.3, spacing_mode=SpacingMode.BEACON_PROJECTED)
        u_off = total_command(snap, ref, gains_off)
        u_prj = total_command(snap, ref, gains_prj)
        # Vdot = <err, A u>; the projected spacing term contributes nothing
        vdot_off = float(err @ (A @ u_off))
        vdot_prj = float(err @ (A @ u_prj))
        assert abs(vdot_prj - vdot_off) <= 1e-10 * max(1.0, abs(vdot_off))


@given(st.floats(-math.pi, math.pi, allow_nan=False))
@settings(max_examples=40)
def test_rotation_equivariance(ang):
    rng = np.random.default_rng(31)
    snap = random_snapshot(rng, 4)
    ref = ReferenceSignal(position=(2.0, 1.0), v_ref=1.2, theta_ref=0.7, kappa_ref=0.3, a_ref=0.1)
    gains = ControllerGains(gamma=0.05, omega0=0.4, spacing_mode=SpacingMode.BEACON)
    R = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    snap_rot = Snapshot(
        speeds=snap.speeds,
        headings=np.array([wrap_angle(t + ang) for t in snap.headings]),
        positions=snap.positions @ R.T,
    )
    ref_rot = ReferenceSignal(
        position=R @ ref.position,
        v_ref=ref.v_ref,
        theta_ref=wrap_angle(ref.theta_ref + ang),
        kappa_ref=ref.kappa_ref,
        a_ref=ref.a_ref,
    )
    terms = control_terms(snap, ref, gains)
    terms_rot = control_terms(snap_rot, ref_rot, gains)
    np.testing.assert_allclose(sum(terms_rot), sum(terms), rtol=0.0, atol=1e-9)
    for part, part_rot in zip(terms, terms_rot):  # u_vel, h, u_spc
        np.testing.assert_allclose(part_rot, part, rtol=0.0, atol=1e-9)


# --------------------------------------------------------------------------
# plumbing


def test_saturate():
    assert saturate(0.7, 0.5) == 0.5
    assert saturate(-0.7, 0.5) == -0.5
    assert saturate(0.3, 0.5) == 0.3
    assert saturate(99.0, None) == 99.0


def test_gains_validation():
    with pytest.raises(ValueError, match="gamma"):
        ControllerGains(gamma=0.0)
    with pytest.raises(ValueError, match="omega0"):
        ControllerGains(gamma=0.1, omega0=-1.0)
    with pytest.raises(ValueError, match="u_max"):
        ControllerGains(gamma=0.1, u_max=0.0)

