"""End-to-end simulation loop: determinism, logging schema, physics sanity."""

import dataclasses
import math

import numpy as np
import pytest

from swarmtrack.controllers import ControllerGains, SpacingMode
from swarmtrack.engine import (
    AgentInit,
    ConstantRef,
    InfeasibleScenario,
    ScenarioConfig,
    SimulationAborted,
    TargetTracking,
    TurningRef,
    run,
    run_oracle_centroid,
)
from swarmtrack.netsim import NetworkConfig
from swarmtrack.reference import (
    ConstantVelocityTarget,
    ConstantWeight,
    DistanceDependentWeight,
    TurningTarget,
    WaypointTarget,
    reference_kinematics,
    reference_rates,
)

THREE = (
    AgentInit(position=(0.0, 0.0), heading=0.4, speed=10.0),
    AgentInit(position=(50.0, 0.0), heading=2.0, speed=12.0),
    AgentInit(position=(0.0, 50.0), heading=-1.2, speed=16.0),
)


def basic_config(**kw):
    defaults = dict(
        agents=THREE,
        gains=ControllerGains(gamma=0.1),
        reference_mode=ConstantRef(velocity=(2.0, 0.0)),
        duration=5.0,
        dt=0.01,
        seed=3,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def logs_equal(a, b):
    for name in ("t", "x", "y", "theta", "u_total", "V", "beta_norm",
                 "net_delivered", "ref_pos", "target_pos"):
        va, vb = getattr(a, name), getattr(b, name)
        if not np.array_equal(va, vb, equal_nan=True):
            return False
    return True


# --------------------------------------------------------------------------
# schema and bookkeeping


def test_log_shape_and_time_grid():
    log = run(basic_config(duration=2.5))
    assert log.rows == 250
    assert log.n == 3
    np.testing.assert_allclose(log.t, np.arange(250) * 0.01, atol=1e-12)
    np.testing.assert_allclose(log.speeds, [10.0, 12.0, 16.0])
    assert log.aborted is None


def test_no_target_columns_are_nan():
    log = run(basic_config(duration=1.0))
    assert np.isnan(log.target_pos).all()
    assert np.isnan(log.target_vel).all()
    assert np.isnan(log.beta_norm).all()
    assert np.isfinite(log.V).all()


def test_displacement_bounded_by_speed():
    log = run(basic_config(duration=2.0))
    dx = np.diff(log.x, axis=0)
    dy = np.diff(log.y, axis=0)
    disp = np.hypot(dx, dy)
    assert np.all(disp <= log.speeds * log.dt + 1e-12)
    assert np.all(disp >= 0.5 * log.speeds * log.dt)  # never stalls


def test_log_derived_columns_consistent():
    log = run(basic_config(duration=1.0))
    np.testing.assert_allclose(log.centroid[:, 0], log.x.mean(axis=1), atol=1e-12)
    np.testing.assert_allclose(log.centroid[:, 1], log.y.mean(axis=1), atol=1e-12)
    cvx = (log.speeds * np.cos(log.theta)).mean(axis=1)
    cvy = (log.speeds * np.sin(log.theta)).mean(axis=1)
    np.testing.assert_allclose(log.centroid_vel, np.column_stack((cvx, cvy)), atol=1e-12)
    alpha = np.hypot(cvx - log.ref_vel[:, 0], cvy - log.ref_vel[:, 1])
    np.testing.assert_allclose(log.alpha_norm, alpha, atol=1e-12)
    np.testing.assert_allclose(log.V, 0.5 * alpha**2, atol=1e-12)
    np.testing.assert_allclose(
        log.u_total, log.u_vel + log.u_h + log.u_spc, atol=1e-15
    )


# --------------------------------------------------------------------------
# determinism


def test_identical_configs_give_identical_logs():
    cfg = basic_config(
        duration=3.0,
        network=NetworkConfig(loss_probability=0.2, delay=0.03, jitter=0.02),
        disturbance=0.01,
    )
    assert logs_equal(run(cfg), run(cfg))


def test_seed_changes_network_outcomes():
    mk = lambda seed: basic_config(
        duration=3.0, seed=seed, network=NetworkConfig(loss_probability=0.3)
    )
    a, b = run(mk(1)), run(mk(2))
    assert a.net_delivered[-1] != b.net_delivered[-1] or not np.array_equal(a.x, b.x)


# --------------------------------------------------------------------------
# convergence behavior


def test_V_decreases_to_zero_constant_ref():
    log = run(basic_config(duration=120.0))
    assert np.all(np.diff(log.V) <= 1e-9)
    assert log.V[-1] < 1e-6


def test_turning_reference_geometry():
    # closed-form reference columns trace a circle of radius v/kappa
    cfg = basic_config(
        reference_mode=TurningRef(speed=2.0, kappa=0.05),
        gains=ControllerGains(gamma=0.05),
        duration=10.0,
    )
    log = run(cfg)
    r = 2.0 / 0.05
    centroid0 = log.centroid[0]
    center = centroid0 + r * np.array([0.0, 1.0])  # heading0 = 0
    radii = np.hypot(log.ref_pos[:, 0] - center[0], log.ref_pos[:, 1] - center[1])
    np.testing.assert_allclose(radii, r, atol=1e-9)
    np.testing.assert_allclose(
        np.hypot(log.ref_vel[:, 0], log.ref_vel[:, 1]), 2.0, atol=1e-12
    )


def test_target_tracking_reference_starts_at_centroid():
    cfg = basic_config(
        reference_mode=TargetTracking(DistanceDependentWeight(0.1)),
        target=ConstantVelocityTarget(initial_position=(200.0, 0.0), velocity=(1.0, 0.0)),
        duration=1.0,
    )
    log = run(cfg)
    np.testing.assert_allclose(log.ref_pos[0], log.centroid[0], atol=1e-12)
    np.testing.assert_allclose(log.beta_norm, np.hypot(
        log.centroid[:, 0] - log.target_pos[:, 0],
        log.centroid[:, 1] - log.target_pos[:, 1],
    ), atol=1e-12)


# --------------------------------------------------------------------------
# reference derivative across waypoint corners

# Target runs east for 50 s, turns north at (100, 0): one corner at t = 50 s.
ONE_CORNER = WaypointTarget(
    waypoints=((0.0, 0.0), (100.0, 0.0), (100.0, 100.0)), speed=2.0, closed=False
)


def corner_config(mode, **kw):
    defaults = dict(
        reference_mode=TargetTracking(DistanceDependentWeight(0.1)),
        target=ONE_CORNER,
        gains=ControllerGains(gamma=0.001, omega0=0.25, spacing_mode=mode),
        duration=60.0,
        dt=0.02,
    )
    defaults.update(kw)
    return basic_config(**defaults)


@pytest.mark.parametrize("mode", [SpacingMode.BEACON, SpacingMode.BEACON_PROJECTED])
def test_waypoint_corner_resets_reference_without_impulse(mode):
    log = run(corner_config(mode))
    corner = int(np.argmax(log.target_vel[:, 1] > 0.0))
    assert log.t[corner] == pytest.approx(50.0)
    # differencing the jump in v_ref would put an impulse of tens of rad/s here
    assert np.abs(log.u_h).max() < 0.1
    assert np.abs(log.u_h[corner - 5 : corner + 5]).max() < 0.01
    # the reference point stays the integral of v_ref through the corner
    steps = log.ref_pos[1:] - log.ref_pos[:-1]
    np.testing.assert_allclose(steps, log.ref_vel[:-1] * log.dt, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "target",
    [ONE_CORNER, TurningTarget(initial_position=(0.0, 0.0), speed=2.0, kappa=0.05)],
    ids=["waypoint", "turning"],
)
def test_closed_form_rates_match_finite_differences(target):
    # along the ideal outer loop the centroid moves with v_ref, which is the
    # motion the closed-form derivative is taken along
    cfg = corner_config(SpacingMode.BEACON, target=target, dt=0.002, duration=45.0)
    log = run_oracle_centroid(cfg)
    smooth = range(10_000, 20_000, 997)  # 20 s .. 40 s, before the waypoint corner
    dt = log.dt
    vel = log.ref_vel
    fd = (vel[2:] - vel[:-2]) / (2.0 * dt)  # central difference at rows 1..-2
    speed = np.hypot(vel[:, 0], vel[:, 1])
    heading = np.unwrap(np.arctan2(vel[:, 1], vel[:, 0]))
    for m in smooth:
        t = log.t[m]
        v_ref, vdot = reference_kinematics(
            log.target_pos[m], log.target_vel[m], target.acceleration(t),
            log.centroid[m], cfg.reference_mode.weight,
        )
        np.testing.assert_allclose(v_ref, vel[m], atol=1e-12)
        np.testing.assert_allclose(vdot, fd[m - 1], atol=1e-8)
        kappa, a = reference_rates(v_ref, vdot)
        assert kappa == pytest.approx((heading[m + 1] - heading[m - 1]) / (2 * dt), abs=1e-8)
        assert a == pytest.approx((speed[m + 1] - speed[m - 1]) / (2 * dt), abs=1e-8)


# --------------------------------------------------------------------------
# feasibility gate and aborts


def test_infeasible_scenario_raises():
    cfg_kw = dict(
        agents=(
            AgentInit(position=(0.0, 0.0), heading=0.0, speed=1.0),
            AgentInit(position=(10.0, 0.0), heading=0.0, speed=5.0),
        ),
        gains=ControllerGains(gamma=0.1),
        reference_mode=ConstantRef(velocity=(0.5, 0.0)),
        duration=1.0,
        dt=0.01,
    )
    with pytest.raises(InfeasibleScenario) as exc:
        run(ScenarioConfig(**cfg_kw))
    assert not exc.value.report.condition2_ok

    log = run(ScenarioConfig(**cfg_kw, allow_infeasible=True))
    assert log.rows == 100  # runs to completion anyway


def test_config_rejects_a_run_with_no_steps():
    # round(duration / dt) is the step count; it must be at least 1
    with pytest.raises(ValueError, match="no steps"):
        basic_config(duration=0.001, dt=0.02)
    with pytest.raises(ValueError, match="no steps"):
        basic_config(duration=0.01, dt=0.02)  # exactly half a step rounds to 0
    log = run(basic_config(duration=0.011, dt=0.02))
    assert log.rows == 1


def test_aborted_run_carries_partial_log():
    cfg = basic_config(gains=ControllerGains(gamma=1e308), duration=5.0)
    with np.errstate(all="ignore"), pytest.raises(SimulationAborted) as exc:
        run(cfg)
    log = exc.value.log
    assert log.aborted is not None
    assert 1 <= log.rows < 500
    assert np.isfinite(log.x[: log.rows - 1]).all()  # rows before the blowup are fine
    assert log.t.shape[0] == log.x.shape[0] == log.V.shape[0]


# --------------------------------------------------------------------------
# networked vs ground truth


def test_lossless_fast_network_matches_ground_truth():
    common = dict(duration=5.0, dt=0.01, seed=9)
    truth = run(basic_config(**common))
    netted = run(
        basic_config(
            network=NetworkConfig(agent_rate=100.0, target_rate=100.0), **common
        )
    )
    assert np.max(np.abs(netted.x - truth.x)) <= 1e-10
    assert np.max(np.abs(netted.y - truth.y)) <= 1e-10
    assert np.max(np.abs(netted.theta - truth.theta)) <= 1e-10
    assert netted.net_sent[-1] > 0 and netted.net_dropped[-1] == 0


def test_disturbance_bounded_and_logged():
    amp = 0.05
    cfg = basic_config(duration=2.0, disturbance=amp)
    log = run(cfg)
    slack = log.u_total - (log.u_vel + log.u_h + log.u_spc)
    assert np.max(np.abs(slack)) <= amp + 1e-15
    assert np.any(np.abs(slack) > 0.0)


def test_u_max_does_not_hide_a_non_finite_command():
    # inf - inf in the beacon term gives a NaN command; it must abort the run,
    # not be clamped to +u_max
    gains = ControllerGains(gamma=1e308, u_max=0.5, spacing_mode=SpacingMode.BEACON)
    cfg = basic_config(gains=gains, duration=5.0)
    with np.errstate(all="ignore"), pytest.raises(SimulationAborted) as exc:
        run(cfg)
    log = exc.value.log
    assert log.rows < cfg.steps
    assert not np.isfinite(log.u_total[-1]).all()


def test_u_max_clamps_total_only():
    gains = ControllerGains(gamma=5.0, u_max=0.2)
    log = run(basic_config(gains=gains, duration=2.0))
    assert np.max(np.abs(log.u_total)) <= 0.2 + 1e-15
    assert np.max(np.abs(log.u_vel)) > 0.2  # decomposition logged unclamped


def test_spacing_mode_columns():
    cfg = basic_config(
        reference_mode=TargetTracking(DistanceDependentWeight(0.1)),
        target=WaypointTarget(waypoints=((0.0, 0.0), (200.0, 0.0)), speed=2.0),
        gains=ControllerGains(gamma=0.001, omega0=0.25, spacing_mode=SpacingMode.BEACON),
        duration=2.0,
    )
    log = run(cfg)
    assert np.all(log.u_spc != 0.0)  # beacon term always active
    cfg_off = dataclasses.replace(cfg, gains=ControllerGains(gamma=0.001, omega0=0.25))
    log_off = run(cfg_off)
    assert np.all(log_off.u_spc == 0.0)


# --------------------------------------------------------------------------
# idealized centroid oracle


def test_oracle_constant_weight_decay():
    cfg = ScenarioConfig(
        agents=THREE,
        gains=ControllerGains(gamma=0.1),
        reference_mode=TargetTracking(ConstantWeight(0.5)),
        target=ConstantVelocityTarget(initial_position=(0.0, 0.0), velocity=(0.0, 0.0)),
        duration=4.0,
        dt=0.01,
    )
    # place the centroid 10 m from the target along x
    agents = tuple(
        AgentInit(position=(a.position[0] - 50.0 / 3.0 + 10.0, a.position[1] - 50.0 / 3.0),
                  heading=a.heading, speed=a.speed)
        for a in THREE
    )
    cfg = dataclasses.replace(cfg, agents=agents)
    assert np.allclose(np.mean([a.position for a in agents], axis=0), [10.0, 0.0], atol=1e-12)
    log = run_oracle_centroid(cfg)
    t = log.t
    np.testing.assert_allclose(log.beta_norm, 10.0 * np.exp(-0.5 * t), rtol=1e-9)
    assert np.all(log.V == 0.0)
    # agents ride along rigidly
    spread = log.dist_to_centroid - log.dist_to_centroid[0][None, :]
    assert np.max(np.abs(spread)) <= 1e-9


def test_oracle_distance_weight_monotone():
    cfg = ScenarioConfig(
        agents=tuple(
            AgentInit(position=(a.position[0] + 100.0, a.position[1]), heading=a.heading, speed=a.speed)
            for a in THREE
        ),
        gains=ControllerGains(gamma=0.1),
        reference_mode=TargetTracking(DistanceDependentWeight(0.1)),
        target=ConstantVelocityTarget(initial_position=(0.0, 0.0), velocity=(0.0, 0.0)),
        duration=50.0,
        dt=0.01,
    )
    log = run_oracle_centroid(cfg)
    assert np.all(np.diff(log.beta_norm) < 0.0)
    # far away the pull saturates near 1 m/s
    early = (log.beta_norm[0] - log.beta_norm[100]) / (log.t[100] - log.t[0])
    assert early == pytest.approx(1.0, abs=0.05)
    # ~1 m/s of closure sustained over the 50 s horizon
    assert log.beta_norm[-1] < log.beta_norm[0] - 40.0


def test_oracle_requires_target_tracking():
    with pytest.raises(ValueError, match="target"):
        run_oracle_centroid(basic_config())
