"""End-to-end simulation loop: determinism, logging schema, physics sanity."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from swarmtrack import engine
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
from swarmtrack.netsim import BroadcastNetwork, NetworkConfig
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
    # kappa = 0: the circle degenerates to the straight line of a constant reference
    straight = run(dataclasses.replace(cfg, reference_mode=TurningRef(2.0, 0.0, 0.7)))
    line = run(dataclasses.replace(cfg, reference_mode=ConstantRef(
        (2.0 * math.cos(0.7), 2.0 * math.sin(0.7)))))
    for name in ("x", "y", "ref_pos", "ref_vel"):
        np.testing.assert_allclose(getattr(straight, name), getattr(line, name), rtol=0, atol=1e-9)


def test_turning_reference_subnormal_kappa_runs_straight():
    # speed / kappa overflows to inf; the reference must still be the straight line
    log = run(basic_config(reference_mode=TurningRef(2.0, 1e-310, 0.7), duration=1.0))
    line = log.centroid[0] + 2.0 * log.t[:, None] * np.array([math.cos(0.7), math.sin(0.7)])
    assert np.isfinite(log.ref_pos).all()
    np.testing.assert_allclose(log.ref_pos, line, rtol=0, atol=1e-12)


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


def test_building_an_infeasible_speed_set_raises():
    # the speed set of test_infeasible_scenario_raises, judged without a run
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
        ScenarioConfig(**cfg_kw)
    assert not exc.value.report.condition2_ok
    assert str(exc.value) == ("infeasible: fastest agent speed 5.0 exceeds the sum of the "
                              "other speeds 1.0 (set allow_infeasible to run anyway)")
    # with both conditions failing, the message names the first
    with pytest.raises(InfeasibleScenario) as exc:
        ScenarioConfig(**{**cfg_kw, "reference_mode": ConstantRef(velocity=(2.0, 0.0))})
    assert str(exc.value).startswith(
        "infeasible: slowest agent speed 1.0 is below the reference speed bound 2.0"
    )
    assert not ScenarioConfig(**cfg_kw, allow_infeasible=True).feasibility().feasible
    # the speed bound's own input errors are raised when the config is built
    with pytest.raises(ValueError, match="ref_speed_bound must be finite"):
        ScenarioConfig(**{**cfg_kw, "reference_mode": ConstantRef(velocity=(1.7e308, 1.7e308))},
                       allow_infeasible=True)


NAN, INF = math.nan, math.inf
SQUARE_ROUTE = ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0))


@pytest.mark.parametrize("build, message", [
    (lambda: ControllerGains(gamma=NAN), "gamma"),
    (lambda: ControllerGains(gamma=INF), "gamma"),
    (lambda: ControllerGains(gamma=0.1, omega0=NAN), "omega0"),
    (lambda: ControllerGains(gamma=0.1, omega0=INF), "omega0"),
    (lambda: ControllerGains(gamma=0.1, u_max=NAN), "u_max"),
    (lambda: ConstantWeight(NAN), "constant weight"),
    (lambda: ConstantWeight(INF), "constant weight"),
    (lambda: DistanceDependentWeight(NAN), "weight scale"),
    (lambda: DistanceDependentWeight(INF), "weight scale"),
    (lambda: DistanceDependentWeight(0.0), "weight scale"),
    (lambda: TurningTarget(initial_position=(0.0, 0.0), speed=NAN, kappa=0.1), "speed"),
    (lambda: TurningTarget(initial_position=(0.0, 0.0), speed=INF, kappa=0.1), "speed"),
    (lambda: WaypointTarget(waypoints=SQUARE_ROUTE, speed=NAN), "speed"),
    (lambda: WaypointTarget(waypoints=SQUARE_ROUTE, speed=INF), "speed"),
    (lambda: WaypointTarget(waypoints=SQUARE_ROUTE, speed=1.0, dwell=NAN), "dwell"),
    (lambda: WaypointTarget(waypoints=SQUARE_ROUTE, speed=1.0, dwell=INF), "dwell"),
    (lambda: WaypointTarget(waypoints=SQUARE_ROUTE, speed=1.0, dwell=-1.0), "dwell"),
    (lambda: TurningRef(speed=NAN, kappa=0.1), "turning-reference speed"),
    (lambda: TurningRef(speed=INF, kappa=0.1), "turning-reference speed"),
    (lambda: basic_config(disturbance=NAN), "disturbance"),
    (lambda: basic_config(disturbance=INF), "disturbance"),
    (lambda: basic_config(agents=()), "at least one agent"),
    (lambda: basic_config(reference_mode=TargetTracking(ConstantWeight(0.1))),
     "requires a target program"),
    (lambda: AgentInit((NAN, 0.0), 0.0, 1.0), "agent position"),
    (lambda: AgentInit((0.0, 0.0), INF, 1.0), "AgentInit heading"),
    (lambda: AgentInit((0, 0, 9), 0.0, 1.0), "agent position"),
    (lambda: TurningTarget(initial_position=(0.0, 0.0), speed=1.0, kappa=NAN),
     "TurningTarget kappa"),
    (lambda: TurningTarget(initial_position=(0.0, 0.0), speed=1.0, kappa=0.1, heading0=INF),
     "TurningTarget heading0"),
    (lambda: ConstantVelocityTarget(initial_position=(INF, 0.0), velocity=(1.0, 0.0)),
     "target position"),
    (lambda: ConstantVelocityTarget(initial_position=(0.0, 0.0), velocity=(NAN, 0.0)),
     "target velocity"),
    (lambda: WaypointTarget(waypoints=((0.0, 0.0), (NAN, 1.0)), speed=1.0), "waypoint"),
    (lambda: TurningRef(speed=1.0, kappa=INF), "TurningRef kappa"),
    (lambda: TurningRef(speed=1.0, kappa=0.1, heading0=NAN), "TurningRef heading0"),
    (lambda: ConstantRef(velocity=(NAN, 0.0)), "reference velocity"),
    (lambda: basic_config(seed=1.5, network=NetworkConfig()), "seed"),
], ids=[
    "gamma_nan", "gamma_inf", "omega0_nan", "omega0_inf", "u_max_nan",
    "constant_weight_nan", "constant_weight_inf",
    "weight_scale_nan", "weight_scale_inf", "weight_scale_zero",
    "turning_target_speed_nan", "turning_target_speed_inf",
    "waypoint_speed_nan", "waypoint_speed_inf",
    "dwell_nan", "dwell_inf", "dwell_negative",
    "turning_ref_speed_nan", "turning_ref_speed_inf",
    "disturbance_nan", "disturbance_inf", "no_agents", "tracking_without_target",
    "agent_position_nan", "agent_heading_inf", "agent_position_3d",
    "turning_target_kappa_nan", "turning_target_heading0_inf",
    "constant_velocity_target_position_inf", "constant_velocity_target_velocity_nan",
    "waypoint_nan", "turning_ref_kappa_inf", "turning_ref_heading0_nan",
    "constant_ref_velocity_nan", "seed_not_int",
])
def test_config_dataclasses_reject_out_of_range_values(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_infinite_u_max_clamps_nothing():
    assert basic_config(gains=ControllerGains(gamma=0.1, u_max=INF)).gains.u_max == INF


def test_reference_speed_bound_reads_max_speed():
    assert ConstantRef(velocity=(3.0, 4.0)).max_speed() == 5.0
    assert TurningRef(speed=2.0, kappa=0.1).max_speed() == 2.0
    assert basic_config().ref_speed_bound() == 2.0


def test_config_rejects_a_run_with_no_steps():
    # round(duration / dt) is the step count; it must be at least 1
    with pytest.raises(ValueError, match="no steps"):
        basic_config(duration=0.001, dt=0.02)
    with pytest.raises(ValueError, match="no steps"):
        basic_config(duration=0.01, dt=0.02)  # exactly half a step rounds to 0
    log = run(basic_config(duration=0.011, dt=0.02))
    assert log.rows == 1


def test_unallocatable_log_raises_memory_error_naming_its_size():
    # 1e300 s / 0.02 s is a finite step count that numpy refuses before allocating
    with pytest.raises(MemoryError, match=r"5e\+301 steps x 3 agents"):
        run(basic_config(duration=1e300, dt=0.02))


def test_huge_gain_keeps_logged_headings_wrapped():
    # gamma = 1e15 turns a vehicle by up to ~1e15 rad in one step
    log = run(basic_config(gains=ControllerGains(gamma=1e15), duration=2.0, dt=0.02))
    assert np.abs(log.u_total).max() > 1e15
    assert ((log.theta > -math.pi) & (log.theta <= math.pi)).all()


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


def test_networked_step_samples_the_world_once(monkeypatch):
    """One target sample per step; the network starts from step 0's sample and
    advances at the top of every later step, so no step's work goes unread."""
    calls = dict.fromkeys(("target_state", "initialize", "advance"), 0)

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(engine, "target_state")
    count(BroadcastNetwork, "initialize")
    count(BroadcastNetwork, "advance")
    log = run(basic_config(
        reference_mode=TargetTracking(DistanceDependentWeight(0.1)),
        target=ConstantVelocityTarget(initial_position=(200.0, 0.0), velocity=(1.0, 0.0)),
        network=NetworkConfig(loss_probability=0.2),
        duration=0.5,
    ))
    steps = log.rows
    assert steps == 50
    assert calls == {"target_state": steps, "initialize": 1, "advance": steps - 1}


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


# --------------------------------------------------------------------------
# lock-step batches


def log_digest(log):
    """SHA-256 over (name, dtype, shape, bytes) of every array field of a RunLog,
    in field order, and its aborted text."""
    h = hashlib.sha256()
    for f in dataclasses.fields(log):
        value = getattr(log, f.name)
        if isinstance(value, np.ndarray):
            a = np.ascontiguousarray(value)
            h.update(f"{f.name}:{a.dtype.str}:{a.shape};".encode())
            h.update(a.tobytes())
    h.update(repr(log.aborted).encode())
    return h.hexdigest()


TRACKING = dict(
    reference_mode=TargetTracking(DistanceDependentWeight(0.1)),
    target=TurningTarget(initial_position=(100.0, 0.0), speed=2.0, kappa=0.05),
)
# gamma 1e307 in the beacon term overflows after 88 steps; u_max must not hide it
BLOWS_UP = ControllerGains(gamma=1e307, u_max=0.5, spacing_mode=SpacingMode.BEACON)


def batch_groups():
    """Groups of configs that one run_batch can hold, as the sweep forms them."""
    beacon, projected = SpacingMode.BEACON, SpacingMode.BEACON_PROJECTED
    tracking = [
        basic_config(gains=ControllerGains(gamma=0.001, omega0=0.25, spacing_mode=beacon)),
        basic_config(gains=ControllerGains(gamma=0.01, omega0=0.1, spacing_mode=beacon,
                                           u_max=0.3)),
        basic_config(gains=ControllerGains(gamma=0.1, omega0=0.5, spacing_mode=beacon),
                     disturbance=0.05, seed=4),
        basic_config(gains=ControllerGains(gamma=0.003, spacing_mode=beacon, feedforward=False)),
        basic_config(gains=BLOWS_UP),
        basic_config(gains=ControllerGains(gamma=0.03, omega0=0.25, spacing_mode=beacon,
                                           u_max=math.inf)),
    ]
    turning = [
        basic_config(reference_mode=TurningRef(speed=1.5, kappa=0.02),
                     gains=ControllerGains(gamma=g, omega0=w, spacing_mode=projected, u_max=u,
                                           feedforward=ff))
        for g, w, u, ff in ((0.05, 0.25, None, True), (0.2, 0.1, 0.4, True),
                            (0.1, 0.3, None, False))
    ]
    networked = [
        basic_config(gains=ControllerGains(gamma=g, omega0=0.25, spacing_mode=beacon),
                     network=NetworkConfig(loss_probability=0.2), seed=seed)
        for g, seed in ((0.001, 3), (0.01, 4), (0.001, 5))
    ]
    # untargeted, each case with its own traffic: delay, jitter, dead reckoning, staleness
    untargeted = [
        basic_config(reference_mode=TurningRef(speed=1.5, kappa=0.02),
                     gains=ControllerGains(gamma=0.05, omega0=0.25, spacing_mode=projected),
                     network=NetworkConfig(agent_rate=rate, loss_probability=0.1, delay=delay,
                                           jitter=jitter, extrapolate=extrapolate,
                                           staleness_budget=budget), seed=seed)
        for rate, delay, jitter, extrapolate, budget, seed in (
            (10.0, 0.0, 0.0, False, None, 3), (10.0, 0.05, 0.05, True, 0.08, 4),
            (20.0, 0.03, 0.0, False, 0.05, 5), (10.0, 0.0, 0.07, True, None, 6))
    ]
    return [[dataclasses.replace(c, duration=2.0, **TRACKING) for c in tracking],
            [dataclasses.replace(c, duration=2.0) for c in turning],
            [dataclasses.replace(c, duration=1.0, **TRACKING) for c in networked],
            [dataclasses.replace(c, duration=1.0) for c in untargeted]]


def test_every_batched_case_equals_its_own_run():
    aborted = []
    with np.errstate(all="ignore"):
        for group in batch_groups():
            batch = engine.run_batch(group)
            alone = [engine.run_batch([config])[0] for config in group]
            assert [log_digest(log) for log in batch] == [log_digest(log) for log in alone]
            aborted += [log for log in batch if log.aborted]
            # the batch-mates of an aborted case run every step
            assert all(log.rows == group[0].steps for log in batch if not log.aborted)
    # one case goes non-finite mid-run, with the serial run's length and text
    assert len(aborted) == 1
    assert aborted[0].rows == 89
    assert aborted[0].aborted == "non-finite state after step 88 (t=0.89 s)"


def test_run_raises_the_batch_of_one_abort():
    config = dataclasses.replace(basic_config(gains=BLOWS_UP), duration=2.0, **TRACKING)
    with np.errstate(all="ignore"):
        log = engine.run_batch([config])[0]
        with pytest.raises(SimulationAborted, match="after step 88") as exc:
            run(config)
    assert log_digest(exc.value.log) == log_digest(log)


def test_derived_columns_do_not_depend_on_their_block(monkeypatch):
    group = batch_groups()[0][:3]
    whole = [log_digest(log) for log in engine.run_batch(group)]
    monkeypatch.setattr(engine, "DERIVED_STEPS", 7)
    assert [log_digest(log) for log in engine.run_batch(group)] == whole


def test_run_batch_refuses_configs_of_different_shapes():
    with pytest.raises(ValueError, match="a batch shares"):
        engine.run_batch([basic_config(), basic_config(duration=2.0)])
    with pytest.raises(ValueError, match="a batch shares"):
        engine.run_batch([basic_config(), basic_config(network=NetworkConfig())])
    assert engine.run_batch([]) == []


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
