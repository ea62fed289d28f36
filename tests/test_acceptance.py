"""Package-level gate: end-to-end behaviors pinned at fixed tolerances.

Each test ties several modules together (batched heading flow, full engine
runs, the network layer, the bundled field scenario) and asserts the
quantitative outcome the package promises, wall-clock budgets included.
The unit suites cover the pieces; a failure here is an integration-level
regression.
"""

import math
import time

import numpy as np
import pytest

from oracles import build_A, random_view, rotate90, scalar_product, u_velocity_real_form
from test_analysis import assert_oracle_agreement, draw_equilibrium_specs
from test_engine import THREE, logs_equal

from swarmtrack.analysis import (
    build_equilibrium,
    check_feasibility,
    classify_equilibrium,
    simulate_phase_flow,
)
from swarmtrack.cli import bundled_scenario_text
from swarmtrack.controllers import (
    ControllerGains,
    SpacingMode,
    control_terms,
)
from swarmtrack.dynamics import norm
from swarmtrack.engine import (
    AgentInit,
    ConstantRef,
    ScenarioConfig,
    TargetTracking,
    TurningRef,
    run,
    run_oracle_centroid,
)
from swarmtrack.netsim import NetworkConfig
from swarmtrack.reference import ConstantVelocityTarget, ConstantWeight, reference_signal
from swarmtrack.scenario import parse_scenario_text

SPEEDS = (10.0, 12.0, 16.0)


# --------------------------------------------------------------------------
# constant-reference convergence


def test_constant_reference_convergence_batch():
    rng = np.random.default_rng(11)
    dt, horizon = 0.05, 120.0
    steps = int(round(horizon / dt))
    th0 = rng.uniform(-math.pi, math.pi, size=(50, 3))

    t0 = time.perf_counter()
    V, _ = simulate_phase_flow(SPEEDS, (2.0, 0.0), 0.1, th0, dt, steps)
    elapsed = time.perf_counter() - t0

    assert elapsed < 5.0
    assert np.diff(V, axis=1).max() <= 1e-9  # V never increases
    assert int((V[:, -1] < 1e-6).sum()) >= 49

    # the engine must realize the same heading flow: under a constant
    # reference with spacing off, positions never feed back into the controls
    config = ScenarioConfig(
        agents=tuple(
            AgentInit(position=(10.0 * k, 0.0), heading=float(th0[0, k]), speed=SPEEDS[k])
            for k in range(3)
        ),
        gains=ControllerGains(gamma=0.1),
        reference_mode=ConstantRef(velocity=(2.0, 0.0)),
        duration=horizon,
        dt=dt,
        seed=0,
    )
    log = run(config)
    np.testing.assert_allclose(log.V, V[0, : log.rows], atol=1e-9)


# --------------------------------------------------------------------------
# time-varying reference needs the feedforward term


def test_turning_reference_feedforward_necessity():
    def final_alpha(feedforward):
        config = ScenarioConfig(
            agents=THREE,
            gains=ControllerGains(gamma=0.05, feedforward=feedforward),
            reference_mode=TurningRef(speed=2.0, kappa=0.05),
            duration=200.0,
            dt=0.02,
            seed=1,
        )
        return float(run(config).alpha_norm[-1])

    with_h = final_alpha(True)
    without_h = final_alpha(False)
    assert with_h < 1e-4
    assert without_h > 10 * 1e-4  # the gradient term alone cannot close the loop


# --------------------------------------------------------------------------
# feedforward solver


def test_feedforward_solutions_exact_and_minimum_norm():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        speeds, headings, positions = random_view(rng, n)
        ref = reference_signal(
            np.zeros(2),
            float(rng.uniform(0.1, 2.0)),
            float(rng.uniform(-math.pi, math.pi)),
            kappa_ref=float(rng.uniform(-0.5, 0.5)),
            a_ref=float(rng.normal(0.0, 0.3)),
        )
        h = control_terms(speeds, headings, positions, ref, ControllerGains(gamma=0.1))[1]
        A = build_A(speeds, headings)
        b = np.array(ref[2])
        assert np.linalg.norm(A @ h - b) <= 1e-9 * (1.0 + np.linalg.norm(b))
        # adding any kernel component can only lengthen the solution
        z = rng.standard_normal(n)
        z -= np.linalg.pinv(A) @ (A @ z)
        assert np.linalg.norm(h + z) >= np.linalg.norm(h) - 1e-12


# --------------------------------------------------------------------------
# equilibrium classification against the sampling oracle


def test_equilibrium_classification_matches_sampling_oracle():
    pairs = draw_equilibrium_specs(seed=23, count=200)
    assert len(pairs) == 200
    for i, (spec, verdict) in enumerate(pairs):
        assert_oracle_agreement(spec, verdict, seed=1000 + i)


def test_mixed_group_equilibrium_curvature_signs():
    verdict = classify_equilibrium(build_equilibrium([1.0, 2.0, 3.0], 1, 0.0, (0.0, 0.0)))
    eig = verdict.eigenvalues
    assert eig[-1] >= 5.0 / 3.0 - 1e-9
    assert eig[0] <= -4.0 / 3.0 + 1e-9
    assert abs(eig[1]) <= 1e-9 * max(abs(eig[0]), eig[-1])  # common-rotation mode
    assert verdict.has_descent_direction and verdict.has_ascent_direction


# --------------------------------------------------------------------------
# speed feasibility truth table


def test_speed_feasibility_truth_table():
    r = check_feasibility(SPEEDS, 2.0)
    assert (r.condition1_ok, r.condition2_ok, r.feasible, r.marginal) == (
        True, True, True, False)
    assert (r.v_min, r.v_max, r.sum_others) == (10.0, 16.0, 22.0)

    # one vehicle faster than the rest combined fails for every bound
    for bound in (0.25, 0.5, 1.0, 3.0):
        r = check_feasibility((1.0, 5.0), bound)
        assert (r.condition2_ok, r.feasible) == (False, False)

    r = check_feasibility((1.0, 1.0, 1.0), 1.0)
    assert (r.feasible, r.marginal) == (True, True)


# --------------------------------------------------------------------------
# idealized centroid pull


def test_ideal_centroid_pull_decays_exponentially():
    # place the initial centroid 10 m east of a stationary target
    shift = np.array([10.0 - 50.0 / 3.0, -50.0 / 3.0])
    agents = tuple(
        AgentInit(position=tuple(a.position + shift), heading=a.heading, speed=a.speed)
        for a in THREE
    )
    config = ScenarioConfig(
        agents=agents,
        gains=ControllerGains(gamma=0.1),
        reference_mode=TargetTracking(ConstantWeight(0.5)),
        target=ConstantVelocityTarget(initial_position=(0.0, 0.0), velocity=(0.0, 0.0)),
        duration=8.02,
        dt=0.01,
        seed=0,
    )
    log = run_oracle_centroid(config)
    sel = log.t <= 8.0
    expected = 10.0 * np.exp(-0.5 * log.t[sel])
    rel = np.abs(log.beta_norm[sel] - expected) / expected
    assert rel.max() <= 5e-3


# --------------------------------------------------------------------------
# projected spacing stays out of the error dynamics


def test_projected_spacing_preserves_error_dynamics():
    agents = (
        AgentInit(position=(0.0, 0.0), heading=0.4, speed=1.5),
        AgentInit(position=(8.0, 0.0), heading=2.0, speed=2.0),
        AgentInit(position=(0.0, 8.0), heading=-1.2, speed=2.5),
        AgentInit(position=(8.0, 8.0), heading=1.0, speed=3.0),
    )
    config = ScenarioConfig(
        agents=agents,
        gains=ControllerGains(gamma=0.2, spacing_mode=SpacingMode.BEACON_PROJECTED),
        reference_mode=ConstantRef(velocity=(1.0, 0.0)),
        duration=30.0,
        dt=0.02,
        seed=1,
    )
    log = run(config)
    v = log.speeds
    n = len(v)
    # per-step A rows: column k is (1/n) i v_k e^{i th_k}
    A = np.stack(((-v * np.sin(log.theta)) / n, (v * np.cos(log.theta)) / n), axis=1)
    err = log.centroid_vel - log.ref_vel

    A_u_spc = np.einsum("rij,rj->ri", A, log.u_spc)
    vdot_on = np.einsum("ri,ri->r", err, np.einsum("rij,rj->ri", A, log.u_total))
    vdot_off = np.einsum("ri,ri->r", err,
                         np.einsum("rij,rj->ri", A, log.u_total - log.u_spc))

    assert np.abs(log.u_spc).max() > 0.1  # spacing genuinely active
    assert np.abs(A_u_spc).max() <= 1e-10
    assert np.abs(vdot_on - vdot_off).max() <= 1e-10


# --------------------------------------------------------------------------
# bundled field-scenario replay


@pytest.fixture(scope="module")
def replay():
    config = parse_scenario_text(bundled_scenario_text())
    t0 = time.perf_counter()
    first = run(config)
    elapsed_first = time.perf_counter() - t0
    t0 = time.perf_counter()
    second = run(config)
    elapsed_second = time.perf_counter() - t0
    return first, second, elapsed_first, elapsed_second


def test_field_replay_runtime_determinism_containment(replay):
    first, second, elapsed_first, elapsed_second = replay
    assert elapsed_first < 30.0 and elapsed_second < 30.0
    assert logs_equal(first, second)
    tail = first.t >= 500.0
    assert float(first.dist_to_centroid[tail].max()) < 300.0


def test_field_replay_centroid_tracking_bound(replay):
    first, _, _, _ = replay
    tail = first.t >= 500.0
    worst = float(first.beta_norm[tail].max())
    assert worst < 25.0, (
        f"max |centroid - target| over t in [500, 900] s is {worst:.1f} m (bound 25 m)"
    )


# --------------------------------------------------------------------------
# algebraic identities


def test_algebraic_identities_hold_at_1e_12():
    rng = np.random.default_rng(29)
    for _ in range(10_000):
        z1 = rng.uniform(-5.0, 5.0, 2)
        z2 = rng.uniform(-5.0, 5.0, 2)
        scale = 1.0 + norm(z1) * norm(z2)
        assert abs(scalar_product(rotate90(z1), z1)) <= 1e-12 * scale
        assert abs(scalar_product(rotate90(z1), z2)
                   + scalar_product(z1, rotate90(z2))) <= 1e-12 * scale
        assert abs(scalar_product(rotate90(z1), rotate90(z2))
                   - scalar_product(z1, z2)) <= 1e-12 * scale
        # the two projections of z2 onto the z1 frame resolve its full length
        assert abs(scalar_product(z1, z2) ** 2 + scalar_product(rotate90(z1), z2) ** 2
                   - (norm(z1) * norm(z2)) ** 2) <= 1e-12 * scale**2

        n = int(rng.integers(1, 9))
        speeds, headings, positions = random_view(rng, n)
        k = int(rng.integers(0, n))
        v_ref = float(rng.uniform(0.0, 2.0))
        th_ref = float(rng.uniform(-math.pi, math.pi))
        gamma = float(rng.uniform(0.1, 1.0))
        gains = ControllerGains(gamma=gamma)
        ref = reference_signal(np.zeros(2), v_ref, th_ref)
        u = control_terms(speeds, headings, positions, ref, gains)[0][k]
        # complex-product form == expanded heading-difference form
        assert abs(u - u_velocity_real_form(speeds, headings, k, v_ref, th_ref, gamma)) <= 1e-12

        # rotating the whole plane leaves every heading-rate command unchanged
        phi = float(rng.uniform(-math.pi, math.pi))
        c, s = math.cos(phi), math.sin(phi)
        R = np.array([[c, -s], [s, c]])
        ref_rotated = reference_signal(np.zeros(2), v_ref, th_ref + phi)
        u_rotated = control_terms(speeds, headings + phi, positions @ R.T, ref_rotated, gains)
        assert abs(u_rotated[0][k] - u) <= 1e-12


# --------------------------------------------------------------------------
# determinism and network fidelity


def tracking_base(**kw):
    defaults = dict(
        agents=THREE,
        gains=ControllerGains(gamma=0.01),
        reference_mode=TargetTracking(ConstantWeight(0.05)),
        target=ConstantVelocityTarget(initial_position=(20.0, 0.0), velocity=(0.5, 0.0)),
        dt=0.02,
        seed=13,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def test_repeated_runs_bit_identical():
    config = tracking_base(
        gains=ControllerGains(gamma=0.01, spacing_mode=SpacingMode.BEACON),
        network=NetworkConfig(loss_probability=0.2, delay=0.03, jitter=0.02),
        duration=20.0,
        disturbance=0.01,
    )
    assert logs_equal(run(config), run(config))


def test_lossless_network_matches_ground_truth():
    truth = run(tracking_base(duration=60.0))
    net = run(tracking_base(
        duration=60.0,
        network=NetworkConfig(agent_rate=50.0, target_rate=50.0),
    ))
    for field in ("x", "y", "theta"):
        diff = np.max(np.abs(getattr(net, field) - getattr(truth, field)))
        assert diff <= 1e-9, field


def test_delivery_counts_within_binomial_band():
    # one extra step so the final record covers the full 60 s of traffic
    log = run(tracking_base(
        duration=60.02,
        network=NetworkConfig(loss_probability=0.1),
    ))
    assert log.t[-1] == 60.0
    decisions = int(log.net_decisions[-1])
    delivered = int(log.net_delivered[-1])
    # 3 agents at 10 Hz to 2 receivers each, target at 5 Hz to 3 receivers
    assert decisions == 60 * (3 * 10 * 2 + 5 * 3)
    sigma = math.sqrt(decisions * 0.9 * 0.1)
    assert abs(delivered - 0.9 * decisions) <= 3.0 * sigma
