"""Feasibility gate, Lyapunov metrics, and equilibrium classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lyapunov_V, tracking_metrics
from swarmtrack.analysis import (
    EquilibriumClass,
    EquilibriumRejected,
    build_equilibrium,
    check_feasibility,
    classify_equilibrium,
    headings_V,
    hessian,
    perturbation_oracle,
    simulate_phase_flow,
)


# --------------------------------------------------------------------------
# feasibility


def test_feasibility_truth_table():
    r = check_feasibility([10, 12, 16], 2.0)
    assert r.feasible and r.condition1_ok and r.condition2_ok and not r.marginal
    assert r.v_min == 10.0 and r.v_max == 16.0 and r.sum_others == 22.0

    r = check_feasibility([1, 5], 0.5)
    assert not r.feasible
    assert r.condition1_ok          # 1 >= 0.5
    assert not r.condition2_ok      # 5 > 1

    r = check_feasibility([1, 1, 1], 1.0)
    assert r.feasible and r.marginal  # both inequalities at the boundary


def test_feasibility_condition1():
    r = check_feasibility([3, 4, 5], 3.5)
    assert not r.condition1_ok and r.condition2_ok and not r.feasible


@given(st.permutations([1.0, 2.5, 4.0, 4.0]))
@settings(max_examples=24)
def test_feasibility_permutation_invariant(speeds):
    base = check_feasibility([1.0, 2.5, 4.0, 4.0], 0.8)
    other = check_feasibility(speeds, 0.8)
    assert other == base


@given(st.floats(0.0, 5.0), st.floats(0.0, 5.0))
@settings(max_examples=50)
def test_feasibility_monotone_in_bound(b1, b2):
    lo, hi = sorted((b1, b2))
    speeds = [2.0, 3.0, 4.0]
    # raising the bound can only break condition 1, never repair anything
    if not check_feasibility(speeds, lo).feasible:
        assert not check_feasibility(speeds, hi).feasible


def test_feasibility_input_validation():
    with pytest.raises(ValueError, match="positive"):
        check_feasibility([1.0, 0.0], 0.5)
    with pytest.raises(ValueError, match="positive"):
        check_feasibility([1.0, -2.0], 0.5)
    with pytest.raises(ValueError):
        check_feasibility([], 0.5)
    with pytest.raises(ValueError, match="non-negative"):
        check_feasibility([1.0], -0.1)


# --------------------------------------------------------------------------
# Lyapunov metrics


def test_lyapunov_values():
    assert headings_V([1.0], [0.0], (1.0, 0.0))[0] == 0.0
    assert headings_V([1.0], [0.0], (0.0, 0.0))[0] == 0.5
    assert headings_V([5.0], [math.atan2(4.0, 3.0)], (0.0, 0.0))[0] == pytest.approx(12.5, abs=1e-12)


def test_headings_V_matches_scalar():
    rng = np.random.default_rng(2)
    speeds = rng.uniform(1, 3, 4)
    ref = (0.3, -0.2)
    batch = rng.uniform(-math.pi, math.pi, (6, 4))
    vec = headings_V(speeds, batch, ref)
    for row, v in zip(batch, vec):
        assert v == pytest.approx(lyapunov_V(speeds, row, ref), abs=1e-14)
    assert np.all(vec >= 0.0)


# --------------------------------------------------------------------------
# equilibrium construction


def test_build_equilibrium_worked_case():
    spec = build_equilibrium([1, 2, 3], m=1, phi=0.0, ref_velocity=(0, 0))
    assert spec.err_magnitude == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert list(spec.anti_aligned) == [True, False, False]
    assert not spec.reflected
    np.testing.assert_allclose(spec.headings(), [math.pi, 0.0, 0.0], atol=1e-15)


def test_build_equilibrium_rejects_desired():
    with pytest.raises(EquilibriumRejected, match="desired"):
        build_equilibrium([1, 1, 1], m=0, phi=0.0, ref_velocity=(1.0, 0.0))


def test_build_equilibrium_reflects_m_equals_n():
    spec = build_equilibrium([1, 1], m=2, phi=0.0, ref_velocity=(0.5, 0.0))
    assert spec.err_magnitude == pytest.approx(1.5, abs=1e-12)
    assert spec.reflected
    assert spec.phi == pytest.approx(math.pi)
    assert spec.m_label == 2
    # the error now points along e^{i pi}; agents sit at the original phi + pi
    assert not spec.anti_aligned.any()
    np.testing.assert_allclose(spec.headings(), [math.pi, math.pi], atol=1e-15)


def test_build_equilibrium_rejects_non_critical():
    with pytest.raises(EquilibriumRejected, match="parallel"):
        build_equilibrium([1, 2], m=1, phi=0.0, ref_velocity=(0.0, 0.5))


def test_build_equilibrium_validates_inputs():
    with pytest.raises(ValueError, match="m must"):
        build_equilibrium([1, 2], m=3, phi=0.0, ref_velocity=(0, 0))
    with pytest.raises(ValueError, match="positive"):
        build_equilibrium([1, -2], m=1, phi=0.0, ref_velocity=(0, 0))


# --------------------------------------------------------------------------
# classification


def test_classify_worked_case_signs():
    spec = build_equilibrium([1, 2, 3], m=1, phi=0.0, ref_velocity=(0, 0))
    H = hessian(spec)
    # Rayleigh quotients pin the extreme eigenvalue signs
    assert H[0, 0] == pytest.approx(5.0 / 3.0, abs=1e-12)
    assert H[1, 1] == pytest.approx(-4.0 / 3.0, abs=1e-12)
    v = classify_equilibrium(spec)
    eig = v.eigenvalues
    assert eig[-1] >= 5.0 / 3.0 - 1e-9
    assert eig[0] <= -4.0 / 3.0 + 1e-9
    # zero reference: rotating every heading together leaves V unchanged, so
    # an exact zero eigenvalue (eigenvector = all-ones) is always present
    assert abs(eig[1]) <= v.zero_tolerance
    assert v.klass is EquilibriumClass.DEGENERATE
    assert v.has_descent_direction and v.has_ascent_direction
    assert v.m == 1


def test_classify_equal_speeds_eigenvalues():
    spec = build_equilibrium([1, 1, 1], m=1, phi=0.0, ref_velocity=(0, 0))
    v = classify_equilibrium(spec)
    np.testing.assert_allclose(sorted(v.eigenvalues), [-1.0 / 3.0, 0.0, 1.0], atol=1e-12)
    assert v.klass is EquilibriumClass.DEGENERATE
    assert v.has_descent_direction and v.has_ascent_direction


def test_classify_m0_and_mn_with_moving_reference():
    # m = 0: everyone aligned with the error direction
    spec = build_equilibrium([2, 3], m=0, phi=0.0, ref_velocity=(0.5, 0.0))
    v = classify_equilibrium(spec)
    assert v.klass is EquilibriumClass.UNSTABLE_M0
    assert v.has_descent_direction

    # m = n: everyone against the reference; reflected into an aligned spec
    spec = build_equilibrium([2, 3], m=2, phi=0.0, ref_velocity=(0.5, 0.0))
    v = classify_equilibrium(spec)
    assert v.klass is EquilibriumClass.UNSTABLE_MN
    assert v.has_descent_direction and not v.has_ascent_direction
    assert np.all(v.eigenvalues < 0.0)  # genuine local maximum


def test_classify_saddle_with_moving_reference():
    spec = build_equilibrium([1, 2, 3], m=1, phi=0.0, ref_velocity=(0.5, 0.0))
    v = classify_equilibrium(spec)
    assert v.klass is EquilibriumClass.SADDLE
    assert v.eigenvalues[0] < 0.0 < v.eigenvalues[-1]
    assert v.has_descent_direction and v.has_ascent_direction


def test_hessian_scaling_against_samples():
    # quadratic model check: V(th0 + e*d) - V0 ~ 0.5 e^2 d^T (H/n) d
    spec = build_equilibrium([1, 2, 3], m=1, phi=0.3, ref_velocity=(0, 0))
    H = hessian(spec)
    th0 = spec.headings()
    v0 = float(headings_V(spec.speeds, th0, spec.ref_velocity)[0])
    rng = np.random.default_rng(8)
    eps = 1e-4
    for _ in range(20):
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        v1 = float(headings_V(spec.speeds, th0 + eps * d, spec.ref_velocity)[0])
        quad = 0.5 * eps**2 * float(d @ H @ d) / spec.n
        assert v1 - v0 == pytest.approx(quad, abs=5e-12)


def test_oracle_on_known_shapes():
    saddle = build_equilibrium([1, 2, 3], m=1, phi=0.0, ref_velocity=(0.5, 0.0))
    rep = perturbation_oracle(saddle, epsilon=1e-3, samples=500, seed=1)
    assert rep.has_descent and rep.has_ascent

    peak = build_equilibrium([2, 3], m=2, phi=0.0, ref_velocity=(0.5, 0.0))
    rep = perturbation_oracle(peak, epsilon=1e-3, samples=500, seed=1)
    assert rep.has_descent and not rep.has_ascent


def test_oracle_is_deterministic_and_validates():
    spec = build_equilibrium([1, 2, 3], m=1, phi=0.0, ref_velocity=(0, 0))
    a = perturbation_oracle(spec, samples=200, seed=42)
    b = perturbation_oracle(spec, samples=200, seed=42)
    assert a == b
    with pytest.raises(ValueError, match="100"):
        perturbation_oracle(spec, samples=50)


def _detectable(eig):
    """Directions a random-sampling oracle has a fair chance of seeing.

    A lone eigenvalue that is tiny next to the opposing curvature mass moves V
    less than the bulk of random perturbations, so sampling can miss it even
    though the sign is mathematically robust. Gate each direction on its share
    of the total curvature.
    """
    pos_mass = float(eig[eig > 0].sum())
    neg_mass = float(-eig[eig < 0].sum())
    descent = eig[0] < 0 and (pos_mass == 0.0 or -eig[0] >= 0.08 * pos_mass)
    ascent = eig[-1] > 0 and (neg_mass == 0.0 or eig[-1] >= 0.08 * neg_mass)
    return descent, ascent


def draw_equilibrium_specs(seed, count):
    """Random realizable equilibrium specs whose verdicts the oracle can test.

    Speeds satisfy the simulator's own realizability gate (fastest vehicle no
    faster than the rest combined) and the reference stays below the slowest
    vehicle; the stability taxonomy is stated in that regime.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(2, 9))
        speeds = rng.uniform(1.0, 5.0, n)
        if speeds.max() > speeds.sum() - speeds.max():
            continue
        m = int(rng.integers(0, n + 1))
        v_ref = float(rng.uniform(0.0, 0.9) * speeds.min() * rng.choice([-1.0, 0.0, 1.0]))
        phi = float(rng.uniform(-math.pi, math.pi))
        ref = (v_ref * math.cos(phi), v_ref * math.sin(phi))
        try:
            spec = build_equilibrium(speeds, m, phi, ref)
        except EquilibriumRejected:
            continue
        verdict = classify_equilibrium(spec)
        descent_ok, ascent_ok = _detectable(verdict.eigenvalues)
        if verdict.klass is EquilibriumClass.SADDLE and not (descent_ok and ascent_ok):
            continue
        if verdict.klass in (EquilibriumClass.UNSTABLE_M0, EquilibriumClass.UNSTABLE_MN):
            if not descent_ok:
                continue
        if verdict.klass is EquilibriumClass.DEGENERATE:
            if verdict.has_descent_direction and not descent_ok:
                continue
            if verdict.has_ascent_direction and not ascent_ok:
                continue
        out.append((spec, verdict))
    return out


def assert_oracle_agreement(spec, verdict, seed):
    rep = perturbation_oracle(spec, epsilon=1e-3, samples=1500, seed=seed)
    if verdict.klass is EquilibriumClass.SADDLE:
        assert rep.has_descent and rep.has_ascent
    elif verdict.klass in (EquilibriumClass.UNSTABLE_M0, EquilibriumClass.UNSTABLE_MN):
        assert rep.has_descent
    else:
        if verdict.has_descent_direction:
            assert rep.has_descent
        if verdict.has_ascent_direction:
            assert rep.has_ascent


def test_classification_agrees_with_oracle_sampled():
    # smaller sibling of the acceptance-gate sweep
    for i, (spec, verdict) in enumerate(draw_equilibrium_specs(seed=17, count=50)):
        assert_oracle_agreement(spec, verdict, seed=i)


# --------------------------------------------------------------------------
# phase flow


def test_phase_flow_V_decreases():
    rng = np.random.default_rng(4)
    speeds = np.array([1.0, 2.0])
    th0 = rng.uniform(-math.pi, math.pi, (8, 2))
    vh, _ = simulate_phase_flow(speeds, (1.0, 0.0), gamma=0.5, headings0=th0, dt=0.01, n_steps=2000)
    assert np.all(np.diff(vh, axis=1) <= 1e-9)
    assert np.all(vh[:, -1] <= vh[:, 0])


def test_phase_flow_matches_engine_headings():
    from swarmtrack.controllers import ControllerGains
    from swarmtrack.engine import AgentInit, ConstantRef, ScenarioConfig, run

    headings0 = np.array([0.7, -1.9, 2.4])
    speeds = [2.0, 3.0, 4.0]
    gamma, dt, n_steps = 0.2, 0.01, 50
    config = ScenarioConfig(
        agents=tuple(
            AgentInit(position=(i * 10.0, 0.0), heading=h, speed=s)
            for i, (h, s) in enumerate(zip(headings0, speeds))
        ),
        gains=ControllerGains(gamma=gamma),
        reference_mode=ConstantRef(velocity=(1.0, 0.5)),
        duration=n_steps * dt,
        dt=dt,
    )
    log = run(config)
    _, th = simulate_phase_flow(speeds, (1.0, 0.5), gamma, headings0, dt, n_steps - 1)
    # engine wraps headings each step; compare on the circle
    d = np.exp(1j * log.theta[-1]) - np.exp(1j * th[0])
    assert np.max(np.abs(d)) <= 1e-12


# --------------------------------------------------------------------------
# derived metrics


def test_tracking_metrics_recompute_log_columns():
    from swarmtrack.controllers import ControllerGains
    from swarmtrack.engine import AgentInit, ScenarioConfig, TargetTracking, run
    from swarmtrack.reference import ConstantVelocityTarget, ConstantWeight

    config = ScenarioConfig(
        agents=(
            AgentInit(position=(0.0, 0.0), heading=0.3, speed=3.0),
            AgentInit(position=(10.0, 0.0), heading=-0.3, speed=3.0),
        ),
        gains=ControllerGains(gamma=0.1),
        reference_mode=TargetTracking(ConstantWeight(0.2)),
        target=ConstantVelocityTarget(initial_position=(20.0, 5.0), velocity=(1.0, 0.0)),
        duration=2.0,
        dt=0.01,
    )
    log = run(config)
    m = tracking_metrics(log)
    np.testing.assert_allclose(m["V"], log.V, atol=1e-12)
    np.testing.assert_allclose(m["alpha_norm"], log.alpha_norm, atol=1e-12)
    np.testing.assert_allclose(m["beta_norm"], log.beta_norm, atol=1e-12)
    np.testing.assert_allclose(m["dist_to_centroid"], log.dist_to_centroid, atol=1e-12)
    assert np.all((m["order_param_norm"] >= 0.0) & (m["order_param_norm"] <= 1.0 + 1e-12))
