"""Feasibility gate, Lyapunov metrics, and equilibrium stability analysis.

The velocity-error potential V(theta) = 0.5*||rhat_dot - ref||^2 has, besides
the desired minima, a family of critical configurations where every heading is
aligned or anti-aligned with the velocity-error phase. These are built
explicitly, classified through the closed-form Hessian, and cross-checked by a
brute-force perturbation oracle.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import norm, wrap_angle

ZERO_EIG_REL_TOL = 1e-9


# --------------------------------------------------------------------------
# Feasibility (speed compatibility of the reference)


@dataclass(frozen=True)
class FeasibilityReport:
    """Both speed conditions for realizable centroid-velocity tracking.

    condition1: the slowest vehicle can keep up with the reference
    (v_min >= ref bound). condition2: the fastest vehicle cannot outrun the
    rest of the team combined (v_max <= sum of the others). `marginal` marks
    equality in either condition: feasible as written, but with no robustness
    margin.
    """

    v_min: float
    v_max: float
    sum_others: float
    ref_speed_bound: float
    condition1_ok: bool
    condition2_ok: bool
    feasible: bool
    marginal: bool


def check_feasibility(speeds, ref_speed_bound: float) -> FeasibilityReport:
    """Evaluate both feasibility conditions (non-strict, as inequalities)."""
    speeds = np.asarray(speeds, dtype=float)
    if speeds.ndim != 1 or len(speeds) < 1:
        raise ValueError("speeds must be a non-empty 1-D sequence")
    if np.any(speeds <= 0.0):
        raise ValueError(f"speeds must all be positive, got {speeds.tolist()}")
    if ref_speed_bound < 0.0:
        raise ValueError("ref_speed_bound must be non-negative")
    v_min = float(speeds.min())
    v_max = float(speeds.max())
    sum_others = float(speeds.sum() - v_max)
    c1 = v_min >= ref_speed_bound
    c2 = v_max <= sum_others
    marginal = (c1 and v_min == ref_speed_bound) or (c2 and v_max == sum_others)
    return FeasibilityReport(
        v_min=v_min,
        v_max=v_max,
        sum_others=sum_others,
        ref_speed_bound=float(ref_speed_bound),
        condition1_ok=c1,
        condition2_ok=c2,
        feasible=c1 and c2,
        marginal=marginal,
    )


# --------------------------------------------------------------------------
# Lyapunov metrics


def headings_V(speeds, headings, ref_velocity) -> np.ndarray:
    """Vectorized V over a batch of heading rows (batch, n)."""
    speeds = np.asarray(speeds, dtype=float)
    headings = np.atleast_2d(np.asarray(headings, dtype=float))
    ref = np.asarray(ref_velocity, dtype=float)
    ex = (speeds * np.cos(headings)).mean(axis=1) - ref[0]
    ey = (speeds * np.sin(headings)).mean(axis=1) - ref[1]
    return 0.5 * (ex * ex + ey * ey)


# --------------------------------------------------------------------------
# Equilibrium construction


class EquilibriumClass(enum.Enum):
    DESIRED_MINIMUM = "DesiredMinimum"
    UNSTABLE_M0 = "Unstable_m0"
    UNSTABLE_MN = "Unstable_mn"
    SADDLE = "Saddle"
    DEGENERATE = "Degenerate"


class EquilibriumRejected(ValueError):
    """Raised when the requested configuration is not an undesired critical point."""


@dataclass(frozen=True)
class EquilibriumSpec:
    """A critical configuration of V with nonzero velocity error.

    phi is the phase of the velocity error r_tilde = rhat_dot - ref (already
    reflected, when needed, so err_magnitude > 0 along e^{i phi});
    anti_aligned[k] is True for vehicles heading against the error phase
    (heading phi + pi). m_label preserves the caller's grouping convention for
    reporting; `reflected` records whether the phase had to be flipped.
    """

    speeds: np.ndarray
    anti_aligned: np.ndarray
    phi: float
    ref_velocity: np.ndarray
    err_magnitude: float
    m_label: int
    reflected: bool

    @property
    def n(self) -> int:
        return len(self.speeds)

    def headings(self) -> np.ndarray:
        """Vehicle headings, wrapped: phi + pi on the anti-aligned set, phi off it."""
        th = np.where(self.anti_aligned, self.phi + math.pi, self.phi)
        return np.array([wrap_angle(t) for t in th])


def build_equilibrium(speeds, m: int, phi: float, ref_velocity, tol: float = 1e-9) -> EquilibriumSpec:
    """Construct the critical configuration with the first m agents at phi + pi.

    The remaining agents take heading phi. Rejects (EquilibriumRejected) when
    the velocity error vanishes (that is a desired equilibrium) or when the
    reference velocity is not parallel to e^{i phi} (the configuration is not
    critical at all). When the error points at phi + pi the phase is reflected
    so the stored spec always has the error along e^{i phi}.
    """
    speeds = np.asarray(speeds, dtype=float)
    n = len(speeds)
    if np.any(speeds <= 0.0):
        raise ValueError("speeds must be positive")
    if not 0 <= m <= n:
        raise ValueError(f"m must lie in 0..{n}, got {m}")
    ref = np.asarray(ref_velocity, dtype=float)
    e_phi = np.array([math.cos(phi), math.sin(phi)])
    scale = 1.0 + norm(ref) + float(speeds.mean())
    # Criticality requires the reference parallel to the common axis.
    perp = -e_phi[1] * ref[0] + e_phi[0] * ref[1]
    if abs(perp) > tol * scale:
        raise EquilibriumRejected(
            "reference velocity is not parallel to the heading axis; configuration is not critical"
        )
    anti = np.zeros(n, dtype=bool)
    anti[:m] = True
    # Signed error component along e^{i phi}.
    s = float((np.where(anti, -speeds, speeds)).mean() - (e_phi @ ref))
    if abs(s) <= tol * scale:
        raise EquilibriumRejected("velocity error is zero: desired equilibrium, not classified here")
    reflected = s < 0.0
    if reflected:
        phi = wrap_angle(phi + math.pi)
        anti = ~anti
        s = -s
    return EquilibriumSpec(
        speeds=speeds,
        anti_aligned=anti,
        phi=wrap_angle(phi),
        ref_velocity=ref,
        err_magnitude=s,
        m_label=m,
        reflected=reflected,
    )


# --------------------------------------------------------------------------
# Hessian classification


@dataclass(frozen=True)
class StabilityVerdict:
    """Classification of one equilibrium.

    eigenvalues are sorted ascending. has_descent_direction /
    has_ascent_direction report eigenvalues strictly below/above the zero
    tolerance, and stay meaningful when the class is Degenerate.
    """

    klass: EquilibriumClass
    eigenvalues: np.ndarray
    m: int
    has_descent_direction: bool
    has_ascent_direction: bool
    zero_tolerance: float


def hessian(spec: EquilibriumSpec) -> np.ndarray:
    """Closed-form Hessian (1/n) v v^T + ||r_tilde|| diag(v) at the equilibrium.

    v is the signed speed vector: +v_k for the anti-aligned group, -v_k for
    the aligned group (signs taken against the actual error phase).
    """
    v = np.where(spec.anti_aligned, spec.speeds, -spec.speeds)
    return np.outer(v, v) / spec.n + spec.err_magnitude * np.diag(v)


def classify_equilibrium(spec: EquilibriumSpec) -> StabilityVerdict:
    """Classify via the eigenvalues of the closed-form Hessian.

    The nominal class follows the grouping label (m = 0 and m = n are the
    all-aligned and all-anti-aligned unstable cases, anything mixed is a
    saddle); any eigenvalue within ZERO_EIG_REL_TOL of zero (relative to the
    largest magnitude) overrides the class to Degenerate, with the descent /
    ascent flags still reporting the robust directions.
    """
    eig = np.linalg.eigvalsh(hessian(spec))
    tol = ZERO_EIG_REL_TOL * float(np.abs(eig).max()) if np.abs(eig).max() > 0 else 0.0
    degenerate = bool(np.any(np.abs(eig) <= tol))
    if degenerate:
        klass = EquilibriumClass.DEGENERATE
    elif spec.m_label == 0:
        klass = EquilibriumClass.UNSTABLE_M0
    elif spec.m_label == spec.n:
        klass = EquilibriumClass.UNSTABLE_MN
    else:
        klass = EquilibriumClass.SADDLE
    return StabilityVerdict(
        klass=klass,
        eigenvalues=eig,
        m=spec.m_label,
        has_descent_direction=bool(eig[0] < -tol),
        has_ascent_direction=bool(eig[-1] > tol),
        zero_tolerance=tol,
    )


@dataclass(frozen=True)
class OracleReport:
    has_descent: bool
    has_ascent: bool
    decreased: int
    increased: int
    samples: int


def perturbation_oracle(
    spec: EquilibriumSpec, epsilon: float = 1e-3, samples: int = 200, seed: int = 0
) -> OracleReport:
    """Brute-force check of the classification: sample V around the equilibrium.

    Evaluates V at `samples` random heading perturbations of norm epsilon and
    reports how many values fell strictly below / above V(equilibrium).
    Deterministic for a fixed seed.
    """
    if samples < 100:
        raise ValueError("use at least 100 samples for a meaningful oracle")
    rng = np.random.default_rng(seed)
    th0 = spec.headings()
    v0 = float(headings_V(spec.speeds, th0, spec.ref_velocity)[0])
    d = rng.standard_normal((samples, spec.n))
    d *= epsilon / np.linalg.norm(d, axis=1, keepdims=True)
    v = headings_V(spec.speeds, th0 + d, spec.ref_velocity)
    decreased = int(np.sum(v < v0))
    increased = int(np.sum(v > v0))
    return OracleReport(
        has_descent=decreased > 0,
        has_ascent=increased > 0,
        decreased=decreased,
        increased=increased,
        samples=samples,
    )


# --------------------------------------------------------------------------
# Batched constant-reference heading flow


def simulate_phase_flow(speeds, ref_velocity, gamma, headings0, dt, n_steps):
    """Integrate the closed-loop heading dynamics for a batch of initial conditions.

    Under a constant reference with spacing off, positions never feed back
    into the controls, so the whole closed loop is the heading system
    thdot_k = -gamma * <rhat_dot - ref, i v_k e^{i th_k}>. The engine holds
    each command over a step (zero-order hold), making its per-step heading
    update exactly th + u(th)*dt; this routine applies the same update to a
    (batch, n) block of heading rows at once, which is how large convergence
    studies stay fast.

    Returns (V_history of shape (batch, n_steps+1), final headings).
    """
    v = np.asarray(speeds, dtype=float)
    ref = np.asarray(ref_velocity, dtype=float)
    th = np.atleast_2d(np.asarray(headings0, dtype=float)).copy()
    batch, n = th.shape
    vh = np.empty((batch, n_steps + 1))
    for i in range(n_steps):
        c = np.cos(th)
        s = np.sin(th)
        ex = (v * c).mean(axis=1) - ref[0]
        ey = (v * s).mean(axis=1) - ref[1]
        vh[:, i] = 0.5 * (ex * ex + ey * ey)
        u = -gamma * (ex[:, None] * (-v * s) + ey[:, None] * (v * c))
        th = th + dt * u
    c = np.cos(th)
    s = np.sin(th)
    ex = (v * c).mean(axis=1) - ref[0]
    ey = (v * s).mean(axis=1) - ref[1]
    vh[:, n_steps] = 0.5 * (ex * ex + ey * ey)
    return vh, th
