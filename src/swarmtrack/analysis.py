"""Feasibility gate, Lyapunov metrics, and equilibrium stability analysis.

The velocity-error potential V(theta) = 0.5*||rhat_dot - ref||^2 has, besides
the desired minima, a family of critical configurations where every heading is
aligned or anti-aligned with the velocity-error phase. These are built
explicitly, classified through the closed-form Hessian, and cross-checked by a
brute-force perturbation oracle.
"""

from __future__ import annotations

import contextlib
import contextvars
import enum
import math
import os
import queue
import threading
from dataclasses import dataclass

import numpy as np

from .dynamics import norm, wrap_angles

ZERO_EIG_REL_TOL = 1e-9
CRITICAL_REL_TOL = 1e-9  # build_equilibrium's zero, relative to 1 + |ref| + mean speed


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


def _speed_set(speeds) -> np.ndarray:
    """The speeds as a float array, refused unless non-empty 1-D, finite and positive."""
    speeds = np.asarray(speeds, dtype=float)
    if speeds.ndim != 1 or len(speeds) < 1:
        raise ValueError("speeds must be a non-empty 1-D sequence")
    if not np.isfinite(speeds).all():
        raise ValueError(f"speeds must all be finite, got {speeds.tolist()}")
    if np.any(speeds <= 0.0):
        raise ValueError(f"speeds must all be positive, got {speeds.tolist()}")
    return speeds


def check_feasibility(speeds, ref_speed_bound: float) -> FeasibilityReport:
    """Evaluate both feasibility conditions (non-strict, as inequalities)."""
    speeds = _speed_set(speeds)
    if not math.isfinite(ref_speed_bound):
        raise ValueError(f"ref_speed_bound must be finite, got {ref_speed_bound}")
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
        return wrap_angles(np.where(self.anti_aligned, self.phi + math.pi, self.phi))


def build_equilibrium(speeds, m: int, phi: float, ref_velocity) -> EquilibriumSpec:
    """Construct the critical configuration with the first m agents at phi + pi.

    The remaining agents take heading phi. Rejects (EquilibriumRejected) when
    the velocity error vanishes (that is a desired equilibrium) or when the
    reference velocity is not parallel to e^{i phi} (the configuration is not
    critical at all). When the error points at phi + pi the phase is reflected
    so the stored spec always has the error along e^{i phi}.
    """
    speeds = _speed_set(speeds)
    ref = np.asarray(ref_velocity, dtype=float)
    n = len(speeds)
    if not (math.isfinite(phi) and np.isfinite(ref).all()):
        raise ValueError(f"phi and ref must be finite, got {phi}, {ref.tolist()}")
    if not 0 <= m <= n:
        raise ValueError(f"m must lie in 0..{n}, got {m}")
    e_phi = np.array([math.cos(phi), math.sin(phi)])
    scale = 1.0 + norm(ref) + float(speeds.mean())
    # Criticality requires the reference parallel to the common axis.
    perp = -e_phi[1] * ref[0] + e_phi[0] * ref[1]
    if abs(perp) > CRITICAL_REL_TOL * scale:
        raise EquilibriumRejected(
            "reference velocity is not parallel to the heading axis; configuration is not critical"
        )
    anti = np.zeros(n, dtype=bool)
    anti[:m] = True
    # Signed error component along e^{i phi}.
    s = float((np.where(anti, -speeds, speeds)).mean() - (e_phi @ ref))
    if abs(s) <= CRITICAL_REL_TOL * scale:
        raise EquilibriumRejected("velocity error is zero: desired equilibrium, not classified here")
    reflected = s < 0.0
    if reflected:
        phi = wrap_angles(phi + math.pi)
        anti = ~anti
        s = -s
    return EquilibriumSpec(
        speeds=speeds,
        anti_aligned=anti,
        phi=wrap_angles(phi),
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
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
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

    headings0 is (batch, n), or one row of n; speeds has one entry per
    column. The loop runs on an (n, batch) vehicle-major copy, one contiguous
    row per vehicle, and takes the centroid velocity as the sequential sum
    ((v_1 e^{i th_1} + v_2 e^{i th_2}) + ...) / n. For n <= 7 that is the
    order of the engine's 1-D `vc.sum()`, so the headings follow `engine.run`
    bit for bit; for n >= 8 numpy sums a 1-D array in pairwise blocks and the
    two differ in the last bits. Each row's results are the same whatever
    batch it runs in.

    A step writes into arrays allocated once. When a step holds at least
    FLOW_THREAD_HEADINGS headings and the process may use two CPUs, one helper
    thread computes each step's cos half while the caller computes its sin
    half; everything else stays on the caller, in the same order, so the bits
    are those of the one-thread loop.

    Returns (V_history, final headings), C-contiguous arrays of shape
    (batch, n_steps+1) and (batch, n).
    """
    v = np.asarray(speeds, dtype=float)
    ref = np.asarray(ref_velocity, dtype=float)
    rows = np.atleast_2d(np.asarray(headings0, dtype=float))
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"speeds must be a non-empty 1-D sequence, got shape {v.shape}")
    if rows.ndim != 2 or rows.shape[1] != v.size:
        raise ValueError(f"headings0 must have one column per speed: {v.size} speeds, "
                         f"headings0 of shape {rows.shape}")
    if isinstance(n_steps, bool) or not isinstance(n_steps, (int, np.integer)) or n_steps < 0:
        raise ValueError(f"n_steps must be an int >= 0, got {n_steps!r}")
    # numpy reduces an (n, 1) array as a 1-D one, in pairwise blocks from n = 8:
    # a lone row runs as two copies, so that it is summed as it is in a batch
    th = rows.T.repeat(2, 1) if len(rows) == 1 else rows.T.copy()
    n, vcol = v.size, v[:, None]
    vh = np.empty((th.shape[1], n_steps + 1))
    vc, vs, tmp, tmp2 = (np.empty_like(th) for _ in range(4))
    ex, ey, sq, sq2 = np.empty((4, th.shape[1]))

    def cos_half():
        np.cos(th, out=vc)
        np.multiply(vcol, vc, out=vc)

    with _helper_thread(cos_half, th.size) as (start_cos, finish_cos):
        for i in range(n_steps + 1):
            start_cos()
            np.sin(th, out=vs)
            np.multiply(vcol, vs, out=vs)
            finish_cos()
            np.add.reduce(vc, axis=0, out=ex)
            np.divide(ex, n, out=ex)
            np.subtract(ex, ref[0], out=ex)
            np.add.reduce(vs, axis=0, out=ey)
            np.divide(ey, n, out=ey)
            np.subtract(ey, ref[1], out=ey)
            np.multiply(ex, ex, out=sq)
            np.multiply(ey, ey, out=sq2)
            np.add(sq, sq2, out=sq)
            np.multiply(0.5, sq, out=vh[:, i])
            if i < n_steps:  # th + dt * (-gamma * (ex * -vs + ey * vc))
                np.negative(vs, out=tmp)
                np.multiply(ex, tmp, out=tmp)
                np.multiply(ey, vc, out=tmp2)
                np.add(tmp, tmp2, out=tmp)
                np.multiply(-gamma, tmp, out=tmp)
                np.multiply(dt, tmp, out=tmp)
                np.add(th, tmp, out=th)
    return vh[:len(rows)], th.T[:len(rows)].copy()


# Headings a step's (n, batch) arrays must hold before `simulate_phase_flow`
# moves its cos half to a helper thread. Each step hands off once, which costs
# more than the trig it moves below about 3,500 headings: on a 2-vCPU host the
# thread lost at 3,300 (92 -> 99 us a step) and won at 4,200 (129 -> 118 us).
FLOW_THREAD_HEADINGS = 4096


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@contextlib.contextmanager
def _helper_thread(work, headings: int):
    """Yield (start, finish) for one step's `work`: start hands it off, finish
    waits for it. A large step with two usable CPUs runs it on one helper
    thread, meanwhile the caller does its own half; otherwise start runs it
    inline and finish does nothing.

    The helper runs in a copy of the caller's context, so under the caller's
    `np.errstate`. An exception it raises is handed back and re-raised by
    finish, and the helper is stopped and joined however the block ends.
    """
    if headings < FLOW_THREAD_HEADINGS or _usable_cpus() < 2:
        yield work, lambda: None
        return
    go, done = queue.SimpleQueue(), queue.SimpleQueue()

    def serve():
        try:
            while go.get():
                work()
                done.put(None)
        except BaseException as exc:  # handed to the caller, which re-raises it
            done.put(exc)

    def finish():
        exc = done.get()
        if exc is not None:
            raise exc

    helper = threading.Thread(target=contextvars.copy_context().run, args=(serve,))
    helper.start()
    try:
        yield lambda: go.put(True), finish
    finally:
        go.put(False)
        helper.join()
