"""Heading-rate control laws.

Three stacked terms per agent, each a pure function of a view of the group
(speeds, headings and positions as arrays) and the reference tuple
`(position, velocity, rhs, beacon_velocity)` built by
`reference.reference_signal`:

* a velocity-tracking term, the gradient flow of V = 0.5*||rhat_dot - ref||^2
  in the headings;
* a feedforward term h solving the 2 x n linear system A h = b that cancels
  the reference's time variation (turn rate and speed rate);
* a beacon spacing term pulling each vehicle onto a bounded orbit around the
  reference point, optionally projected into ker(A) so it provably does not
  disturb the velocity-error dynamics. When the reference point moves, the
  beacon is led along the point's steady velocity so that the orbits centre
  on the point instead of trailing it (see `beacon_lead`).

`control_terms` evaluates all three for every agent of a view at once.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class SpacingMode(enum.Enum):
    OFF = "off"
    BEACON = "beacon"
    BEACON_PROJECTED = "beacon_projected"


@dataclass(frozen=True)
class ControllerGains:
    """Gains shared by the control terms.

    gamma is the velocity-tracking gain and is reused inside the spacing law;
    omega0 is the beacon angular rate. u_max, when set, symmetrically clamps
    the total command (the decomposition is logged unclamped); a non-finite
    command stays non-finite. feedforward toggles the h term.
    """

    gamma: float
    omega0: float = 0.25
    spacing_mode: SpacingMode = SpacingMode.OFF
    u_max: float | None = None
    feedforward: bool = True

    def __post_init__(self):
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.omega0 <= 0.0:
            raise ValueError(f"omega0 must be positive, got {self.omega0}")
        if self.u_max is not None and self.u_max <= 0.0:
            raise ValueError("u_max must be positive when set")


def _A(vc: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """2 x n matrix with column k = (1/n) * i v_k e^{i th_k}, from the
    heading-vector components vc = v cos th and vs = v sin th.

    A maps stacked heading rates to the induced centroid acceleration, so the
    feedforward condition is A h = b.
    """
    return np.array([-vs, vc]) / len(vc)


def _gram_solve(A: np.ndarray, rhs):
    """Solve (A A^T) x = rhs (a 2-sequence) for the 2x2 Gram matrix; returns (x, smin, ok).

    Explicit 2x2 arithmetic: cheap, allocation-free, and exact to rounding.
    smin is the smaller singular value of A.
    """
    g11 = float(A[0] @ A[0])
    g12 = float(A[0] @ A[1])
    g22 = float(A[1] @ A[1])
    tr = g11 + g22
    det = g11 * g22 - g12 * g12
    # Eigenvalues of the Gram matrix are the squared singular values of A.
    disc = math.sqrt(max((g11 - g22) ** 2 + 4.0 * g12 * g12, 0.0))
    lam_min = 0.5 * (tr - disc)
    lam_max = 0.5 * (tr + disc)
    smin = math.sqrt(max(lam_min, 0.0))
    smax = math.sqrt(max(lam_max, 0.0))
    if smin <= 1e-8 * max(1.0, smax):
        return np.zeros(2), smin, False
    x = np.array(
        [
            (g22 * rhs[0] - g12 * rhs[1]) / det,
            (g11 * rhs[1] - g12 * rhs[0]) / det,
        ]
    )
    return x, smin, True


def beacon_lead(speeds, gamma: float):
    """Time lead 2 / (gamma v_k^2) of each vehicle's beacon, in seconds.

    The orbit centre of vehicle k under the beacon law is
    c_k = r_k - i (v_k / omega0) e^{i th_k}. Its velocity is
    -gamma v_k e^{i th_k} <r_k - b, v_k e^{i th_k}>. Averaged over one orbit
    that is c_k' = -(gamma v_k^2 / 2)(c_k - b). A beacon b moving at a constant
    velocity V is therefore trailed by 2 V / (gamma v_k^2). Placing the beacon
    that far ahead of the reference point along V centres the orbit on the
    reference point itself.
    """
    return (2.0 / gamma) / (speeds * speeds)


def project_spacing_to_kernel(u_spacing: np.ndarray, A: np.ndarray):
    """Project a spacing vector into ker(A): returns (projected, rank_ok).

    (I - A^T (A A^T)^{-1} A) u leaves the velocity-error dynamics untouched.
    With rank(A) < 2 the projector is ill-defined; the input is returned
    unchanged and flagged.
    """
    u_spacing = np.asarray(u_spacing, dtype=float)
    x, _, ok = _gram_solve(A, A @ u_spacing)
    if not ok:
        return u_spacing.copy(), False
    return u_spacing - A.T @ x, True


def control_terms(speeds, headings, positions, ref, gains: ControllerGains):
    """(u_vel, h, u_spc): the three control terms for every agent of a view, as arrays.

    speeds and headings are (n,) arrays and positions an (n, 2) array; ref is
    the tuple (position, velocity, rhs, beacon_velocity) of
    `reference.reference_signal`. The heading trig, the centroid velocity and
    A are computed once and shared. The total command is u_vel + h + u_spc.

    * u_vel_k = -gamma * < rhat_dot - ref_velocity, i v_k e^{i th_k} >, the
      gradient flow of V = 0.5 ||rhat_dot - ref_velocity||^2, which yields
      Vdot = -(gamma/n) * sum_k <.,.>^2 along the closed loop.
    * h is the minimum-2-norm solution A^T (A A^T)^{-1} b of A h = b, from
      the 2x2 normal equations. It is 0 when rhs is None (no turn and no speed
      change), when feedforward is off, and when the smaller singular value of
      A is below tolerance (headings aligned mod pi): such configurations are
      unstable equilibria the closed loop escapes on its own.
    * u_spc_k = -(omega0 + gamma * omega0 * <r_k - b_k, v_k e^{i th_k}>) with
      the beacon b_k = r_ref + beacon_lead(v_k, gamma) * beacon_velocity
      (b_k = r_ref when beacon_velocity is None). Alone it settles each
      vehicle onto a clockwise orbit of bounded radius about the reference
      point, also while the point moves at beacon_velocity. In
      BEACON_PROJECTED mode it is projected into ker(A).
    """
    ref_position, ref_velocity, rhs, beacon_velocity = ref
    n = len(speeds)
    c = np.cos(headings)
    s = np.sin(headings)
    vc = speeds * c
    vs = speeds * s
    ex = vc.sum() / n - ref_velocity[0]
    ey = vs.sum() / n - ref_velocity[1]
    u_vel = -gains.gamma * ((-ex * speeds) * s + (ey * speeds) * c)

    A = None
    h = None
    if gains.feedforward and rhs is not None:
        A = _A(vc, vs)
        x, _, ok = _gram_solve(A, rhs)
        if ok:
            h = A.T @ x
    if h is None:
        h = np.zeros(n)

    mode = gains.spacing_mode
    if mode is SpacingMode.OFF:
        u_spc = np.zeros(n)
    else:
        rel = positions - ref_position
        if beacon_velocity is not None:
            rel -= beacon_lead(speeds, gains.gamma)[:, None] * beacon_velocity
        inner = rel[:, 0] * vc + rel[:, 1] * vs
        u_spc = -(gains.omega0 + gains.gamma * gains.omega0 * inner)
        if mode is SpacingMode.BEACON_PROJECTED:
            u_spc, _ = project_spacing_to_kernel(u_spc, _A(vc, vs) if A is None else A)
    return u_vel, h, u_spc

