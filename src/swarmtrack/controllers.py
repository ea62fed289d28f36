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

`control_terms` evaluates all three for every agent of a view at once, with
one solve of the 2 x 2 Gram system A A^T for both h and the projection. It
takes a leading batch axis for B views at once (`BatchGains`,
`reference.stack_signals`): one view solves the 2 x 2 system in Python floats,
a batch solves all its views as arrays.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

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
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if not 0.0 < self.omega0 < math.inf:
            raise ValueError(f"omega0 must be positive and finite, got {self.omega0}")
        if self.u_max is not None and not self.u_max > 0.0:  # inf clamps nothing
            raise ValueError(f"u_max must be positive when set, got {self.u_max}")


class BatchGains(NamedTuple):
    """The gains of a batch of views, one row per view, as `control_terms` reads
    them: gamma and omega0 as (B, 1) columns and feedforward as a (B,) flag.
    Every row shares the spacing mode."""

    gamma: np.ndarray
    omega0: np.ndarray
    spacing_mode: SpacingMode
    feedforward: np.ndarray

    @classmethod
    def of(cls, gains) -> "BatchGains":
        """The rows of a sequence of ControllerGains; ValueError if their spacing modes differ."""
        modes = {g.spacing_mode for g in gains}
        if len(modes) != 1:
            raise ValueError("a batch shares one spacing mode, "
                             f"got {sorted(m.value for m in modes)}")
        return cls(np.array([[g.gamma] for g in gains]), np.array([[g.omega0] for g in gains]),
                   modes.pop(), np.array([g.feedforward for g in gains]))


# det / tr^2 of A A^T is (smin smax)^2 / (smin^2 + smax^2)^2, about (smin / smax)^2
# for A's singular values smin <= smax. Rounding leaves a rank-1 A below 2e-16
# (random views, n <= 192); the rule refuses smin / smax below about 1e-6, far above.
_RANK_TOL = 1e-12


def _gram_solve(A: np.ndarray, *rhs):
    """One x per 2-sequence r in rhs solving (A A^T) x = r, or None if rank(A) < 2,
    that is if det <= _RANK_TOL * tr^2 for A A^T. The Gram entries are formed
    once for every r, in explicit, allocation-free 2x2 arithmetic.
    """
    g11 = float(A[0] @ A[0])
    g12 = float(A[0] @ A[1])
    g22 = float(A[1] @ A[1])
    tr = g11 + g22
    det = g11 * g22 - g12 * g12
    if det <= _RANK_TOL * tr * tr:
        return None
    return [np.array([(g22 * r[0] - g12 * r[1]) / det, (g11 * r[1] - g12 * r[0]) / det])
            for r in rhs]


def _gram_solve_rows(A: np.ndarray, *rhs):
    """`_gram_solve` for a stack of B views, A of shape (2, B, n) and each r of
    shape (B, 2): (the (B,) mask of rows of rank 2 by the same rule, one (B, 2)
    x per r). The x rows of a view below rank 2 are finite and meaningless.

    The entries come from batched matmuls, the forms that give the same bits
    as the BLAS dot products of the one-view solve.
    """
    a0, a1 = A[0][:, None, :], A[1][:, None, :]
    g11 = (a0 @ A[0][:, :, None])[:, 0, 0]
    g12 = (a0 @ A[1][:, :, None])[:, 0, 0]
    g22 = (a1 @ A[1][:, :, None])[:, 0, 0]
    tr = g11 + g22
    det = g11 * g22 - g12 * g12
    ok = ~(det <= _RANK_TOL * tr * tr)  # as the one-view test: a NaN det is solved
    det = np.where(ok, det, 1.0)
    return ok, [np.stack(((g22 * r[:, 0] - g12 * r[:, 1]) / det,
                          (g11 * r[:, 1] - g12 * r[:, 0]) / det), axis=1) for r in rhs]


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


def control_terms(speeds, headings, positions, ref, gains):
    """(u_vel, h, u_spc): the three control terms for every agent of a view, as arrays.

    speeds and headings are (n,) arrays and positions an (n, 2) array; ref is
    the tuple (position, velocity, rhs, beacon_velocity) of
    `reference.reference_signal`. The heading trig, the centroid velocity and
    A are computed once and shared, and one Gram solve of A A^T serves both h
    and the projection. The total command is u_vel + h + u_spc.

    A batch of B views takes a leading axis: (B, n) speeds and headings,
    (B, n, 2) positions, the `reference.stack_signals` tuple of the B
    references and the `BatchGains` of the B views, and gives (B, n) terms,
    each row equal bit for bit to its view's own call. The formulas below are
    written once over that axis. Only the 2 x 2 Gram solve picks its form
    from the shape: one view solves in Python floats, which costs half as
    much as the array form on a lone view, and a batch solves every view at
    once as arrays.

    * u_vel_k = -gamma * < rhat_dot - ref_velocity, i v_k e^{i th_k} >, the
      gradient flow of V = 0.5 ||rhat_dot - ref_velocity||^2, which yields
      Vdot = -(gamma/n) * sum_k <.,.>^2 along the closed loop.
    * h is the minimum-2-norm solution A^T (A A^T)^{-1} b of A h = b, from
      the 2x2 normal equations. It is 0 when rhs is None (no turn and no speed
      change), when feedforward is off, and when the Gram solve refuses A as
      below rank 2 (det <= 1e-12 tr^2 of A A^T, smin/smax under about 1e-6:
      headings aligned mod pi, or nearly): such configurations are unstable
      equilibria the closed loop escapes on its own.
    * u_spc_k = -(omega0 + gamma * omega0 * <r_k - b_k, v_k e^{i th_k}>) with
      the beacon b_k = r_ref + beacon_lead(v_k, gamma) * beacon_velocity
      (b_k = r_ref when beacon_velocity is None). Alone it settles each
      vehicle onto a clockwise orbit of bounded radius about the reference
      point, also while the point moves at beacon_velocity. BEACON_PROJECTED
      mode projects it into ker(A); where the solve refuses A it stays as is.
    """
    ref_position, ref_velocity, rhs, beacon_velocity = ref[:4]
    gamma, omega0, mode = gains.gamma, gains.omega0, gains.spacing_mode
    batch = speeds.ndim > 1
    if batch:  # each view's reference entries as columns against its (n,) row
        ref_position = ref_position[:, None]
        ref_velocity = ref_velocity.T[..., None]
        if beacon_velocity is not None:
            beacon_velocity = beacon_velocity[:, None]
    n = speeds.shape[-1]
    c = np.cos(headings)
    s = np.sin(headings)
    vc = speeds * c
    vs = speeds * s
    ref_vx, ref_vy = ref_velocity
    ex = vc.sum(axis=-1, keepdims=batch) / n - ref_vx
    ey = vs.sum(axis=-1, keepdims=batch) / n - ref_vy
    u_vel = -gamma * ((-ex * speeds) * s + (ey * speeds) * c)

    if mode is SpacingMode.OFF:
        u_spc = np.zeros(speeds.shape)
    else:
        rel = positions - ref_position
        if beacon_velocity is not None:
            rel -= beacon_lead(speeds, gamma)[..., None] * beacon_velocity
        inner = rel[..., 0] * vc + rel[..., 1] * vs
        u_spc = -(omega0 + gamma * omega0 * inner)

    # One Gram solve serves both right-hand sides: the feedforward rhs and A u_spc.
    projected = mode is SpacingMode.BEACON_PROJECTED
    if not batch:
        rhs_ff = [rhs] if gains.feedforward and rhs is not None else []
        h = None
        if rhs_ff or projected:
            A = np.array([-vs, vc]) / n
            x = _gram_solve(A, *rhs_ff, A @ u_spc) if projected else _gram_solve(A, *rhs_ff)
            if x is not None:
                if rhs_ff:
                    h = A.T @ x[0]
                if projected:
                    u_spc = u_spc - A.T @ x[-1]
        return u_vel, np.zeros(n) if h is None else h, u_spc

    ff = gains.feedforward & ref[4] if rhs is not None else np.zeros(len(speeds), bool)
    h = np.zeros(speeds.shape)
    if ff.any() or projected:
        A = np.array([-vs, vc]) / n  # (2, B, n)
        At = A.transpose(1, 2, 0)
        rhs_ff = [rhs] if ff.any() else []
        if projected:
            rhs_ff.append((A.transpose(1, 0, 2) @ u_spc[:, :, None])[:, :, 0])
        ok, x = _gram_solve_rows(A, *rhs_ff)
        if ff.any():
            h = np.where((ok & ff)[:, None], (At @ x[0][:, :, None])[:, :, 0], 0.0)
        if projected:
            u_spc = np.where(ok[:, None], u_spc - (At @ x[-1][:, :, None])[:, :, 0], u_spc)
    return u_vel, h, u_spc
