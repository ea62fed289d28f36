"""Planar vector helpers, the exact angle wrap, and the fixed-step integrator.

Positions and velocities live in the plane and are treated as real 2-vectors;
where the math is naturally complex (headings as phases e^{i theta}), the
complex operations are spelled out on (x, y) components so no complex dtype is
needed anywhere.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def vec2(x: float, y: float) -> np.ndarray:
    """Build a planar vector as a float64 array of shape (2,)."""
    return np.array([float(x), float(y)])


def finite_pair(value, what: str) -> np.ndarray:
    """value as a float64 (x, y) array; ValueError naming `what` unless it is two finite numbers."""
    a = np.asarray(value, dtype=float)
    if a.shape != (2,) or not np.isfinite(a).all():
        raise ValueError(f"{what} must be a finite (x, y) pair, got {value!r}")
    return a


def require_finite(obj, *names: str) -> None:
    """ValueError naming the first of obj's attributes `names` that is not a finite number."""
    for name in names:
        if not math.isfinite(getattr(obj, name)):
            raise ValueError(f"{type(obj).__name__} {name} must be finite, got {getattr(obj, name)}")


def norm(a) -> float:
    a = np.asarray(a, dtype=float)
    return float(math.hypot(a[0], a[1]))


def wrap_angles(theta):
    """theta wrapped exactly to (-pi, pi]; a finite float (returned as one) or an array.

    np.fmod is exact, and so is its one step of TWO_PI into range (Sterbenz's lemma):
    this is the float in (-pi, pi] congruent to theta mod TWO_PI, a zero keeping its sign.
    """
    r = np.fmod(theta, TWO_PI)
    return np.where(r > math.pi, r - TWO_PI, np.where(r <= -math.pi, r + TWO_PI, r))[()]


def rk4_unicycle_arrays(x, y, th, speeds, u, dt, k1=None):
    """One classical 4th-order step of the unicycle kinematics, arrays in/out.

    Controls are held constant over the step (zero-order hold), so the heading
    stage values at the two midpoints coincide and the position update reduces
    to Simpson's rule along the commanded arc; the heading update is exact.
    k1 is the first stage (speeds * cos(th), speeds * sin(th)) when the caller
    already has it.
    """
    th_mid = th + (0.5 * dt) * u
    th_end = th + dt * u
    k1x, k1y = (speeds * np.cos(th), speeds * np.sin(th)) if k1 is None else k1
    k2x = speeds * np.cos(th_mid)  # == k3 under held controls
    k2y = speeds * np.sin(th_mid)
    k4x = speeds * np.cos(th_end)
    k4y = speeds * np.sin(th_end)
    sixth = dt / 6.0
    x_new = x + sixth * (k1x + 4.0 * k2x + k4x)
    y_new = y + sixth * (k1y + 4.0 * k2y + k4y)
    return x_new, y_new, wrap_angles(th_end)
