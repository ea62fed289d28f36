"""Planar vector helpers, the controller's snapshot view, and the fixed-step integrator.

Positions and velocities live in the plane and are treated as real 2-vectors;
where the math is naturally complex (headings as phases e^{i theta}), the
complex operations are spelled out on (x, y) components so no complex dtype is
needed anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi


def vec2(x: float, y: float) -> np.ndarray:
    """Build a planar vector as a float64 array of shape (2,)."""
    return np.array([float(x), float(y)])


def norm(a) -> float:
    a = np.asarray(a, dtype=float)
    return float(math.hypot(a[0], a[1]))


def wrap_angle(theta: float) -> float:
    """Normalize an angle to (-pi, pi].

    Angles already in range are returned bit-exactly (the reduction is the
    identity for |theta| <= pi up to the half-open boundary convention).
    """
    r = math.remainder(theta, TWO_PI)
    if r <= -math.pi:
        r += TWO_PI
    return r


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """Vectorized wrap_angle; same (-pi, pi] convention."""
    theta = np.asarray(theta, dtype=float)
    r = theta - TWO_PI * np.round(theta / TWO_PI)
    r = np.where(r <= -math.pi, r + TWO_PI, r)
    return r


@dataclass(frozen=True)
class Snapshot:
    """What a controller sees: one (speed, heading, position) row per agent.

    In ground-truth mode this is the exact swarm state; in networked mode it is
    assembled from an agent's neighbor table and entries may be stale (flagged
    in `stale`). Controllers only ever read this view, so they are indifferent
    to where it came from.
    """

    speeds: np.ndarray
    headings: np.ndarray
    positions: np.ndarray
    stale: np.ndarray = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "speeds", np.asarray(self.speeds, dtype=float))
        object.__setattr__(self, "headings", np.asarray(self.headings, dtype=float))
        object.__setattr__(self, "positions", np.asarray(self.positions, dtype=float))
        if self.stale is None:
            object.__setattr__(self, "stale", np.zeros(len(self.speeds), dtype=bool))

    @property
    def n(self) -> int:
        return len(self.speeds)

    def heading_vectors(self) -> np.ndarray:
        """(n, 2) array of v_k e^{i th_k}."""
        return (self.speeds * np.array([np.cos(self.headings), np.sin(self.headings)])).T

    # sum / n is bit-identical to ndarray.mean (which sums, then divides)
    # without its per-call overhead; these run once per agent per step.
    def centroid(self) -> np.ndarray:
        return self.positions.sum(axis=0) / self.n

    def centroid_velocity(self) -> np.ndarray:
        """Average linear momentum (1/n) sum_k v_k e^{i th_k}."""
        n = self.n
        return np.array(
            [
                (self.speeds * np.cos(self.headings)).sum() / n,
                (self.speeds * np.sin(self.headings)).sum() / n,
            ]
        )


def rk4_unicycle_arrays(x, y, th, speeds, u, dt):
    """One classical 4th-order step of the unicycle kinematics, arrays in/out.

    Controls are held constant over the step (zero-order hold), so the heading
    stage values at the two midpoints coincide and the position update reduces
    to Simpson's rule along the commanded arc; the heading update is exact.
    """
    th_mid = th + (0.5 * dt) * u
    th_end = th + dt * u
    k1x = speeds * np.cos(th)
    k1y = speeds * np.sin(th)
    k2x = speeds * np.cos(th_mid)  # == k3 under held controls
    k2y = speeds * np.sin(th_mid)
    k4x = speeds * np.cos(th_end)
    k4y = speeds * np.sin(th_end)
    sixth = dt / 6.0
    x_new = x + sixth * (k1x + 4.0 * k2x + k4x)
    y_new = y + sixth * (k1y + 4.0 * k2y + k4y)
    return x_new, y_new, wrap_angles(th_end)
