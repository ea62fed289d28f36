"""Scalar reference formulas the tests check the array code against.

Each one is written per agent, straight from the control law or identity it
names, and shares no code path with `swarmtrack.controllers.control_terms`.
"""

import math

import numpy as np

from swarmtrack.dynamics import Snapshot


def random_snapshot(rng, n):
    return Snapshot(
        speeds=rng.uniform(0.5, 3.0, n),
        headings=rng.uniform(-math.pi, math.pi, n),
        positions=rng.uniform(-20.0, 20.0, (n, 2)),
    )


def scalar_product(a, b) -> float:
    """Real scalar product of two planar vectors.

    For polar inputs a = v_k e^{i th_k}, b = v_j e^{i th_j} this equals
    v_k * v_j * cos(th_j - th_k).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(a[0] * b[0] + a[1] * b[1])


def rotate90(a) -> np.ndarray:
    """Rotate a planar vector by +90 degrees (multiplication by i)."""
    a = np.asarray(a, dtype=float)
    return np.array([-a[1], a[0]])


def u_velocity(snapshot: Snapshot, k: int, ref_velocity, gamma: float) -> float:
    """Velocity-tracking heading rate for agent k (0-based index into the snapshot).

    u_k = -gamma * < rhat_dot - ref_velocity, i v_k e^{i th_k} >.
    """
    err = snapshot.centroid_velocity() - np.asarray(ref_velocity, dtype=float)
    v, th = snapshot.speeds[k], snapshot.headings[k]
    # <err, i v e^{i th}> = err_x * (-v sin th) + err_y * (v cos th)
    bracket = -err[0] * v * math.sin(th) + err[1] * v * math.cos(th)
    return -gamma * bracket


def u_velocity_real_form(snap, k, v_ref, th_ref, gamma):
    """Same law written out in sines of heading differences."""
    v, th = snap.speeds, snap.headings
    n = snap.n
    pair = sum(v[k] * v[j] * math.sin(th[j] - th[k]) for j in range(n))
    return -gamma / n * pair + gamma * v[k] * v_ref * math.sin(th_ref - th[k])


def u_spacing_beacon(position, heading, speed, ref_position, gains, beacon_velocity=None) -> float:
    """Beacon spacing law for one vehicle.

    u = -(omega0 + gamma * omega0 * <r_k - b_k, v_k e^{i th_k}>) with the
    beacon b_k = r_ref + (2 / (gamma v_k^2)) * beacon_velocity (b_k = r_ref
    when beacon_velocity is None).
    """
    rel = np.asarray(position, dtype=float) - np.asarray(ref_position, dtype=float)
    if beacon_velocity is not None:
        lead = (2.0 / gains.gamma) / (speed * speed)
        rel = rel - lead * np.asarray(beacon_velocity, dtype=float)
    velocity = (speed * math.cos(heading), speed * math.sin(heading))
    return -(gains.omega0 + gains.gamma * gains.omega0 * scalar_product(rel, velocity))
