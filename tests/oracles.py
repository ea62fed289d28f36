"""Scalar reference formulas the tests check the array code against.

Each one is written per agent, straight from the control law or identity it
names, and shares no code path with `swarmtrack.controllers.control_terms`.
`build_A` and `tracking_metrics` are the matrix and the log columns written
out from their definitions.
"""

import math

import numpy as np


def random_view(rng, n):
    """A random view of n vehicles: (speeds, headings, positions) arrays."""
    return (
        rng.uniform(0.5, 3.0, n),
        rng.uniform(-math.pi, math.pi, n),
        rng.uniform(-20.0, 20.0, (n, 2)),
    )


def centroid_velocity(speeds, headings) -> np.ndarray:
    """Average linear momentum (1/n) sum_k v_k e^{i th_k}.

    Summed as `control_terms` sums it, so the laws below agree with it bit
    for bit where a test asks for that.
    """
    speeds = np.asarray(speeds, dtype=float)
    headings = np.asarray(headings, dtype=float)
    n = len(speeds)
    return np.array([(speeds * np.cos(headings)).sum() / n, (speeds * np.sin(headings)).sum() / n])


def lyapunov_V(speeds, headings, ref_velocity) -> float:
    """V = 0.5 * ||centroid velocity - reference velocity||^2 for one heading row."""
    err = centroid_velocity(speeds, headings) - np.asarray(ref_velocity, dtype=float)
    return 0.5 * float(err @ err)


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


def u_velocity(speeds, headings, k: int, ref_velocity, gamma: float) -> float:
    """Velocity-tracking heading rate for agent k (0-based index into the view).

    u_k = -gamma * < rhat_dot - ref_velocity, i v_k e^{i th_k} >.
    """
    err = centroid_velocity(speeds, headings) - np.asarray(ref_velocity, dtype=float)
    v, th = speeds[k], headings[k]
    # <err, i v e^{i th}> = err_x * (-v sin th) + err_y * (v cos th)
    bracket = -err[0] * v * math.sin(th) + err[1] * v * math.cos(th)
    return -gamma * bracket


def u_velocity_real_form(speeds, headings, k, v_ref, th_ref, gamma):
    """Same law written out in sines of heading differences."""
    v, th = speeds, headings
    n = len(speeds)
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


def build_A(speeds, headings) -> np.ndarray:
    """2 x n matrix with column k = (1/n) * i v_k e^{i th_k}.

    A maps stacked heading rates to the induced centroid acceleration, so the
    feedforward condition is A h = b.
    """
    speeds = np.asarray(speeds, dtype=float)
    headings = np.asarray(headings, dtype=float)
    return np.array([-speeds * np.sin(headings), speeds * np.cos(headings)]) / len(speeds)


def tracking_metrics(log) -> dict:
    """Recompute the headline time series from a run log's state columns.

    Everything is derived from the per-agent states and the logged
    reference/target columns, independently of the engine's own bookkeeping
    columns, so this doubles as a consistency check on the log.
    """
    cx = log.x.mean(axis=1)
    cy = log.y.mean(axis=1)
    cvx = (log.speeds * np.cos(log.theta)).mean(axis=1)
    cvy = (log.speeds * np.sin(log.theta)).mean(axis=1)
    alpha = np.hypot(cvx - log.ref_vel[:, 0], cvy - log.ref_vel[:, 1])
    beta = np.hypot(cx - log.target_pos[:, 0], cy - log.target_pos[:, 1])
    dists = np.hypot(log.x - cx[:, None], log.y - cy[:, None])
    order = np.hypot(np.cos(log.theta).mean(axis=1), np.sin(log.theta).mean(axis=1))
    return {
        "t": log.t,
        "V": 0.5 * alpha**2,
        "alpha_norm": alpha,
        "beta_norm": beta,
        "dist_to_centroid": dists,
        "order_param_norm": order,
    }
