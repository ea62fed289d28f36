"""Output checks computed apart from the program.

Every check takes plain arrays (a "record": a dict in the `RunLog` field
names, built from a `RunLog` or from a trajectory.csv) and returns a list of
failure messages, empty when the output is right. None of them calls the
simulator's own formulas: the arc, the control law, V and the network counts
are recomputed here from the logged state.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np

# Per-agent trajectory.csv columns and the RunLog field each one images.
AGENT_COLUMNS = (
    ("x", "x"), ("y", "y"), ("theta", "theta"), ("u_vel", "u_vel"), ("u_ff", "u_h"),
    ("u_spc", "u_spc"), ("u_tot", "u_total"), ("dist", "dist_to_centroid"),
)
# Shared columns: RunLog field -> the csv columns it is spread over.
SHARED_COLUMNS = (
    ("centroid", ("centroid_x", "centroid_y")),
    ("centroid_vel", ("centroid_vx", "centroid_vy")),
    ("ref_pos", ("ref_x", "ref_y")),
    ("ref_vel", ("ref_vx", "ref_vy")),
    ("target_pos", ("target_x", "target_y")),
    ("target_vel", ("target_vx", "target_vy")),
    ("V", ("V",)),
    ("beta_norm", ("beta_norm",)),
    ("alpha_norm", ("alpha_norm",)),
    ("net_sent", ("net_sent",)),
    ("net_decisions", ("net_decisions",)),
    ("net_delivered", ("net_delivered",)),
    ("net_dropped", ("net_dropped",)),
    ("stale_count", ("stale_count",)),
)
ARRAY_FIELDS = ("t",) + tuple(f for _, f in AGENT_COLUMNS) + tuple(f for f, _ in SHARED_COLUMNS)

# Headings that differ by no more than this are the same heading.
ANGLE_TOL = 1e-12
# Slack on top of the Simpson remainder in the arc check, in metres.
POSITION_TOL = 1e-9
# Width of the delivered-share band, in binomial standard deviations.
BAND_SIGMAS = 4.0
# A heading-flow row has converged once V is below this.
CONVERGED_V = 1e-6
# Rows per block when V is checked for rises, so the check adds little memory.
FLOW_CHUNK = 256
# Largest difference in error speed |e| = sqrt(2 V) between the batched flow
# and the step-by-step loop, in m/s.
FLOW_SPEED_TOL = 1e-9


def record_from_log(log) -> dict:
    """The arrays of a RunLog, plus speeds and dt, as a record."""
    rec = {name: np.asarray(getattr(log, name)) for name in ARRAY_FIELDS}
    rec["speeds"] = np.asarray(log.speeds, dtype=float)
    rec["dt"] = float(log.dt)
    return rec


def record_from_columns(cols: dict, meta: dict) -> dict:
    """A record rebuilt from trajectory.csv columns and its '#' header lines."""
    n = 0
    while f"x{n + 1}" in cols:
        n += 1
    rec = {"t": cols["t"]}
    for col, name in AGENT_COLUMNS:
        rec[name] = np.column_stack([cols[f"{col}{k}"] for k in range(1, n + 1)])
    for name, parts in SHARED_COLUMNS:
        rec[name] = cols[parts[0]] if len(parts) == 1 else np.column_stack([cols[p] for p in parts])
    rec["speeds"] = np.array([float(v) for v in meta["speeds"].split()])
    rec["dt"] = float(meta["dt"])
    return rec


def fingerprint(arrays) -> str:
    """SHA-256 over (name, dtype, shape, bytes) of each array, in the order given."""
    h = hashlib.sha256()
    for name, a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{name}:{a.dtype.str}:{a.shape};".encode())
        h.update(memoryview(a).cast("B"))
    return h.hexdigest()


def log_fingerprint(log) -> str:
    """Fingerprint of every array field of a RunLog, in dataclass field order."""
    arrays = [
        (f.name, getattr(log, f.name)) for f in dataclasses.fields(log)
        if isinstance(getattr(log, f.name), np.ndarray)
    ]
    arrays.append(("dt_seed", np.array([log.dt, float(log.seed)])))
    return fingerprint(arrays)


# --------------------------------------------------------------------------
# Kinematics


def kinematics(rec: dict) -> list[str]:
    """Each logged step follows the exact zero-order-hold arc.

    From (x, y, theta) at step m with the command u_total held for dt, a
    vehicle at speed v moves along a circular arc: its chord has length
    2 v sin(u dt / 2) / u and points along theta + u dt / 2. The simulator
    integrates with RK4, whose position update on this arc is Simpson's rule;
    its error is at most v dt^5 u^4 / 2880, so the tolerance is that bound
    plus POSITION_TOL. Headings must stay in (-pi, pi] and advance by exactly
    u dt (mod 2 pi); the speed implied by each chord must be the logged one.
    """
    fails = []
    x, y, th, u = rec["x"], rec["y"], rec["theta"], rec["u_total"]
    v, dt = rec["speeds"], rec["dt"]
    if not (np.all(th > -math.pi) and np.all(th <= math.pi)):
        fails.append(f"heading outside (-pi, pi]: range [{th.min()!r}, {th.max()!r}]")
    if len(x) < 2:
        return fails
    du = u[:-1] * dt
    shrink = np.sinc(du / (2.0 * math.pi))  # sin(du/2) / (du/2), 1 at du = 0
    chord = v * dt * shrink
    mid = th[:-1] + 0.5 * du
    err = np.hypot(x[:-1] + chord * np.cos(mid) - x[1:], y[:-1] + chord * np.sin(mid) - y[1:])
    bound = v * dt**5 * u[:-1] ** 4 / 2880.0 + POSITION_TOL
    worst = np.argmax(err - bound)
    if err.flat[worst] > bound.flat[worst]:
        m, k = np.unravel_index(worst, err.shape)
        fails.append(f"position off the arc by {err[m, k]:.3e} m at step {m + 1}, vehicle {k + 1}")
    dth = np.remainder(th[:-1] + du - th[1:] + math.pi, 2.0 * math.pi) - math.pi
    if np.abs(dth).max() > ANGLE_TOL:
        m, k = np.unravel_index(np.argmax(np.abs(dth)), dth.shape)
        fails.append(f"heading off by {dth[m, k]:.3e} rad at step {m + 1}, vehicle {k + 1}")
    implied = np.hypot(np.diff(x, axis=0), np.diff(y, axis=0)) / (dt * shrink)
    if np.abs(implied - v).max() > 2.0 * (bound.max() / dt):
        k = int(np.argmax(np.abs(implied - v).max(axis=0)))
        fails.append(f"speed of vehicle {k + 1} not constant: implied "
                     f"[{implied[:, k].min()!r}, {implied[:, k].max()!r}] vs {v[k]!r}")
    return fails


# --------------------------------------------------------------------------
# Network counters


def network(rec: dict, agent_rate: float, target_rate: float, loss: float) -> list[str]:
    """Broadcast bookkeeping of a networked run.

    Each (message, receiver) decision is either a delivery or a drop. Every
    source sends once per period, so after time T the sent count is within
    one message per source (n + 1) of sum(rate) * T. The delivered share is
    binomial with probability 1 - loss and must lie in a BAND_SIGMAS band.
    Row m holds the counters after the traffic of [0, m dt).
    """
    fails = []
    sent, dec = rec["net_sent"], rec["net_decisions"]
    deli, drop = rec["net_delivered"], rec["net_dropped"]
    if not np.array_equal(deli + drop, dec):
        m = int(np.argmax(deli + drop != dec))
        fails.append(f"delivered + dropped != decisions at row {m}: "
                     f"{deli[m]} + {drop[m]} vs {dec[m]}")
    n = rec["x"].shape[1]
    horizon = (len(rec["t"]) - 1) * rec["dt"]
    expected = (n * agent_rate + target_rate) * horizon
    if abs(float(sent[-1]) - expected) > n + 1:
        fails.append(f"sent {sent[-1]} messages, expected {expected:.1f} +- {n + 1}")
    decisions, delivered = float(dec[-1]), float(deli[-1])
    p = 1.0 - loss
    sigma = math.sqrt(decisions * p * (1.0 - p))
    if decisions <= 0 or abs(delivered - p * decisions) > BAND_SIGMAS * sigma:
        fails.append(f"delivered {delivered:.0f} of {decisions:.0f}: outside "
                     f"{p:g} +- {BAND_SIGMAS:g} sigma ({sigma:.1f})")
    return fails


# --------------------------------------------------------------------------
# Control law and Lyapunov function


def _velocity_error(rec: dict):
    v, th = rec["speeds"], rec["theta"]
    ex = (v * np.cos(th)).mean(axis=1) - rec["ref_vel"][:, 0]
    ey = (v * np.sin(th)).mean(axis=1) - rec["ref_vel"][:, 1]
    return ex, ey


def lyapunov(rec: dict) -> list[str]:
    """V = |(1/n) sum_k v_k e^{i theta_k} - ref_vel|^2 / 2 at every row."""
    ex, ey = _velocity_error(rec)
    V = 0.5 * (ex * ex + ey * ey)
    err = np.abs(V - rec["V"])
    tol = 1e-12 * np.maximum(1.0, np.abs(V))
    if np.any(err > tol):
        m = int(np.argmax(err - tol))
        return [f"V recomputed {V[m]!r} vs logged {rec['V'][m]!r} at row {m}"]
    return []


def velocity_law(rec: dict, gamma: float) -> list[str]:
    """u_vel_k = -gamma <e, i v_k e^{i theta_k}> with e the velocity error (ground truth)."""
    ex, ey = _velocity_error(rec)
    v, th = rec["speeds"], rec["theta"]
    u = -gamma * (-ex[:, None] * v * np.sin(th) + ey[:, None] * v * np.cos(th))
    err = np.abs(u - rec["u_vel"])
    tol = 1e-12 * np.maximum(1.0, np.abs(u))
    if np.any(err > tol):
        m, k = np.unravel_index(np.argmax(err - tol), err.shape)
        return [f"u_vel recomputed {u[m, k]!r} vs logged {rec['u_vel'][m, k]!r} "
                f"at row {m}, vehicle {k + 1}"]
    return []


# --------------------------------------------------------------------------
# Tracking (the field replay)


def tracking(rec: dict, after: float, worst_bound: float, contain_bound: float) -> list[str]:
    """Centroid-to-target distance and spread, from positions alone, for t >= after."""
    tail = rec["t"] >= after
    x, y = rec["x"][tail], rec["y"][tail]
    cx, cy = x.mean(axis=1), y.mean(axis=1)
    worst = float(np.hypot(cx - rec["target_pos"][tail, 0], cy - rec["target_pos"][tail, 1]).max())
    contain = float(np.hypot(x - cx[:, None], y - cy[:, None]).max())
    fails = []
    if not worst < worst_bound:
        fails.append(f"worst centroid-target distance {worst:.2f} m >= {worst_bound:g} m")
    if not contain < contain_bound:
        fails.append(f"containment {contain:.2f} m >= {contain_bound:g} m")
    return fails


# --------------------------------------------------------------------------
# Artifacts


def csv_matches(rec: dict, cols: dict, meta: dict) -> list[str]:
    """trajectory.csv holds every logged value bit for bit."""
    back = record_from_columns(cols, meta)
    fails = []
    for name in ARRAY_FIELDS:
        a = np.asarray(rec[name], dtype=float)
        if a.shape != back[name].shape or not np.array_equal(a, back[name], equal_nan=True):
            fails.append(f"trajectory.csv column(s) for {name} differ from the log")
    if not np.array_equal(rec["speeds"], back["speeds"]) or rec["dt"] != back["dt"]:
        fails.append("trajectory.csv header speeds/dt differ from the log")
    return fails


# --------------------------------------------------------------------------
# Heading flow (the convergence study)


def heading_flow_reference(speeds, ref, gamma, headings0, dt, n_steps):
    """The closed-loop heading flow, written out step by step: V history per row.

    theta_k <- theta_k + dt * (-gamma) * <e, i v_k e^{i theta_k}>, with
    e = (1/n) sum_k v_k e^{i theta_k} - ref and V = |e|^2 / 2.
    """
    v = np.asarray(speeds, dtype=float)
    th = np.array(headings0, dtype=float, ndmin=2)
    out = np.empty((th.shape[0], n_steps + 1))
    for i in range(n_steps + 1):
        ex = (v * np.cos(th)).sum(axis=1) / v.size - ref[0]
        ey = (v * np.sin(th)).sum(axis=1) / v.size - ref[1]
        out[:, i] = 0.5 * (ex * ex + ey * ey)
        if i < n_steps:
            inner = -ex[:, None] * v * np.sin(th) + ey[:, None] * v * np.cos(th)
            th = th - dt * gamma * inner
    return out


def heading_flow(V, speeds) -> list[str]:
    """V never increases along a row (beyond rounding) and every row reaches
    V < CONVERGED_V.

    Rounding noise in V is about (eps * max speed)^2; increases smaller than a
    few hundred times that are not counted.
    """
    slack = (16.0 * np.finfo(float).eps * float(np.max(speeds))) ** 2
    fails = []
    for lo in range(0, V.shape[0], FLOW_CHUNK):
        block = V[lo:lo + FLOW_CHUNK]
        rise = block[:, 1:] - block[:, :-1]
        if rise.max() > slack:
            r, i = np.unravel_index(np.argmax(rise), rise.shape)
            fails.append(f"V rises by {rise[r, i]:.3e} at row {lo + r}, step {i + 1}")
            break
    reached = (V < CONVERGED_V).any(axis=1)
    if not reached.all():
        fails.append(f"{int((~reached).sum())} of {V.shape[0]} rows never reach "
                     f"V < {CONVERGED_V:g}")
    return fails


def rows_match(V, V_ref, rows) -> list[str]:
    """Selected rows of V follow the step-by-step heading flow.

    The two differ only in the order of rounding, which moves the headings by
    about eps and the error speed |e| = sqrt(2 V) by about eps * max speed, so
    |e| is compared within FLOW_SPEED_TOL.
    """
    err = np.abs(np.sqrt(2.0 * V[rows]) - np.sqrt(2.0 * V_ref))
    if err.max() > FLOW_SPEED_TOL:
        r, i = np.unravel_index(np.argmax(err), err.shape)
        return [f"row {rows[r]} step {i}: V {V[rows[r], i]!r} vs step-by-step {V_ref[r, i]!r}"]
    return []
