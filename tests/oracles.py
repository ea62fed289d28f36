"""Scalar reference formulas the tests check the array code against.

Each one is written per agent, straight from the control law or identity it
names, and shares no code path with `swarmtrack.controllers.control_terms`.
`build_A` and `tracking_metrics` are the matrix and the log columns written
out from their definitions, `kernel_projection` is the projector into ker(A)
by the pseudo-inverse, and `wrap_angle` is the angle reduction by
`math.remainder` that `swarmtrack.dynamics.wrap_angles` must equal bit for bit.
`ScalarNetwork` is the broadcast network message by message, which
`swarmtrack.netsim.BroadcastNetwork` must equal after every step.
`write_trajectory_csv_whole` is the trajectory file as one `np.savetxt` of
the whole log, which `swarmtrack.cli.write_trajectory_csv` must equal byte for
byte.
"""

import heapq
import math

import numpy as np

from swarmtrack import cli
from swarmtrack.netsim import SALT_JITTER, SALT_LOSS, TARGET_ID, BroadcastNetwork, counter_uniform


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


def wrap_angle(theta: float) -> float:
    """theta reduced to (-pi, pi] by IEEE remainder, exact for every finite float.

    math.remainder is exact and lands in [-pi, pi]; -pi moves to +pi exactly.
    """
    r = math.remainder(theta, 2.0 * math.pi)
    if r <= -math.pi:
        r += 2.0 * math.pi
    return r


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


def kernel_projection(u, A) -> np.ndarray:
    """u projected into ker(A) as u - pinv(A) A u; u unchanged when rank(A) < 2.

    With rank(A) < 2 the controller's projector is undefined and its spacing
    term passes through unprojected.
    """
    u = np.asarray(u, dtype=float)
    if np.linalg.matrix_rank(A) < 2:
        return u.copy()
    return u - np.linalg.pinv(A) @ (A @ u)


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


def write_trajectory_csv_whole(log, path):
    """The trajectory file from one float64 stack of every column of the log,
    the counters converted first, formatted by a single np.savetxt."""
    columns = [c.astype(float) for c in cli._log_columns(log).values()]
    speeds = " ".join(cli._FLOAT_FMT % v for v in log.speeds)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# speeds = {speeds}\n# dt = {cli._FLOAT_FMT % log.dt}\n# seed = {log.seed}\n")
        np.savetxt(fh, np.column_stack(columns), fmt=cli._FLOAT_FMT, delimiter=",",
                   header=",".join(cli.csv_columns(log.n)), comments="")


class ScalarNetwork(BroadcastNetwork):
    """The broadcast network one message and one receiver at a time.

    It keeps its own send schedule (`_next_send`, phase + seq * period per
    source) and emits every instant that has passed at each `advance`. Every
    (sender, seq, receiver) triple takes its own scalar loss and jitter draws,
    in-flight deliveries sit on a heap of (arrival, sender, seq, receiver,
    message) tuples and pop in that order through `deliver`, the reference
    store rule, and `initialize` makes one `deliver` call per pair. Only the
    phases and the received-state arrays are shared with `BroadcastNetwork`.
    """

    def __init__(self, config, n_agents, seed, dt, steps):
        super().__init__(config, n_agents, seed, dt, steps)
        self._next_send = self.phase.copy()
        self.in_flight = []

    def deliver(self, receiver: int, sender: int, arrival: float, position, velocity, heading=None):
        """Store a delivery unless a newer arrival is held; `heading` defaults to velocity's."""
        if arrival >= self.recv_t[receiver - 1, sender]:
            if heading is None:
                heading = math.atan2(velocity[1], velocity[0])
            self._received[receiver - 1, sender] = (*position, *velocity, heading, arrival)

    @property
    def pending(self):
        """The in-flight (arrival, sender, seq, receiver) tuples, sorted."""
        return sorted(entry[:4] for entry in self.in_flight)

    def initialize(self, positions, velocities, target_pos, target_vel):
        for receiver in range(1, self.n + 1):
            for sender in range(1, self.n + 1):
                if sender != receiver:
                    self.deliver(receiver, sender, 0.0,
                                 positions[sender - 1], velocities[sender - 1])
            if target_pos is not None:
                self.deliver(receiver, TARGET_ID, 0.0, target_pos, target_vel)

    def _send(self, sender, seq, stamp, position, velocity):
        cfg, seed = self.config, self.seed
        vx, vy = float(velocity[0]), float(velocity[1])
        msg = ((float(position[0]), float(position[1])), (vx, vy), math.atan2(vy, vx))
        self.stats.sent += 1
        for receiver in range(1, self.n + 1):
            if receiver == sender:
                continue
            self.stats.pair_decisions += 1
            if counter_uniform(seed, SALT_LOSS, sender, seq, receiver) < cfg.loss_probability:
                self.stats.dropped += 1
                continue
            self.stats.delivered += 1
            delay = cfg.delay
            if cfg.jitter > 0.0:
                delay += cfg.jitter * counter_uniform(seed, SALT_JITTER, sender, seq, receiver)
            heapq.heappush(self.in_flight, (stamp + delay, sender, seq, receiver, msg))

    def advance(self, t_new, positions, velocities, target_pos, target_vel):
        next_send = self._next_send
        due = np.flatnonzero(next_send < t_new)
        while due.size:
            for s in due.tolist():
                seq = int(self.seq[s])
                self.seq[s] = seq + 1
                next_send[s] = self.phase[s] + (seq + 1) * self.period[s]
                if s != TARGET_ID:
                    self._send(s, seq, t_new, positions[s - 1], velocities[s - 1])
                elif target_pos is not None:
                    self._send(s, seq, t_new, target_pos, target_vel)
            due = np.flatnonzero(next_send < t_new)
        in_flight = self.in_flight
        while in_flight and in_flight[0][0] <= t_new:
            arrival, sender, _, receiver, (position, velocity, heading) = heapq.heappop(in_flight)
            self.deliver(receiver, sender, arrival, position, velocity, heading)
