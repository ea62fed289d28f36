"""Simulated lossy broadcast network.

All agents (and the target) broadcast position/velocity at fixed rates; every
receiver independently loses each message with a configured probability, and
survivors arrive after an optional (possibly jittered) delay. Each agent keeps
the last-received state of every sender (one row of the network's arrays) and
computes its controls from that row, reproducing the decentralized information
structure of a real swarm: agents may briefly disagree about where everyone is.

All randomness is counter-based: every draw is a pure hash of (seed, purpose,
sender, sequence, receiver), so a run is bit-reproducible from its seed, and
every send, loss, arrival and overwrite is known before the run: the network
plans them a window of steps ahead, and only message states come from the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MASK = (1 << 64) - 1

# Draw purposes (salts). Disturbance shares the RNG but lives in the engine.
SALT_PHASE = 0x5048
SALT_LOSS = 0x4C4F
SALT_JITTER = 0x4A49
SALT_DISTURB = 0x4453

TARGET_ID = 0

# Loss draws, (message, receiver) cells, a window of the plan holds on average (as many
# mean steps as fit); a network whose mean step needs more is refused. The plan's memory
# grows with it; 192 vehicles at 10 Hz and dt = 0.02 need 7,392 draws a step.
PLAN_DRAWS = 8192
_IN_FLIGHT = np.dtype([("arrival", float), ("sender", int), ("seq", int), ("receiver", int)])


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def counter_uniform(seed: int, *ids: int) -> float:
    """Deterministic uniform draw in [0, 1) keyed by (seed, ids...).

    The seed and any ids may be uint64 arrays: the draws are then an array of
    their broadcast shape, each equal to the call with those elements as
    Python ints. An int64 array raises OverflowError on numpy 2.4: the 64-bit mask
    does not fit in int64.
    """
    state = _splitmix64(seed & _MASK)
    for v in ids:
        state = _splitmix64(state ^ (v & _MASK))
    return state / 2.0**64


@dataclass(frozen=True)
class NetworkConfig:
    """Broadcast model parameters.

    loss_probability applies per (message, receiver). delay is a fixed latency
    and jitter adds a uniform [0, jitter) extra per (message, receiver).
    staleness_budget (when set) flags received entries older than the budget.
    extrapolate enables dead reckoning between receptions (default off: pure
    last-received semantics). The draws are keyed by the run's seed.
    """

    agent_rate: float = 10.0
    target_rate: float = 5.0
    loss_probability: float = 0.0
    delay: float = 0.0
    jitter: float = 0.0
    extrapolate: bool = False
    staleness_budget: float | None = None

    def __post_init__(self):
        if not (0.0 < self.agent_rate < math.inf and 0.0 < self.target_rate < math.inf):
            raise ValueError("broadcast rates must be positive and finite")
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError("loss_probability must lie in [0, 1)")
        if not (0.0 <= self.delay < math.inf and 0.0 <= self.jitter < math.inf):
            raise ValueError("delay and jitter must be non-negative and finite")
        if self.staleness_budget is not None and not self.staleness_budget > 0.0:
            raise ValueError("staleness_budget must be positive")

    def bandwidth_bits_per_s(self) -> float:
        """Per-agent payload rate: four 32-bit floats per message."""
        return 4 * 32 * self.agent_rate


@dataclass
class NetworkStats:
    sent: int = 0
    pair_decisions: int = 0
    delivered: int = 0
    dropped: int = 0


def _last_rows(group, arrival):
    """Each group's last row in (arrival, seq) order; rows sorted by group (>= 0), then seq."""
    last = np.flatnonzero(np.diff(group, append=-1))
    if len(last) == len(group):  # a row a group
        return last
    head = np.flatnonzero(np.diff(group, prepend=-1))
    latest = np.repeat(np.maximum.reduceat(arrival, head), np.diff(head, append=len(group)))
    best = np.flatnonzero(arrival == latest)
    return best[np.diff(group[best], append=-1) != 0]


class BroadcastNetwork:
    """Stateful broadcast medium plus every agent's last-received state.

    Source s (0 is the target, 1..n the agents) sends at the instants
    phase[s] + j * period[s], j = 0, 1, ...; its phase is drawn once from the
    seed inside one period, and seq[s] counts the instants already passed,
    which makes it both the schedule and the message sequence number.

    What agent k last received from sender s is row k - 1, column s of `pos`
    and `vel` (n, n+1, 2), the heading of that velocity `heading` and the
    arrival time `recv_t` (n, n+1; -inf while nothing has arrived): four views
    of one (n, n+1, 6) array. Column 0 is the target; an agent's own column
    stays empty.

    The network runs on the grid t_m = m * dt, m < steps: the engine
    initializes it from step 0's state and advances it to every later grid
    time. An instant goes out at the first grid time after it, and a delivery
    applies at the first grid time at or after its arrival. A plan holds, for a
    window of steps, each message's step and the delivery each step keeps per
    (receiver, sender) pair; it is the only writer of the received-state
    arrays after `initialize`, and each delivery it applies is newer than
    every one before it. The target has a state at every step or at none: the
    first `initialize` or `advance` fixes which, and an untargeted network's
    target instants count in `seq` but reach no receiver.
    """

    def __init__(self, config: NetworkConfig, n_agents: int, seed: int, dt: float, steps: int):
        self.config, self.n, self.seed, self.dt, self.steps = config, n_agents, seed, dt, steps
        rate = np.full(n_agents + 1, config.agent_rate)
        rate[TARGET_ID] = config.target_rate
        self.phase = counter_uniform(seed, SALT_PHASE, np.arange(len(rate), dtype=np.uint64)) / rate
        self.period = 1.0 / rate
        draws = n_agents * dt * rate.sum()  # loss draws of a mean step
        if draws > PLAN_DRAWS:
            raise MemoryError(f"cannot plan the broadcast traffic: {draws / n_agents:.3g} messages "
                              f"a step to {n_agents} agents need more than {PLAN_DRAWS} loss draws")
        self._window = int(min(steps, PLAN_DRAWS / draws))  # steps a plan spans
        self._lag = math.ceil((config.delay + config.jitter) / dt) + 2  # past any arrival's step
        self.seq = np.zeros(n_agents + 1, dtype=np.int64)
        self._received = np.zeros((n_agents, n_agents + 1, 6))
        self.pos, self.vel = self._received[..., 0:2], self._received[..., 2:4]
        self.heading, self.recv_t = self._received[..., 4], self._received[..., 5]
        self.recv_t[...] = -math.inf
        self.stats = NetworkStats()
        self._step = 0  # the grid step the network is at
        self._targeted = None  # whether the target has a state, fixed by the first call
        self._planned = np.zeros(n_agents + 1, dtype=np.int64)  # instants planned, per source
        # The plan. Messages: sender, seq, receivers reached, states; deliveries in
        # order: apply step, flat (receiver, sender) pair, message, arrival; `_kept`:
        # the kept ones' positions; `_at`: each step's first message, delivery and
        # kept delivery.
        self._sender = self._seq = self._reach = np.empty(0, dtype=int)
        self._state = np.empty((0, 6))
        self._due = self._pair = self._msg = self._arrival = self._seq
        self._start, self._end = 1, 1  # the window is steps start..end - 1
        self._at = np.zeros((1, 3), dtype=np.int64)

    def _fix_target(self, target_pos):
        """Refuse a call whose target presence differs from the first call's."""
        targeted = target_pos is not None
        if self._targeted not in (None, targeted):
            raise ValueError("the target must have a state at every step of the network or at none")
        self._targeted = targeted

    def initialize(self, positions, velocities, target_pos, target_vel):
        """Give every agent everyone's true state at t = 0; target_pos None means no target."""
        self._fix_target(target_pos)
        rows, cols = np.nonzero(~np.eye(self.n, dtype=bool))  # every (receiver, other agent) pair
        headings = [math.atan2(vy, vx) for vx, vy in np.asarray(velocities, dtype=float).tolist()]
        states = np.column_stack((positions, velocities, headings, np.zeros(self.n)))
        self._received[rows, cols + 1] = states[cols]
        if target_pos is not None:
            heading = math.atan2(target_vel[1], target_vel[0])
            self._received[:, TARGET_ID] = (*target_pos, *target_vel, heading, 0.0)

    def advance(self, t_new: float, positions, velocities, target_pos, target_vel):
        """Send the messages planned for t_new, the next grid time, then apply its deliveries.

        Messages carry the state at t_new; a source above 1/dt sends more than
        once in a step, and an untargeted network's target instants go unsent.
        Of the arrivals due by t_new, each (receiver, sender) pair keeps the last
        in (arrival, seq) order. Raises ValueError for a time off the grid, or a
        target present where the first call had none or absent where it had one.
        """
        m = self._step + 1
        if not (m < self.steps and t_new == m * self.dt):
            raise ValueError(f"t = {t_new!r} is not the next time of the network's grid "
                             f"({self.steps} steps of {self.dt!r} s, at step {m - 1})")
        self._fix_target(target_pos)
        self._step = m
        if m == self._end:
            self._plan(m)
        (e0, r0, k0), (e1, r1, k1) = self._at[m - self._start:][:2].tolist()
        if e0 < e1:
            self._emit(e0, e1, positions, velocities, target_pos, target_vel)
        if k0 < k1:
            self._apply(k0, k1)

    def _emit(self, e0, e1, positions, velocities, target_pos, target_vel):
        """Write and count the states of messages e0..e1; a missing target's go unsent."""
        stats, states = self.stats, []
        positions = [target_pos] + np.asarray(positions, dtype=float).tolist()  # by source
        velocities = [target_vel] + np.asarray(velocities, dtype=float).tolist()
        messages = zip(*(a[e0:e1].tolist() for a in (self._sender, self._seq, self._reach)))
        for s, seq, reach in messages:
            self.seq[s] = seq + 1
            if positions[s] is None:  # an untargeted network's target: no receivers
                states.append((0.0,) * 5)
                continue
            (px, py), (vx, vy) = positions[s], velocities[s]
            states.append((px, py, vx, vy, math.atan2(vy, vx)))
            decisions = self.n - (s != TARGET_ID)
            stats.sent += 1
            stats.pair_decisions += decisions
            stats.delivered += reach
            stats.dropped += decisions - reach
        self._state[e0:e1, :5] = states

    def _apply(self, k0, k1):
        """Apply the step's kept deliveries, each newer than any its pair holds."""
        kept = self._kept[k0:k1]
        update = np.take(self._state, self._msg[kept], axis=0)
        update[:, 5] = self._arrival[kept]
        self._received.reshape(-1, 6)[self._pair[kept]] = update

    def _plan(self, m0):
        """Plan the window from step m0: its messages, their deliveries and those still to apply."""
        n, cfg, origin, m1 = self.n, self.config, m0 - 1, min(self.steps, m0 + self._window)
        # Grid times from step m0 - 1 to past the latest arrival of the window's messages.
        grid = np.arange(origin, min(self.steps, m1 + self._lag)) * self.dt
        # Each source's instants from its first unplanned one to one past the
        # last before grid time m1 - 1; those sent before step m1 are the window's.
        first, end = self._planned, grid[m1 - m0]
        count = np.maximum(np.ceil((end - self.phase) / self.period).astype(int) + 1 - first, 0)
        sender = np.repeat(np.arange(n + 1), count)
        seq = np.arange(count.sum()) + np.repeat(first + count - np.cumsum(count), count)
        step = origin + grid.searchsorted(self.phase[sender] + seq * self.period[sender], "right")
        sent = np.flatnonzero(step < m1)
        sent = np.sort(step[sent] * len(step) + sent) % len(step)  # by (step, sender, seq)
        sender, seq, step = sender[sent], seq[sent], step[sent]
        self._planned = first + np.bincount(sender, minlength=n + 1)

        # The loss draw and the jitter draw span the (message, receiver) grid; an
        # untargeted network's target messages reach no receiver.
        receivers = np.arange(1, n + 1, dtype=np.uint64)
        ids = (sender.astype(np.uint64)[:, None], seq.astype(np.uint64)[:, None], receivers)
        survives = counter_uniform(self.seed, SALT_LOSS, *ids) >= cfg.loss_probability
        heard = (receivers != ids[0]) & ((sender != TARGET_ID) | self._targeted)[:, None]
        msg, col = np.nonzero(heard & survives)
        delay = cfg.delay
        if cfg.jitter > 0.0:
            delay = cfg.delay + cfg.jitter * counter_uniform(self.seed, SALT_JITTER, *ids)[msg, col]
        arrival = grid[step[msg] - origin] + delay

        # The deliveries still to apply come first, each as a message of its own.
        carried = np.arange(self._at[-1, 1], len(self._due))
        old, c = self._msg[carried], len(carried)
        reach = np.bincount(msg, minlength=len(seq))
        prior = self._sender, self._seq, self._reach
        self._sender, self._seq, self._reach = (
            np.concatenate((a[old], b)) for a, b in zip(prior, (sender, seq, reach)))
        self._state = np.concatenate((self._state[old], np.empty((len(seq), 6))))

        # Order the deliveries by (due, pair), a pair's rows staying in seq order as
        # they come, and keep each (due, pair)'s last row in (arrival, seq) order.
        due = np.concatenate((self._due[carried], origin + grid.searchsorted(arrival, "left")))
        pair = np.concatenate((self._pair[carried], col * (n + 1) + sender[msg]))
        rows = len(due)
        key = np.sort(((due - m0) * (n * (n + 1)) + pair) * rows + np.arange(rows))
        group, order = np.divmod(key, rows)
        self._msg = np.concatenate((np.arange(c), c + msg))[order]
        self._arrival = np.concatenate((self._arrival[carried], arrival))[order]
        self._due, self._pair = due[order], pair[order]
        self._kept = _last_rows(group, self._arrival)
        bounds = np.arange(m0, m1 + 1)
        starts = [np.searchsorted(a, bounds) for a in (step, self._due, self._due[self._kept])]
        self._at, self._start, self._end = np.column_stack((c + starts[0], *starts[1:])), m0, m1

    @property
    def pending(self) -> np.ndarray:
        """The deliveries sent and not yet applied: (arrival, sender, seq, receiver) rows."""
        if self.config.delay == self.config.jitter == 0.0:  # each delivery applies as it is sent
            return np.empty(0, dtype=_IN_FLIGHT)
        m = self._step
        r0, r1 = self._due.searchsorted([m + 1, m + 1 + self._lag])
        # the messages sent so far are those before the next step's first
        i = r0 + np.flatnonzero(self._msg[r0:r1] < self._at[m + 1 - self._start, 0])
        out, j = np.empty(len(i), dtype=_IN_FLIGHT), self._msg[i]
        out["arrival"], out["sender"], out["seq"] = self._arrival[i], self._sender[j], self._seq[j]
        out["receiver"] = self._pair[i] // (self.n + 1) + 1
        return out

    def snapshot_for_agent(self, k: int, own_position, own_heading, t: float):
        """Agent k's view of the group as arrays: (headings, positions, stale).

        The owner contributes its true local state. Neighbors contribute their
        last-received position, dead-reckoned along the received velocity when
        extrapolation is on, and the heading of that velocity. Speeds are not
        part of the view: cruising speeds are constants known to the whole
        team. Entries older than the staleness budget are flagged in stale.
        """
        cfg = self.config
        row = k - 1
        pos = self.pos[row, 1:].copy()
        stale = np.zeros(self.n, dtype=bool)
        if cfg.extrapolate or cfg.staleness_budget is not None:
            age = t - self.recv_t[row, 1:]
            age[row] = 0.0  # the owner's own column is never filled
            if cfg.extrapolate:
                pos += self.vel[row, 1:] * age[:, None]
            if cfg.staleness_budget is not None:
                stale = age > cfg.staleness_budget
        pos[row] = own_position
        headings = self.heading[row, 1:].copy()
        headings[row] = own_heading
        return headings, pos, stale

    def target_estimate(self, k: int, t: float):
        """Last-received target (position, velocity, stale flag) for agent k."""
        cfg = self.config
        received = self.recv_t.item(k - 1, TARGET_ID)
        if received == -math.inf:
            return None, None, False
        age = t - received
        pos = self.pos[k - 1, TARGET_ID].copy()
        vel = self.vel[k - 1, TARGET_ID].copy()
        if cfg.extrapolate:
            pos += vel * age
        return pos, vel, cfg.staleness_budget is not None and age > cfg.staleness_budget
