"""Simulated lossy broadcast network.

All agents (and the target) broadcast position/velocity at fixed rates; every
receiver independently loses each message with a configured probability, and
survivors arrive after an optional (possibly jittered) delay. Each agent keeps
the last-received state of every sender (one row of the network's arrays) and
computes its controls from that row, reproducing the decentralized information
structure of a real swarm: agents may briefly disagree about where everyone is.

All randomness is counter-based: every draw is a pure hash of
(seed, purpose, sender, sequence, receiver), so outcomes do not depend on
evaluation order and a run is bit-reproducible from its seed.
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

# Below this many loss draws in a step (messages times n), `advance` draws one
# at a time and, with no delay or jitter, delivers one at a time. The array
# path costs about 80 numpy calls however few its draws, as much as 14 to 24
# single draws and deliveries on a 2-vCPU Xeon with no delay; at n = 3 with
# 50 ms delay and jitter, forcing it there doubled `advance` (65 -> 152 us/step).
ARRAY_MIN_DRAWS = 20

# One in-flight delivery of one message to one receiver.
_DELIVERY = np.dtype([
    ("arrival", np.float64), ("sender", np.int64), ("seq", np.int64), ("receiver", np.int64),
    ("position", np.float64, (2,)), ("velocity", np.float64, (2,)), ("heading", np.float64),
])
_RECORD = np.dtype((np.void, _DELIVERY.itemsize))  # the same bytes without fields


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def counter_uniform(seed: int, *ids: int) -> float:
    """Deterministic uniform draw in [0, 1) keyed by (seed, ids...).

    Any ids may be uint64 arrays: the draws are then an array of their
    broadcast shape, each equal to the call with those elements as Python
    ints. An int64 array raises OverflowError on numpy 2.4: the 64-bit mask
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


class BroadcastNetwork:
    """Stateful broadcast medium plus every agent's last-received state.

    Source s (0 is the target, 1..n the agents) sends at the instants
    phase[s] + j * period[s], j = 0, 1, ...; its phase is drawn once from the
    seed inside one period, and seq[s] counts the instants already passed,
    which makes it both the schedule and the message sequence number.

    What agent k last received from sender s is row k - 1, column s of four
    arrays: `pos` and `vel` (n, n+1, 2), the heading of that velocity
    `heading` (n, n+1), and the arrival time `recv_t` (n, n+1), -inf while
    nothing has arrived. Column 0 is the target; an agent's own column stays
    empty.

    The engine initializes it from the first step's state and advances it at
    the top of every later step, from that step's sample: every source whose
    next send instant fell before the step's start emits a message carrying
    the state at that instant, per-receiver loss and delay are drawn, and due
    deliveries are stored. A step's (sender, seq, receiver) triples are drawn
    in one call per purpose and its deliveries applied as arrays; below
    ARRAY_MIN_DRAWS draws they are drawn one at a time, and with no delay or
    jitter each survivor is delivered as it is drawn. Deliveries still in
    flight are rows of the structured array `pending`.
    """

    def __init__(self, config: NetworkConfig, n_agents: int, seed: int):
        self.config = config
        self.n = n_agents
        self.seed = seed
        rate = np.full(n_agents + 1, config.agent_rate)
        rate[TARGET_ID] = config.target_rate
        self.phase = np.array(
            [counter_uniform(seed, SALT_PHASE, s) for s in range(n_agents + 1)]
        ) / rate
        self.period = 1.0 / rate
        self.seq = np.zeros(n_agents + 1, dtype=np.int64)
        self._next_send = self.phase.copy()  # phase + seq * period
        self.pos = np.zeros((n_agents, n_agents + 1, 2))
        self.vel = np.zeros((n_agents, n_agents + 1, 2))
        self.heading = np.zeros((n_agents, n_agents + 1))
        self.recv_t = np.full((n_agents, n_agents + 1), -math.inf)
        self._receivers = np.arange(1, n_agents + 1, dtype=np.uint64)
        self.pending = np.empty(0, dtype=_DELIVERY)  # deliveries in flight, in no order
        self.stats = NetworkStats()

    def deliver(self, receiver: int, sender: int, arrival: float, position, velocity,
                heading: float | None = None):
        """Store a delivery; an older arrival never overwrites a newer one.

        `heading` is that of `velocity`, computed here when not given.
        """
        row = receiver - 1
        if arrival < self.recv_t[row, sender]:
            return
        if heading is None:
            heading = math.atan2(velocity[1], velocity[0])
        self.pos[row, sender] = position
        self.vel[row, sender] = velocity
        self.heading[row, sender] = heading
        self.recv_t[row, sender] = arrival

    def initialize(self, positions, velocities, target_pos, target_vel):
        """Give every agent everyone's true state at t = 0, before any delivery."""
        n = self.n
        rows, cols = np.nonzero(~np.eye(n, dtype=bool))  # every (receiver, other agent) pair
        positions = np.asarray(positions, dtype=float)
        velocities = np.asarray(velocities, dtype=float)
        headings = np.array([math.atan2(vy, vx) for vx, vy in velocities.tolist()])
        self.pos[rows, cols + 1] = positions[cols]
        self.vel[rows, cols + 1] = velocities[cols]
        self.heading[rows, cols + 1] = headings[cols]
        self.recv_t[rows, cols + 1] = 0.0
        if target_pos is not None:
            self.pos[:, TARGET_ID] = target_pos
            self.vel[:, TARGET_ID] = target_vel
            self.heading[:, TARGET_ID] = math.atan2(target_vel[1], target_vel[0])
            self.recv_t[:, TARGET_ID] = 0.0

    def advance(self, t_new: float, positions, velocities, target_pos, target_vel):
        """Send at every instant before t_new not yet passed, then apply due arrivals.

        Emitted messages carry the grid state at t_new (states only exist on
        the step grid; the nominal instant determines whether a message goes
        out, the grid supplies its content). A source above 1/dt sends more
        than once in a step. The target's instants pass unsent while it has no
        state. Of the arrivals due by t_new, each (receiver, sender) pair
        keeps the last in (arrival, seq) order, unless it already holds a
        newer arrival.
        """
        next_send = self._next_send
        due = np.flatnonzero(next_send < t_new)
        if not due.size and not self.pending.size:
            return
        senders, seqs, states = [], [], []
        while due.size:
            for s in due.tolist():
                seq = int(self.seq[s])
                self.seq[s] = seq + 1
                next_send[s] = self.phase[s] + (seq + 1) * self.period[s]
                if s != TARGET_ID:
                    position, velocity = positions[s - 1], velocities[s - 1]
                elif target_pos is not None:
                    position, velocity = target_pos, target_vel
                else:
                    continue
                vx, vy = float(velocity[0]), float(velocity[1])
                senders.append(s)
                seqs.append(seq)
                states.append((float(position[0]), float(position[1]), vx, vy, math.atan2(vy, vx)))
            due = np.flatnonzero(next_send < t_new)
        self.stats.sent += len(senders)
        draw = self._draw_arrays if len(senders) * self.n >= ARRAY_MIN_DRAWS else self._draw_each
        self._store(t_new, draw(t_new, senders, seqs, states))

    def _draw_each(self, t_new, senders, seqs, states):
        """The step's deliveries, one scalar draw per purpose and receiver.

        With no delay or jitter nothing is in flight and one sender's messages
        in a step carry the same state, so each survivor is delivered as it is
        drawn; otherwise the survivors come back as a batch for `_store`.
        """
        cfg, seed, stats = self.config, self.seed, self.stats
        undelayed = cfg.delay == 0.0 and cfg.jitter == 0.0
        delayed = []
        for s, seq, (px, py, vx, vy, heading) in zip(senders, seqs, states):
            position, velocity = (px, py), (vx, vy)
            for receiver in range(1, self.n + 1):
                if receiver == s:
                    continue
                stats.pair_decisions += 1
                if counter_uniform(seed, SALT_LOSS, s, seq, receiver) < cfg.loss_probability:
                    stats.dropped += 1
                    continue
                stats.delivered += 1
                if undelayed:
                    self.deliver(receiver, s, t_new, position, velocity, heading)
                    continue
                delay = cfg.delay
                if cfg.jitter > 0.0:
                    delay += cfg.jitter * counter_uniform(seed, SALT_JITTER, s, seq, receiver)
                delayed.append((t_new + delay, s, seq, receiver, position, velocity, heading))
        return np.array(delayed, dtype=_DELIVERY)

    def _draw_arrays(self, t_new, senders, seqs, states):
        """The step's deliveries from one loss draw and one jitter draw.

        The loss draw spans the (message, receiver) grid, each sender's own
        cell included and then dropped; the jitter draw spans the survivors.
        """
        cfg, stats = self.config, self.stats
        src = np.array(senders, dtype=np.uint64)[:, None]
        seq = np.array(seqs, dtype=np.uint64)[:, None]
        receivers = self._receivers
        lost = counter_uniform(self.seed, SALT_LOSS, src, seq, receivers) < cfg.loss_probability
        others = receivers != src
        msg, col = np.nonzero(others & ~lost)
        decisions = int(np.count_nonzero(others))
        stats.pair_decisions += decisions
        stats.delivered += len(msg)
        stats.dropped += decisions - len(msg)
        src, seq, receiver = src[msg, 0], seq[msg, 0], receivers[col]
        batch = np.empty(len(msg), dtype=_DELIVERY)
        if cfg.jitter > 0.0:
            draw = counter_uniform(self.seed, SALT_JITTER, src, seq, receiver)
            batch["arrival"] = t_new + (cfg.delay + cfg.jitter * draw)
        else:
            batch["arrival"] = t_new + cfg.delay
        batch["sender"], batch["seq"], batch["receiver"] = src, seq, receiver
        state = np.array(states)[msg]
        batch["position"], batch["velocity"], batch["heading"] = state[:, 0:2], state[:, 2:4], state[:, 4]
        return batch

    def _store(self, t_new, batch):
        """Add a step's deliveries to those in flight and apply the due ones."""
        pending = self.pending
        if pending.size and batch.size:  # joined as raw records: numpy copies fields slowly
            pending = np.concatenate((pending.view(_RECORD), batch.view(_RECORD))).view(_DELIVERY)
        elif batch.size:
            pending = batch
        elif not pending.size:
            return
        is_due = pending["arrival"] <= t_new
        if not is_due.any():
            self.pending = pending
            return
        due = pending.take(np.flatnonzero(is_due))
        self.pending = pending.take(np.flatnonzero(~is_due))
        self._apply(due)

    def _apply(self, batch):
        """Deliver a batch as arrays: per pair the last in (arrival, seq) order."""
        # Numpy leaves open which write wins for a repeated index: keep one per pair.
        pair = (batch["receiver"] - 1) * (self.n + 1) + batch["sender"]  # flat (row, column)
        order = np.lexsort((batch["seq"], batch["arrival"], pair))
        pair = pair[order]
        last = np.append(pair[1:] != pair[:-1], True)
        batch, pair = batch.take(order[last]), pair[last]
        recv_t = self.recv_t.reshape(-1)
        fresh = np.flatnonzero(~(batch["arrival"] < recv_t[pair]))
        batch, pair = batch.take(fresh), pair[fresh]
        self.pos.reshape(-1, 2)[pair] = batch["position"]
        self.vel.reshape(-1, 2)[pair] = batch["velocity"]
        self.heading.reshape(-1)[pair] = batch["heading"]
        recv_t[pair] = batch["arrival"]

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
