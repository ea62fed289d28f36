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

import heapq
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


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def counter_uniform(seed: int, *ids: int) -> float:
    """Deterministic uniform draw in [0, 1) keyed by (seed, ids...)."""
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

    The engine drives it once per step after integrating the dynamics: every
    source whose next send instant fell before the step's end emits a message
    carrying the post-step state, per-receiver loss and delay are drawn, and
    due deliveries are stored in arrival order.
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
        # heap of (arrival, sender, seq, receiver, (position, velocity, heading))
        self.pending = []
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
        """Give every agent everyone's true state at t = 0."""
        for receiver in range(1, self.n + 1):
            for sender in range(1, self.n + 1):
                if sender != receiver:
                    self.deliver(receiver, sender, 0.0,
                                 positions[sender - 1], velocities[sender - 1])
            if target_pos is not None:
                self.deliver(receiver, TARGET_ID, 0.0, target_pos, target_vel)

    def _emit(self, sender: int, seq: int, stamp: float, position, velocity):
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
            heapq.heappush(self.pending, (stamp + delay, sender, seq, receiver, msg))

    def advance(self, t_new: float, positions, velocities, target_pos, target_vel):
        """Send at every instant before t_new not yet passed, then apply due arrivals.

        Emitted messages carry the grid state at t_new (states only exist on
        the step grid; the nominal instant determines whether a message goes
        out, the grid supplies its content). A source above 1/dt sends more
        than once in a step. The target's instants pass unsent while it has no
        state. Arrivals are stored in (arrival, sender, seq, receiver) order.
        """
        next_send = self._next_send
        due = np.flatnonzero(next_send < t_new)
        while due.size:
            for s in due.tolist():
                seq = int(self.seq[s])
                self.seq[s] = seq + 1
                next_send[s] = self.phase[s] + (seq + 1) * self.period[s]
                if s != TARGET_ID:
                    self._emit(s, seq, t_new, positions[s - 1], velocities[s - 1])
                elif target_pos is not None:
                    self._emit(s, seq, t_new, target_pos, target_vel)
            due = np.flatnonzero(next_send < t_new)
        pending = self.pending
        while pending and pending[0][0] <= t_new:
            arrival, sender, _, receiver, (position, velocity, heading) = heapq.heappop(pending)
            self.deliver(receiver, sender, arrival, position, velocity, heading)

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
