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
    and jitter adds a uniform [0, jitter) extra per (message, receiver); their
    sum bounds the worst-case latency. staleness_budget (when set) flags
    received entries older than the budget. extrapolate enables dead reckoning
    between receptions (default off: pure last-received semantics).
    """

    agent_rate: float = 10.0
    target_rate: float = 5.0
    loss_probability: float = 0.0
    delay: float = 0.0
    jitter: float = 0.0
    seed: int = 0
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

    @property
    def max_delay(self) -> float:
        return self.delay + self.jitter

    def bandwidth_bits_per_s(self) -> float:
        """Per-agent payload rate: four 32-bit floats per message."""
        return 4 * 32 * self.agent_rate


def emission_indices(phase: float, period: float, t0: float, t1: float):
    """Indices j with t0 <= phase + j*period < t1, j >= 0.

    The membership test uses the same float expression on both window edges,
    so consecutive windows sharing an edge partition the instants exactly.
    """
    lo = max(0, math.floor((t0 - phase) / period) - 1)
    hi = math.ceil((t1 - phase) / period) + 1
    return [j for j in range(lo, hi + 1) if t0 <= phase + j * period < t1]


def source_phases(config: NetworkConfig, n_agents: int) -> dict:
    """Per-source broadcast phase offsets, drawn once from the seed."""
    phases = {TARGET_ID: counter_uniform(config.seed, SALT_PHASE, TARGET_ID) / config.target_rate}
    for a in range(1, n_agents + 1):
        phases[a] = counter_uniform(config.seed, SALT_PHASE, a) / config.agent_rate
    return phases


@dataclass
class NetworkStats:
    sent: int = 0
    pair_decisions: int = 0
    delivered: int = 0
    dropped: int = 0


class BroadcastNetwork:
    """Stateful broadcast medium plus every agent's last-received state.

    What agent k last received from sender s is row k - 1, column s of four
    arrays: `pos` and `vel` (n, n+1, 2), the heading of that velocity
    `heading` (n, n+1), and the arrival time `recv_t` (n, n+1), -inf while
    nothing has arrived. Column 0 is the target; an agent's own column stays
    empty.

    The engine drives it once per step after integrating the dynamics: any
    source whose nominal send instant fell inside the step window emits a
    message carrying the post-step state, per-receiver loss and delay are
    drawn, and due deliveries are stored in arrival order.
    """

    def __init__(self, config: NetworkConfig, n_agents: int):
        self.config = config
        self.n = n_agents
        self.phases = source_phases(config, n_agents)
        self.pos = np.zeros((n_agents, n_agents + 1, 2))
        self.vel = np.zeros((n_agents, n_agents + 1, 2))
        self.heading = np.zeros((n_agents, n_agents + 1))
        self.recv_t = np.full((n_agents, n_agents + 1), -math.inf)
        # heap of (arrival, sender, seq, receiver, (position, velocity, heading))
        self.pending = []
        self.seq = {s: 0 for s in self.phases}
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

    def _emit(self, sender: int, stamp: float, position, velocity):
        cfg = self.config
        seq = self.seq[sender]
        self.seq[sender] = seq + 1
        vx, vy = float(velocity[0]), float(velocity[1])
        msg = ((float(position[0]), float(position[1])), (vx, vy), math.atan2(vy, vx))
        self.stats.sent += 1
        for receiver in range(1, self.n + 1):
            if receiver == sender:
                continue
            self.stats.pair_decisions += 1
            if counter_uniform(cfg.seed, SALT_LOSS, sender, seq, receiver) < cfg.loss_probability:
                self.stats.dropped += 1
                continue
            self.stats.delivered += 1
            delay = cfg.delay
            if cfg.jitter > 0.0:
                delay += cfg.jitter * counter_uniform(cfg.seed, SALT_JITTER, sender, seq, receiver)
            heapq.heappush(self.pending, (stamp + delay, sender, seq, receiver, msg))

    def advance(self, t_prev: float, t_new: float, positions, velocities, target_pos, target_vel):
        """Emit for send instants in [t_prev, t_new), then apply due arrivals.

        Emitted messages carry the grid state at t_new (states only exist on
        the step grid; the nominal instant determines whether a message goes
        out, the grid supplies its content). Arrivals are stored in
        (arrival, sender, seq, receiver) order.
        """
        cfg = self.config
        for sender in sorted(self.phases):
            period = 1.0 / (cfg.target_rate if sender == TARGET_ID else cfg.agent_rate)
            phase = self.phases[sender]
            for _ in emission_indices(phase, period, t_prev, t_new):
                if sender == TARGET_ID:
                    if target_pos is None:
                        self.seq[sender] += 1
                        continue
                    self._emit(sender, t_new, target_pos, target_vel)
                else:
                    self._emit(sender, t_new, positions[sender - 1], velocities[sender - 1])
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
