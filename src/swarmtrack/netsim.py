"""Simulated lossy broadcast network.

All agents (and the target) broadcast position/velocity at fixed rates; every
receiver independently loses each message with a configured probability, and
survivors arrive after an optional (possibly jittered) delay. Each agent keeps
a neighbor table of last-received states and computes its controls from that
table, reproducing the decentralized information structure of a real swarm:
agents may briefly disagree about where everyone is.

All randomness is counter-based: every draw is a pure hash of
(seed, purpose, sender, sequence, receiver), so outcomes do not depend on
evaluation order and a run is bit-reproducible from its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import Snapshot

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
    sum bounds the worst-case latency. staleness_budget (when set) flags table
    entries older than the budget. extrapolate enables dead reckoning between
    receptions (default off: pure last-received semantics).
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
        if self.agent_rate <= 0.0 or self.target_rate <= 0.0:
            raise ValueError("broadcast rates must be positive")
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError("loss_probability must lie in [0, 1)")
        if self.delay < 0.0 or self.jitter < 0.0:
            raise ValueError("delay and jitter must be non-negative")

    @property
    def max_delay(self) -> float:
        return self.delay + self.jitter

    def bandwidth_bits_per_s(self) -> float:
        """Per-agent payload rate: four 32-bit floats per message."""
        return 4 * 32 * self.agent_rate


@dataclass(frozen=True)
class BroadcastMessage:
    sender: int  # agent id, or TARGET_ID for the target
    send_time: float
    position: np.ndarray
    velocity: np.ndarray
    seq: int = 0


@dataclass
class TableEntry:
    position: np.ndarray
    velocity: np.ndarray
    receive_time: float


@dataclass
class NeighborTable:
    """Last-received broadcast state per sender, as seen by one agent."""

    owner: int
    entries: dict = field(default_factory=dict)  # sender -> TableEntry

    def update(self, msg: BroadcastMessage, receive_time: float):
        """Apply a delivery; stale messages never overwrite newer ones."""
        cur = self.entries.get(msg.sender)
        if cur is not None and receive_time < cur.receive_time:
            return
        self.entries[msg.sender] = TableEntry(
            position=np.asarray(msg.position, dtype=float).copy(),
            velocity=np.asarray(msg.velocity, dtype=float).copy(),
            receive_time=receive_time,
        )


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
    """Stateful broadcast medium plus the per-agent neighbor tables.

    The engine drives it once per step after integrating the dynamics: any
    source whose nominal send instant fell inside the step window emits a
    message carrying the post-step state, per-receiver loss and delay are
    drawn, and due deliveries are applied to the tables in arrival order.
    """

    def __init__(self, config: NetworkConfig, n_agents: int):
        self.config = config
        self.n = n_agents
        self.phases = source_phases(config, n_agents)
        self.tables = {a: NeighborTable(owner=a) for a in range(1, n_agents + 1)}
        self.pending = []  # (arrival, sender, seq, receiver, BroadcastMessage)
        self.seq = {s: 0 for s in self.phases}
        self.stats = NetworkStats()

    def initialize(self, positions, velocities, target_pos, target_vel):
        """Fill every table with everyone's true state at t = 0."""
        for owner, table in self.tables.items():
            for a in range(1, self.n + 1):
                if a == owner:
                    continue
                table.entries[a] = TableEntry(
                    position=np.asarray(positions[a - 1], float).copy(),
                    velocity=np.asarray(velocities[a - 1], float).copy(),
                    receive_time=0.0,
                )
            if target_pos is not None:
                table.entries[TARGET_ID] = TableEntry(
                    position=np.asarray(target_pos, float).copy(),
                    velocity=np.asarray(target_vel, float).copy(),
                    receive_time=0.0,
                )

    def _emit(self, sender: int, stamp: float, position, velocity):
        cfg = self.config
        seq = self.seq[sender]
        self.seq[sender] = seq + 1
        msg = BroadcastMessage(
            sender=sender,
            send_time=stamp,
            position=np.asarray(position, float).copy(),
            velocity=np.asarray(velocity, float).copy(),
            seq=seq,
        )
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
            self.pending.append((stamp + delay, sender, seq, receiver, msg))

    def advance(self, t_prev: float, t_new: float, positions, velocities, target_pos, target_vel):
        """Emit for send instants in [t_prev, t_new), then apply due arrivals.

        Emitted messages carry the grid state at t_new (states only exist on
        the step grid; the nominal instant determines whether a message goes
        out, the grid supplies its content).
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
        if self.pending:
            due = [p for p in self.pending if p[0] <= t_new]
            if due:
                self.pending = [p for p in self.pending if p[0] > t_new]
                for arrival, _, _, receiver, msg in sorted(due, key=lambda p: (p[0], p[1], p[2])):
                    self.tables[receiver].update(msg, arrival)

    def _entry_view(self, entry: TableEntry, t: float):
        """(position, stale) of a table entry as seen at time t.

        The position is the last received one, dead-reckoned along the
        received velocity when extrapolation is on. The entry is stale when it
        is older than the staleness budget.
        """
        cfg = self.config
        age = t - entry.receive_time
        pos = entry.position
        if cfg.extrapolate:
            pos = pos + entry.velocity * age
        return pos, cfg.staleness_budget is not None and age > cfg.staleness_budget

    def snapshot_for_agent(self, k: int, own_position, own_heading, speeds, t: float) -> Snapshot:
        """Build the n-agent controller snapshot from agent k's table.

        The owner contributes its true local state. Neighbors contribute their
        last-received position and velocity; the velocity is decomposed back
        into (speed, heading) with the speed taken from static scenario
        knowledge (cruising speeds are constants known to the whole team).
        Entries older than the staleness budget are flagged.
        """
        entries = self.tables[k].entries
        n = len(speeds)
        pos = np.empty((n, 2))
        headings = np.empty(n)
        stale = np.zeros(n, dtype=bool)
        for a in range(1, n + 1):
            if a == k:
                pos[a - 1] = own_position
                headings[a - 1] = own_heading
                continue
            entry = entries[a]
            pos[a - 1], is_stale = self._entry_view(entry, t)
            if is_stale:
                stale[a - 1] = True
            headings[a - 1] = math.atan2(entry.velocity[1], entry.velocity[0])
        return Snapshot(
            speeds=np.asarray(speeds, dtype=float),
            headings=headings,
            positions=pos,
            stale=stale,
        )

    def target_estimate(self, k: int, t: float):
        """Last-received target (position, velocity, stale flag) for agent k."""
        entry = self.tables[k].entries.get(TARGET_ID)
        if entry is None:
            return None, None, False
        pos, stale = self._entry_view(entry, t)
        return pos.copy(), entry.velocity.copy(), stale
