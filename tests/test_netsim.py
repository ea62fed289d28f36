"""Broadcast scheduling, lossy delivery, and neighbor-table snapshots."""

import math

import numpy as np
import pytest

from swarmtrack.netsim import (
    TARGET_ID,
    BroadcastMessage,
    BroadcastNetwork,
    NeighborTable,
    NetworkConfig,
    counter_uniform,
    emission_indices,
    source_phases,
)


def advance_steps(net, steps, dt, t0=0.0):
    """Drive a network over `steps` windows of length dt with every state at rest."""
    pos, vel = np.zeros((net.n, 2)), np.zeros((net.n, 2))
    for m in range(steps):
        net.advance(t0 + m * dt, t0 + (m + 1) * dt, pos, vel, None, None)


# --------------------------------------------------------------------------
# deterministic randomness


def test_counter_uniform_deterministic_and_in_range():
    draws = [counter_uniform(7, 1, 2, 3) for _ in range(5)]
    assert len(set(draws)) == 1
    assert 0.0 <= draws[0] < 1.0
    # distinct keys give distinct draws
    others = {counter_uniform(7, 1, 2, k) for k in range(50)}
    assert len(others) == 50


def test_counter_uniform_covers_unit_interval():
    xs = [counter_uniform(3, i) for i in range(2000)]
    assert min(xs) < 0.01 and max(xs) > 0.99
    assert abs(sum(xs) / len(xs) - 0.5) < 0.02


# --------------------------------------------------------------------------
# emission scheduling


def test_emission_counts_over_one_second():
    cfg = NetworkConfig(agent_rate=10.0, target_rate=5.0, seed=12)
    n = 3
    net = BroadcastNetwork(cfg, n)
    advance_steps(net, 100, 0.01)
    # seq counts every send instant, the target's too when it has no state to send
    for a in range(1, n + 1):
        assert net.seq[a] == 10
    assert net.seq[TARGET_ID] == 5
    assert net.stats.sent == 3 * 10


def test_target_rate_over_two_seconds():
    cfg = NetworkConfig(agent_rate=10.0, target_rate=5.0, seed=99)
    net = BroadcastNetwork(cfg, 1)
    advance_steps(net, 100, 0.02)
    assert net.seq[TARGET_ID] == 10


def test_schedule_is_deterministic():
    cfg = NetworkConfig(seed=5, loss_probability=0.3, jitter=0.05)
    a, b = BroadcastNetwork(cfg, 4), BroadcastNetwork(cfg, 4)
    advance_steps(a, 1, 0.1, t0=0.35)
    advance_steps(b, 1, 0.1, t0=0.35)
    assert a.stats.sent > 0
    assert a.seq == b.seq and a.stats == b.stats
    assert [p[:4] for p in a.pending] == [p[:4] for p in b.pending]
    assert source_phases(cfg, 4) == source_phases(cfg, 4)


def test_phases_lie_inside_one_period():
    cfg = NetworkConfig(agent_rate=10.0, target_rate=5.0, seed=31)
    phases = source_phases(cfg, 6)
    assert 0.0 <= phases[TARGET_ID] < 1.0 / cfg.target_rate
    for a in range(1, 7):
        assert 0.0 <= phases[a] < 1.0 / cfg.agent_rate


def test_emission_indices_partition_windows():
    # every send instant lands in exactly one of the consecutive windows
    for phase, period, dt in [(0.037, 0.1, 0.01), (0.0, 0.2, 0.03), (0.11, 0.13, 0.007)]:
        seen = []
        t = 0.0
        while t < 2.0:
            seen.extend(emission_indices(phase, period, t, t + dt))
            t += dt
        expected = [j for j in range(200) if phase + j * period < t]
        assert seen == expected


# --------------------------------------------------------------------------
# configuration


def test_network_config_validation():
    with pytest.raises(ValueError, match="rates"):
        NetworkConfig(agent_rate=0.0)
    with pytest.raises(ValueError, match="loss"):
        NetworkConfig(loss_probability=1.0)
    with pytest.raises(ValueError, match="delay"):
        NetworkConfig(delay=-0.1)
    cfg = NetworkConfig(delay=0.05, jitter=0.02)
    assert cfg.max_delay == pytest.approx(0.07)


def test_bandwidth_accounting():
    # four 32-bit floats per message at 10 Hz
    assert NetworkConfig(agent_rate=10.0).bandwidth_bits_per_s() == 1280.0


# --------------------------------------------------------------------------
# neighbor tables


def test_table_never_rolls_back():
    table = NeighborTable(owner=1)
    newer = BroadcastMessage(sender=2, send_time=1.0, position=(1.0, 1.0), velocity=(1.0, 0.0), seq=1)
    older = BroadcastMessage(sender=2, send_time=0.5, position=(9.0, 9.0), velocity=(0.0, 1.0), seq=0)
    table.update(newer, receive_time=1.0)
    table.update(older, receive_time=0.5)  # late arrival of the older message
    np.testing.assert_allclose(table.entries[2].position, [1.0, 1.0])
    assert table.entries[2].receive_time == 1.0


def _drive(net, n, dt, steps, x0, vel, tgt0=None, tvel=None):
    """Move agents in straight lines and advance the network each step."""
    for m in range(steps):
        t, t_next = m * dt, (m + 1) * dt
        pos = x0 + vel * t_next
        tp = None if tgt0 is None else tgt0 + tvel * t_next
        net.advance(t, t_next, pos, np.tile(vel, (n, 1)) if vel.ndim == 1 else vel, tp, tvel)


def test_initialize_fills_tables():
    cfg = NetworkConfig(seed=3)
    net = BroadcastNetwork(cfg, 3)
    pos = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    vel = np.array([[1.0, 0.0]] * 3)
    net.initialize(pos, vel, np.array([50.0, 0.0]), np.array([2.0, 0.0]))
    for owner, table in net.tables.items():
        assert set(table.entries) == {TARGET_ID, *[a for a in (1, 2, 3) if a != owner]}
        np.testing.assert_allclose(table.entries[TARGET_ID].position, [50.0, 0.0])
        for a in (1, 2, 3):
            if a != owner:
                np.testing.assert_allclose(table.entries[a].position, pos[a - 1])
                assert table.entries[a].receive_time == 0.0


def test_lossless_zero_delay_tables_track_truth():
    cfg = NetworkConfig(agent_rate=10.0, target_rate=5.0, loss_probability=0.0, delay=0.0, seed=8)
    n = 2
    net = BroadcastNetwork(cfg, n)
    x0 = np.array([[0.0, 0.0], [100.0, 0.0]])
    vel = np.array([[3.0, 0.0], [0.0, -2.0]])
    net.initialize(x0, vel, None, None)
    dt, steps = 0.01, 200
    for m in range(steps):
        t, t_next = m * dt, (m + 1) * dt
        net.advance(t, t_next, x0 + vel * t_next, vel, None, None)
    assert net.stats.dropped == 0
    assert net.stats.delivered == net.stats.pair_decisions
    # each table entry equals the sender's true state at its last send window
    for owner in (1, 2):
        other = 2 if owner == 1 else 1
        entry = net.tables[owner].entries[other]
        np.testing.assert_allclose(
            entry.position, x0[other - 1] + vel[other - 1] * entry.receive_time, atol=1e-12
        )
        assert entry.receive_time > 1.8  # got a message in the last periods


def test_total_loss_freezes_tables():
    cfg = NetworkConfig(loss_probability=1.0 - 1e-12, seed=21)
    n = 3
    net = BroadcastNetwork(cfg, n)
    x0 = np.zeros((n, 2))
    vel = np.array([[1.0, 0.0]] * n)
    net.initialize(x0, vel, None, None)
    _drive(net, n, 0.01, 500, x0, vel)
    assert net.stats.delivered == 0
    for table in net.tables.values():
        for entry in table.entries.values():
            assert entry.receive_time == 0.0


def test_delivered_count_matches_binomial():
    loss = 0.1
    cfg = NetworkConfig(agent_rate=10.0, target_rate=5.0, loss_probability=loss, seed=1234)
    n = 3
    net = BroadcastNetwork(cfg, n)
    x0 = np.zeros((n, 2))
    vel = np.array([[1.0, 0.0]] * n)
    net.initialize(x0, vel, np.zeros(2), np.ones(2))
    _drive(net, n, 0.01, 6000, x0, vel, tgt0=np.zeros(2), tvel=np.ones(2))
    # 3 agents at 10 Hz + target at 5 Hz over 60 s, 2 (resp. 3) receivers each
    assert net.stats.pair_decisions == 60 * (3 * 10 * 2 + 5 * 3)
    expect = (1.0 - loss) * net.stats.pair_decisions
    sigma = math.sqrt(net.stats.pair_decisions * loss * (1.0 - loss))
    assert abs(net.stats.delivered - expect) <= 3.0 * sigma
    assert net.stats.delivered + net.stats.dropped == net.stats.pair_decisions


def test_delayed_messages_arrive_later():
    cfg = NetworkConfig(agent_rate=10.0, delay=0.35, seed=6)
    n = 2
    net = BroadcastNetwork(cfg, n)
    x0 = np.array([[0.0, 0.0], [10.0, 0.0]])
    vel = np.array([[1.0, 0.0], [1.0, 0.0]])
    net.initialize(x0, vel, None, None)
    dt = 0.01
    # run 0.2 s: everything emitted so far is still in flight
    for m in range(20):
        net.advance(m * dt, (m + 1) * dt, x0 + vel * (m + 1) * dt, vel, None, None)
    assert net.stats.delivered > 0  # counted on emission
    assert all(e.receive_time == 0.0 for t in net.tables.values() for e in t.entries.values())
    assert len(net.pending) > 0
    # run past the delay: deliveries drain
    for m in range(20, 60):
        net.advance(m * dt, (m + 1) * dt, x0 + vel * (m + 1) * dt, vel, None, None)
    assert net.tables[1].entries[2].receive_time >= 0.35


# --------------------------------------------------------------------------
# controller snapshots


def test_snapshot_own_state_is_truth():
    cfg = NetworkConfig(seed=2)
    net = BroadcastNetwork(cfg, 2)
    net.initialize(np.zeros((2, 2)), np.array([[1.0, 0.0], [0.0, 2.0]]), None, None)
    snap = net.snapshot_for_agent(1, own_position=(7.0, 8.0), own_heading=0.5, speeds=[1.0, 2.0], t=0.0)
    np.testing.assert_allclose(snap.positions[0], [7.0, 8.0])
    assert snap.headings[0] == 0.5
    assert not snap.stale[0]
    # neighbor heading comes from the received velocity, speed from the config
    assert snap.headings[1] == pytest.approx(math.pi / 2)
    assert snap.speeds[1] == 2.0


def test_snapshot_extrapolates_constant_velocity_sender():
    msg = BroadcastMessage(sender=2, send_time=1.0, position=(10.0, 0.0), velocity=(3.0, 4.0))
    net = BroadcastNetwork(NetworkConfig(extrapolate=True), 2)
    net.tables[1].update(msg, receive_time=1.0)
    snap = net.snapshot_for_agent(1, own_position=(0.0, 0.0), own_heading=0.0, speeds=[1.0, 5.0], t=2.5)
    np.testing.assert_allclose(snap.positions[1], [10.0 + 3.0 * 1.5, 4.0 * 1.5], atol=1e-12)
    # without extrapolation: last received position as-is
    net = BroadcastNetwork(NetworkConfig(), 2)
    net.tables[1].update(msg, receive_time=1.0)
    snap = net.snapshot_for_agent(1, own_position=(0.0, 0.0), own_heading=0.0, speeds=[1.0, 5.0], t=2.5)
    np.testing.assert_allclose(snap.positions[1], [10.0, 0.0])


def test_snapshot_staleness_flag():
    net = BroadcastNetwork(NetworkConfig(staleness_budget=1.0), 2)
    net.tables[1].update(
        BroadcastMessage(sender=2, send_time=0.0, position=(1.0, 1.0), velocity=(1.0, 0.0)),
        receive_time=0.0,
    )
    snap = net.snapshot_for_agent(1, own_position=(0.0, 0.0), own_heading=0.0, speeds=[1.0, 1.0], t=2.0)
    assert snap.stale[1] and not snap.stale[0]
    snap = net.snapshot_for_agent(1, own_position=(0.0, 0.0), own_heading=0.0, speeds=[1.0, 1.0], t=0.5)
    assert not snap.stale.any()


def test_target_estimate():
    cfg = NetworkConfig(seed=4, extrapolate=True, staleness_budget=0.5)
    net = BroadcastNetwork(cfg, 2)
    net.initialize(np.zeros((2, 2)), np.ones((2, 2)), np.array([5.0, 0.0]), np.array([2.0, 0.0]))
    pos, vel, stale = net.target_estimate(1, t=1.0)
    np.testing.assert_allclose(pos, [7.0, 0.0])  # extrapolated from t=0
    np.testing.assert_allclose(vel, [2.0, 0.0])
    assert stale  # older than the 0.5 s budget

    net_no_tgt = BroadcastNetwork(cfg, 2)
    net_no_tgt.initialize(np.zeros((2, 2)), np.ones((2, 2)), None, None)
    pos, vel, stale = net_no_tgt.target_estimate(1, t=0.0)
    assert pos is None and vel is None and not stale
