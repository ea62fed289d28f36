"""Broadcast scheduling, lossy delivery, and the received-state arrays."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmtrack.netsim import (
    SALT_PHASE,
    TARGET_ID,
    BroadcastNetwork,
    NetworkConfig,
    counter_uniform,
)


def advance_steps(net, steps, dt):
    """Drive a network over `steps` steps of length dt with every state at rest."""
    pos, vel = np.zeros((net.n, 2)), np.zeros((net.n, 2))
    for m in range(steps):
        net.advance((m + 1) * dt, pos, vel, None, None)


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
    cfg = NetworkConfig(agent_rate=10.0, target_rate=5.0)
    n = 3
    net = BroadcastNetwork(cfg, n, seed=12)
    advance_steps(net, 100, 0.01)
    # seq counts every send instant, the target's too when it has no state to send
    for a in range(1, n + 1):
        assert net.seq[a] == 10
    assert net.seq[TARGET_ID] == 5
    assert net.stats.sent == 3 * 10


def test_target_rate_over_two_seconds():
    cfg = NetworkConfig(agent_rate=10.0, target_rate=5.0)
    net = BroadcastNetwork(cfg, 1, seed=99)
    advance_steps(net, 100, 0.02)
    assert net.seq[TARGET_ID] == 10


def test_schedule_is_deterministic():
    cfg = NetworkConfig(loss_probability=0.3, jitter=0.05)
    a, b = BroadcastNetwork(cfg, 4, seed=5), BroadcastNetwork(cfg, 4, seed=5)
    advance_steps(a, 4, 0.1)
    advance_steps(b, 4, 0.1)
    assert a.stats.sent > 0
    assert np.array_equal(a.seq, b.seq) and a.stats == b.stats
    assert [p[:4] for p in a.pending] == [p[:4] for p in b.pending]
    assert np.array_equal(a.phase, b.phase)


def test_phases_lie_inside_one_period():
    cfg = NetworkConfig(agent_rate=10.0, target_rate=5.0)
    net = BroadcastNetwork(cfg, 6, seed=31)
    assert net.period[TARGET_ID] == 1.0 / cfg.target_rate
    assert (net.period[1:] == 1.0 / cfg.agent_rate).all()
    assert ((0.0 <= net.phase) & (net.phase < net.period)).all()
    # the phase is the seeded draw scaled to one period
    assert net.phase[TARGET_ID] == counter_uniform(31, SALT_PHASE, TARGET_ID) / cfg.target_rate
    for a in range(1, 7):
        assert net.phase[a] == counter_uniform(31, SALT_PHASE, a) / cfg.agent_rate


@given(
    rates=st.tuples(st.floats(0.5, 100.0), st.floats(0.5, 100.0)),
    dt=st.floats(0.001, 0.2),
    steps=st.integers(1, 60),
    seed=st.integers(0, 2**64 - 1),
)
@settings(max_examples=100, deadline=None)
def test_send_counter_counts_every_instant_passed(rates, dt, steps, seed):
    # over contiguous steps from t = 0, each source has sent once per instant
    # phase + j * period below the step's end, however many fall in one step
    agent_rate, target_rate = rates
    net = BroadcastNetwork(NetworkConfig(agent_rate=agent_rate, target_rate=target_rate), 2, seed)
    pos, vel = np.zeros((2, 2)), np.zeros((2, 2))
    for m in range(steps):
        t = (m + 1) * dt
        net.advance(t, pos, vel, np.zeros(2), np.zeros(2))
        for s in range(3):
            phase, period = float(net.phase[s]), float(net.period[s])
            expected = sum(1 for j in range(int(t / period) + 2) if phase + j * period < t)
            assert net.seq[s] == expected
    assert net.stats.sent == int(net.seq.sum())


# --------------------------------------------------------------------------
# configuration


def test_network_config_validation():
    with pytest.raises(ValueError, match="rates"):
        NetworkConfig(agent_rate=0.0)
    with pytest.raises(ValueError, match="loss"):
        NetworkConfig(loss_probability=1.0)
    with pytest.raises(ValueError, match="delay"):
        NetworkConfig(delay=-0.1)
    # non-finite values and a non-positive staleness budget are refused too
    for kwargs, message in [
        ({"agent_rate": math.nan}, "rates"),
        ({"target_rate": math.inf}, "rates"),
        ({"loss_probability": math.nan}, "loss"),
        ({"delay": math.nan}, "delay"),
        ({"delay": math.inf}, "delay"),
        ({"jitter": math.inf}, "jitter"),
        ({"staleness_budget": 0.0}, "staleness_budget"),
        ({"staleness_budget": -1.0}, "staleness_budget"),
        ({"staleness_budget": math.nan}, "staleness_budget"),
    ]:
        with pytest.raises(ValueError, match=message):
            NetworkConfig(**kwargs)


def test_bandwidth_accounting():
    # four 32-bit floats per message at 10 Hz
    assert NetworkConfig(agent_rate=10.0).bandwidth_bits_per_s() == 1280.0


# --------------------------------------------------------------------------
# received-state arrays


def filled(net, owner):
    """Senders whose state agent `owner` has received."""
    return {s for s in range(net.n + 1) if net.recv_t[owner - 1, s] > -math.inf}


def test_table_never_rolls_back():
    net = BroadcastNetwork(NetworkConfig(), 2, seed=0)
    net.deliver(1, 2, 1.0, (1.0, 1.0), (1.0, 0.0))
    net.deliver(1, 2, 0.5, (9.0, 9.0), (0.0, 1.0))  # late arrival of the older message
    np.testing.assert_allclose(net.pos[0, 2], [1.0, 1.0])
    np.testing.assert_allclose(net.vel[0, 2], [1.0, 0.0])
    assert net.heading[0, 2] == 0.0
    assert net.recv_t[0, 2] == 1.0


def _drive(net, n, dt, steps, x0, vel, tgt0=None, tvel=None):
    """Move agents in straight lines and advance the network each step."""
    for m in range(steps):
        t_next = (m + 1) * dt
        pos = x0 + vel * t_next
        tp = None if tgt0 is None else tgt0 + tvel * t_next
        net.advance(t_next, pos, np.tile(vel, (n, 1)) if vel.ndim == 1 else vel, tp, tvel)


def test_initialize_fills_tables():
    cfg = NetworkConfig()
    net = BroadcastNetwork(cfg, 3, seed=3)
    pos = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    vel = np.array([[1.0, 0.0]] * 3)
    net.initialize(pos, vel, np.array([50.0, 0.0]), np.array([2.0, 0.0]))
    for owner in (1, 2, 3):
        row = owner - 1
        assert filled(net, owner) == {TARGET_ID, *[a for a in (1, 2, 3) if a != owner]}
        np.testing.assert_allclose(net.pos[row, TARGET_ID], [50.0, 0.0])
        for a in (1, 2, 3):
            if a != owner:
                np.testing.assert_allclose(net.pos[row, a], pos[a - 1])
                assert net.recv_t[row, a] == 0.0


def test_lossless_zero_delay_tables_track_truth():
    cfg = NetworkConfig(agent_rate=10.0, target_rate=5.0, loss_probability=0.0, delay=0.0)
    n = 2
    net = BroadcastNetwork(cfg, n, seed=8)
    x0 = np.array([[0.0, 0.0], [100.0, 0.0]])
    vel = np.array([[3.0, 0.0], [0.0, -2.0]])
    net.initialize(x0, vel, None, None)
    dt, steps = 0.01, 200
    for m in range(steps):
        t_next = (m + 1) * dt
        net.advance(t_next, x0 + vel * t_next, vel, None, None)
    assert net.stats.dropped == 0
    assert net.stats.delivered == net.stats.pair_decisions
    # each received entry equals the sender's true state at its last send window
    for owner in (1, 2):
        other = 2 if owner == 1 else 1
        received = net.recv_t[owner - 1, other]
        np.testing.assert_allclose(
            net.pos[owner - 1, other], x0[other - 1] + vel[other - 1] * received, atol=1e-12
        )
        assert received > 1.8  # got a message in the last periods


def test_total_loss_freezes_tables():
    cfg = NetworkConfig(loss_probability=1.0 - 1e-12)
    n = 3
    net = BroadcastNetwork(cfg, n, seed=21)
    x0 = np.zeros((n, 2))
    vel = np.array([[1.0, 0.0]] * n)
    net.initialize(x0, vel, None, None)
    _drive(net, n, 0.01, 500, x0, vel)
    assert net.stats.delivered == 0
    received = net.recv_t[net.recv_t > -math.inf]
    assert len(received) == n * (n - 1)
    assert (received == 0.0).all()


def test_delivered_count_matches_binomial():
    loss = 0.1
    cfg = NetworkConfig(agent_rate=10.0, target_rate=5.0, loss_probability=loss)
    n = 3
    net = BroadcastNetwork(cfg, n, seed=1234)
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
    cfg = NetworkConfig(agent_rate=10.0, delay=0.35)
    n = 2
    net = BroadcastNetwork(cfg, n, seed=6)
    x0 = np.array([[0.0, 0.0], [10.0, 0.0]])
    vel = np.array([[1.0, 0.0], [1.0, 0.0]])
    net.initialize(x0, vel, None, None)
    dt = 0.01
    # run 0.2 s: everything emitted so far is still in flight
    for m in range(20):
        net.advance((m + 1) * dt, x0 + vel * (m + 1) * dt, vel, None, None)
    assert net.stats.delivered > 0  # counted on emission
    assert (net.recv_t[net.recv_t > -math.inf] == 0.0).all()
    assert len(net.pending) > 0
    # run past the delay: deliveries drain
    for m in range(20, 60):
        net.advance((m + 1) * dt, x0 + vel * (m + 1) * dt, vel, None, None)
    assert net.recv_t[0, 2] >= 0.35


# --------------------------------------------------------------------------
# controller views


def test_snapshot_own_state_is_truth():
    cfg = NetworkConfig()
    net = BroadcastNetwork(cfg, 2, seed=2)
    net.initialize(np.zeros((2, 2)), np.array([[1.0, 0.0], [0.0, 2.0]]), None, None)
    headings, positions, stale = net.snapshot_for_agent(1, own_position=(7.0, 8.0),
                                                        own_heading=0.5, t=0.0)
    np.testing.assert_allclose(positions[0], [7.0, 8.0])
    assert headings[0] == 0.5
    assert not stale[0]
    # neighbor heading comes from the received velocity
    assert headings[1] == pytest.approx(math.pi / 2)


def test_snapshot_extrapolates_constant_velocity_sender():
    net = BroadcastNetwork(NetworkConfig(extrapolate=True), 2, seed=0)
    net.deliver(1, 2, 1.0, (10.0, 0.0), (3.0, 4.0))
    _, positions, _ = net.snapshot_for_agent(1, own_position=(0.0, 0.0), own_heading=0.0, t=2.5)
    np.testing.assert_allclose(positions[1], [10.0 + 3.0 * 1.5, 4.0 * 1.5], atol=1e-12)
    # without extrapolation: last received position as-is
    net = BroadcastNetwork(NetworkConfig(), 2, seed=0)
    net.deliver(1, 2, 1.0, (10.0, 0.0), (3.0, 4.0))
    _, positions, _ = net.snapshot_for_agent(1, own_position=(0.0, 0.0), own_heading=0.0, t=2.5)
    np.testing.assert_allclose(positions[1], [10.0, 0.0])


def test_snapshot_staleness_flag():
    net = BroadcastNetwork(NetworkConfig(staleness_budget=1.0), 2, seed=0)
    net.deliver(1, 2, 0.0, (1.0, 1.0), (1.0, 0.0))
    _, _, stale = net.snapshot_for_agent(1, own_position=(0.0, 0.0), own_heading=0.0, t=2.0)
    assert stale[1] and not stale[0]
    _, _, stale = net.snapshot_for_agent(1, own_position=(0.0, 0.0), own_heading=0.0, t=0.5)
    assert not stale.any()


def test_target_estimate():
    cfg = NetworkConfig(extrapolate=True, staleness_budget=0.5)
    net = BroadcastNetwork(cfg, 2, seed=4)
    net.initialize(np.zeros((2, 2)), np.ones((2, 2)), np.array([5.0, 0.0]), np.array([2.0, 0.0]))
    pos, vel, stale = net.target_estimate(1, t=1.0)
    np.testing.assert_allclose(pos, [7.0, 0.0])  # extrapolated from t=0
    np.testing.assert_allclose(vel, [2.0, 0.0])
    assert stale  # older than the 0.5 s budget

    net_no_tgt = BroadcastNetwork(cfg, 2, seed=4)
    net_no_tgt.initialize(np.zeros((2, 2)), np.ones((2, 2)), None, None)
    pos, vel, stale = net_no_tgt.target_estimate(1, t=0.0)
    assert pos is None and vel is None and not stale


# --------------------------------------------------------------------------
# the arrays against a dict-of-last-accepted oracle

coord = st.floats(-1e3, 1e3, allow_nan=False)
vec = st.tuples(coord, coord)


@st.composite
def delivery_runs(draw):
    n = draw(st.integers(1, 4))
    with_target = draw(st.booleans())
    deliveries = draw(st.lists(
        st.tuples(
            st.integers(1, n),                        # receiver
            st.integers(0 if with_target else 1, n),  # sender
            st.floats(0.0, 10.0),                     # arrival
            vec, vec,
        ).filter(lambda d: d[0] != d[1]),
        max_size=30,
    ))
    config = NetworkConfig(
        extrapolate=draw(st.booleans()),
        staleness_budget=draw(st.none() | st.floats(0.01, 10.0)),
    )
    init = [draw(st.tuples(vec, vec)) for _ in range(n + 1)]  # target first
    return n, with_target, deliveries, config, init, draw(st.floats(0.0, 20.0))


@given(delivery_runs())
@settings(max_examples=200, deadline=None)
def test_views_match_last_accepted_oracle(run):
    n, with_target, deliveries, config, init, t = run
    net = BroadcastNetwork(config, n, seed=0)
    tpos, tvel = init[0] if with_target else (None, None)
    net.initialize([p for p, _ in init[1:]], [v for _, v in init[1:]], tpos, tvel)

    # (receiver, sender) -> (arrival, position, velocity) of the last accepted delivery
    last = {}
    for receiver in range(1, n + 1):
        for sender in range(0 if with_target else 1, n + 1):
            if sender != receiver:
                last[receiver, sender] = (0.0, *init[sender])
    for receiver, sender, arrival, position, velocity in deliveries:
        net.deliver(receiver, sender, arrival, position, velocity)
        if arrival >= last.get((receiver, sender), (-math.inf,))[0]:
            last[receiver, sender] = (arrival, position, velocity)

    def seen(receiver, sender):
        arrival, (px, py), (vx, vy) = last[receiver, sender]
        age = t - arrival
        if config.extrapolate:
            px, py = px + vx * age, py + vy * age
        stale = config.staleness_budget is not None and age > config.staleness_budget
        return (px, py), (vx, vy), stale

    for k in range(1, n + 1):
        view_headings, view_positions, view_stale = net.snapshot_for_agent(k, (-5.0, 7.0), 0.25, t)
        positions, headings, stale = [], [], []
        for a in range(1, n + 1):
            if a == k:
                positions.append((-5.0, 7.0))
                headings.append(0.25)
                stale.append(False)
                continue
            pos, (vx, vy), is_stale = seen(k, a)
            positions.append(pos)
            headings.append(math.atan2(vy, vx))
            stale.append(is_stale)
        assert np.array_equal(view_positions, np.array(positions).reshape(n, 2))
        assert np.array_equal(view_headings, headings)
        assert np.array_equal(view_stale, stale)

        pos, vel, t_stale = net.target_estimate(k, t)
        if (k, TARGET_ID) in last:
            exp_pos, exp_vel, exp_stale = seen(k, TARGET_ID)
            assert tuple(pos) == exp_pos and tuple(vel) == exp_vel
            assert t_stale is exp_stale
        else:
            assert (pos, vel, t_stale) == (None, None, False)
