"""Each output check passes on a real log and rejects a deliberately corrupted one."""

from __future__ import annotations

import math

import numpy as np
import pytest

from swarmtrack import analysis, cli, engine, scenario

from perfbench import checks
from perfbench.workloads import drop_section


def _replay_text(duration: float, network: bool = True) -> str:
    text = cli.bundled_scenario_text()
    if not network:
        text = drop_section(text, "network")
    return cli.override_scenario_text(text, "sim", "duration", repr(duration))


@pytest.fixture(scope="module")
def networked():
    config = scenario.parse_scenario_text(_replay_text(20.0))
    return config, engine.run(config)


@pytest.fixture(scope="module")
def ground_truth():
    config = scenario.parse_scenario_text(_replay_text(20.0, network=False))
    return config, engine.run(config)


def _copy(rec: dict) -> dict:
    return {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in rec.items()}


def test_kinematics_rejects_corruption(networked):
    rec = checks.record_from_log(networked[1])
    assert checks.kinematics(rec) == []
    moved = _copy(rec)
    moved["x"][300, 1] += 1e-6
    assert checks.kinematics(moved)
    turned = _copy(rec)
    turned["theta"][300, 2] += 1e-9
    assert checks.kinematics(turned)
    unwrapped = _copy(rec)
    unwrapped["theta"][300:, 0] = -math.pi
    assert any("(-pi, pi]" in f for f in checks.kinematics(unwrapped))
    faster = _copy(rec)
    faster["speeds"] = rec["speeds"] * (1.0 + 1e-6)
    assert checks.kinematics(faster)


def test_network_rejects_corruption(networked):
    config, log = networked
    net = config.network
    rec = checks.record_from_log(log)
    args = (net.agent_rate, net.target_rate, net.loss_probability)
    assert checks.network(rec, *args) == []
    lost = _copy(rec)
    lost["net_dropped"][-1] += 1
    assert checks.network(lost, *args)
    chatty = _copy(rec)
    chatty["net_sent"][-1] += log.n + 2
    assert checks.network(chatty, *args)
    lucky = _copy(rec)
    shift = int(5 * math.sqrt(rec["net_decisions"][-1] * 0.05 * 0.95)) + 1
    lucky["net_delivered"][-1] += shift
    lucky["net_dropped"][-1] -= shift
    assert any("sigma" in f for f in checks.network(lucky, *args))


def test_control_law_and_V_reject_corruption(ground_truth):
    config, log = ground_truth
    rec = checks.record_from_log(log)
    assert checks.lyapunov(rec) == []
    assert checks.velocity_law(rec, config.gains.gamma) == []
    bent = _copy(rec)
    bent["V"][200] *= 1.0 + 1e-9
    assert checks.lyapunov(bent)
    pushed = _copy(rec)
    pushed["u_vel"][200, 0] += 1e-9
    assert checks.velocity_law(pushed, config.gains.gamma)


def test_tracking_rejects_a_stray_centroid_and_a_spread_swarm():
    t = np.arange(0.0, 10.0, 1.0)
    rec = {
        "t": t,
        "x": np.tile([-5.0, 5.0, 0.0], (t.size, 1)),
        "y": np.tile([0.0, 0.0, 6.0], (t.size, 1)),
        "target_pos": np.tile([0.0, 2.0], (t.size, 1)),
    }
    assert checks.tracking(rec, after=5.0, worst_bound=1.0, contain_bound=10.0) == []
    stray = _copy(rec)
    stray["x"][7] += 9.0
    assert checks.tracking(stray, after=5.0, worst_bound=1.0, contain_bound=100.0)
    spread = _copy(rec)
    spread["x"][8] = [-20.0, 20.0, 0.0]
    assert checks.tracking(spread, after=5.0, worst_bound=1.0, contain_bound=10.0)
    # before `after` nothing counts
    early = _copy(rec)
    early["x"][2] += 50.0
    assert checks.tracking(early, after=5.0, worst_bound=1.0, contain_bound=10.0) == []


def test_csv_round_trip_rejects_a_changed_digit(networked, tmp_path):
    config, log = networked
    cli.write_artifacts(log, tmp_path, config)
    path = tmp_path / "trajectory.csv"
    rec = checks.record_from_log(log)
    assert checks.csv_matches(rec, *cli.read_trajectory_csv(path)) == []
    lines = path.read_text().splitlines()
    row = lines[100].split(",")
    row[1] = repr(float(row[1]) + 1e-12)
    lines[100] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    assert any("for x" in f for f in checks.csv_matches(rec, *cli.read_trajectory_csv(path)))


def test_heading_flow_checks_reject_corruption():
    speeds = np.array([10.0, 12.0, 16.0])
    ref = np.array([1.5, 0.0])
    h0 = np.random.default_rng(3).uniform(-np.pi, np.pi, (16, 3))
    V, _ = analysis.simulate_phase_flow(speeds, ref, 0.2, h0, 0.05, 600)
    assert checks.heading_flow(V, speeds) == []
    rows = [0, 5, 15]
    V_ref = checks.heading_flow_reference(speeds, ref, 0.2, h0[rows], 0.05, 600)
    assert checks.rows_match(V, V_ref, rows) == []

    rising = V.copy()
    rising[3, 10] = rising[3, 9] * (1.0 + 1e-6)
    assert any("rises" in f for f in checks.heading_flow(rising, speeds))
    stuck = V.copy()
    stuck[7, 1:] = stuck[7, 1]  # never decreasing, never below 1e-6
    assert any("never reach" in f for f in checks.heading_flow(stuck, speeds))
    off = V.copy()
    off[5, 2] *= 1.0 + 1e-6
    assert checks.rows_match(off, V_ref, rows)


def test_fingerprint_sees_one_bit(networked):
    log = networked[1]
    first = checks.log_fingerprint(log)
    assert checks.log_fingerprint(log) == first
    x = log.x.copy()
    x.view(np.uint64)[10, 0] ^= 1
    flipped = checks.fingerprint([("x", x)])
    assert flipped != checks.fingerprint([("x", log.x)])
