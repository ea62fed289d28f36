"""CLI artifacts and subcommands: trajectory.csv round trips, summary.json,
plot.gp column indices, exit codes, sweeps, and scenario overrides.
"""

import concurrent.futures
import csv
import dataclasses
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from oracles import write_trajectory_csv_whole
from swarmtrack import cli, engine
from swarmtrack.analysis import build_equilibrium, classify_equilibrium
from swarmtrack.cli import (
    bundled_scenario_text,
    csv_columns,
    override_scenario_text,
    read_trajectory_csv,
    run_sweep,
    summarize,
    summarize_columns,
    write_artifacts,
    write_plot_script,
    write_trajectory_csv,
)
from swarmtrack.engine import run
from swarmtrack.scenario import ScenarioError, parse_scenario_text

SMALL = """\
[agents]
x = 0
y = 0
heading = 0.4
speed = 10

[agents]
x = 50
y = 0
heading = 2.0
speed = 12

[agents]
x = 0
y = 50
heading = -1.2
speed = 16

[controller]
gamma = 0.1

[reference]
mode = constant
vx = 2
vy = 0

[sim]
duration = 2
dt = 0.02
seed = 3
"""

NETWORKED = SMALL.replace(
    "[sim]",
    "[network]\nmode = broadcast\nloss = 0.1\n\n[sim]",
).replace("duration = 2", "duration = 3")


@pytest.fixture(scope="module")
def small_log():
    return run(parse_scenario_text(SMALL))


@pytest.fixture(scope="module")
def networked():
    config = parse_scenario_text(NETWORKED)
    return config, run(config)


# --------------------------------------------------------------------------
# trajectory.csv


def test_csv_columns_layout():
    cols = csv_columns(3)
    assert len(cols) == 1 + 8 * 3 + 20
    assert cols[0] == "t"
    assert cols[1:4] == ["x1", "y1", "theta1"]
    assert cols[9] == "x2"
    assert cols[8] == "dist1"
    assert cols[-1] == "stale_count"
    assert cols[25] == "centroid_x"


def expected_columns(log):
    """Column name -> vector, mirroring the writer's layout independently."""
    out = {"t": log.t}
    for k in range(log.n):
        out[f"x{k + 1}"] = log.x[:, k]
        out[f"y{k + 1}"] = log.y[:, k]
        out[f"theta{k + 1}"] = log.theta[:, k]
        out[f"u_vel{k + 1}"] = log.u_vel[:, k]
        out[f"u_ff{k + 1}"] = log.u_h[:, k]
        out[f"u_spc{k + 1}"] = log.u_spc[:, k]
        out[f"u_tot{k + 1}"] = log.u_total[:, k]
        out[f"dist{k + 1}"] = log.dist_to_centroid[:, k]
    for name, mat in (("centroid_", log.centroid), ("centroid_v", log.centroid_vel),
                      ("ref_", log.ref_pos), ("ref_v", log.ref_vel),
                      ("target_", log.target_pos), ("target_v", log.target_vel)):
        out[name + "x"] = mat[:, 0]
        out[name + "y"] = mat[:, 1]
    out["V"] = log.V
    out["beta_norm"] = log.beta_norm
    out["alpha_norm"] = log.alpha_norm
    for name in ("net_sent", "net_decisions", "net_delivered", "net_dropped", "stale_count"):
        out[name] = getattr(log, name)
    return out


def test_trajectory_csv_round_trips_exactly(small_log, tmp_path):
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(small_log, path)
    cols, meta = read_trajectory_csv(path)

    assert [float(s) for s in meta["speeds"].split()] == [10.0, 12.0, 16.0]
    assert float(meta["dt"]) == small_log.dt
    assert int(meta["seed"]) == small_log.seed

    expected = expected_columns(small_log)
    assert set(cols) == set(csv_columns(small_log.n)) == set(expected)
    for name, vec in expected.items():
        # %.17g guarantees bitwise float64 round trips, so demand exactness
        assert np.array_equal(cols[name], vec, equal_nan=True), name
    # no target in this scenario: the target columns must be NaN all the way
    assert np.isnan(cols["target_x"]).all()


BLOCK = 7  # engine.DERIVED_STEPS in the writer tests, so short logs span blocks


def block_logs():
    """Networked logs of 1 row, one block, one block + 1 and two blocks + 1
    rows, and one aborted part way through a block."""
    config = parse_scenario_text(NETWORKED)
    logs = [run(dataclasses.replace(config, duration=rows * config.dt))
            for rows in (1, BLOCK, BLOCK + 1, 2 * BLOCK + 1)]
    # the beacon term overflows after 67 steps
    blows_up = NETWORKED.replace("gamma = 0.1", "gamma = 5e306\nspacing = beacon\nu_max = 0.5")
    with np.errstate(all="ignore"):
        logs += engine.run_batch([parse_scenario_text(blows_up)])
    return logs


def test_trajectory_csv_is_the_whole_log_savetxt(monkeypatch, tmp_path):
    monkeypatch.setattr(engine, "DERIVED_STEPS", BLOCK)
    logs = block_logs()
    assert [log.rows for log in logs[:4]] == [1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]
    assert logs[-1].aborted and logs[-1].rows > BLOCK and logs[-1].rows % BLOCK
    assert logs[-1].net_delivered[-1] > 0
    for log in logs:
        write_trajectory_csv(log, tmp_path / "blocks.csv")
        write_trajectory_csv_whole(log, tmp_path / "whole.csv")
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
        # the summary of the int64 counters is the summary of their float copies
        as_floats = {k: v.astype(float) for k, v in cli._log_columns(log).items()}
        assert (json.dumps(summarize_columns(as_floats, log.dt))
                == json.dumps(summarize(log)["metrics"]))


def test_trajectory_csv_holds_one_block_at_a_time(monkeypatch, tmp_path):
    monkeypatch.setattr(engine, "DERIVED_STEPS", 512)
    config = dataclasses.replace(parse_scenario_text(SMALL), duration=8.25 * 512 * 0.02)
    log = run(config)
    tracemalloc.start()
    try:
        write_trajectory_csv(log, tmp_path / "trajectory.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < engine.log_bytes(config) / 4


def test_read_trajectory_csv_rejects_headerless_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# speeds = 1\n# dt = 0.1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no header row"):
        read_trajectory_csv(path)


def test_read_trajectory_csv_rejects_column_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header fields"):
        read_trajectory_csv(path)


# --------------------------------------------------------------------------
# summary.json


def test_summary_structure_and_config_block(networked, tmp_path):
    config, log = networked
    summary = write_artifacts(log, tmp_path, config)
    with open(tmp_path / "summary.json", encoding="utf-8") as fh:
        loaded = json.load(fh)
    assert loaded == summary  # JSON round trip is lossless after NaN cleaning
    assert set(summary) == {"config", "metrics"}

    c = summary["config"]
    assert c["n_agents"] == 3
    assert c["speeds"] == [10.0, 12.0, 16.0]
    assert c["dt"] == 0.02 and c["seed"] == 3
    assert c["aborted"] is None  # abort message, absent on a clean run
    assert c["feasibility"]["feasible"] is True
    assert c["network"]["loss_probability"] == 0.1
    assert c["network"]["extrapolate"] is False
    assert c["network"]["staleness_budget"] is None
    assert c["network"]["bits_per_s_per_agent"] == 1280.0

    m = summary["metrics"]
    assert m["rows"] == len(log.t)
    assert m["final_V"] == log.V[-1]
    assert m["beta"]["final"] is None  # constant reference: no target
    assert m["network"]["delivered_ratio"] is not None
    assert 0.0 < m["network"]["delivered_ratio"] <= 1.0
    assert m["network"]["sent"] == log.net_sent[-1]


def test_metrics_recompute_from_csv_alone(networked, tmp_path):
    config, log = networked
    write_trajectory_csv(log, tmp_path / "trajectory.csv")
    cols, meta = read_trajectory_csv(tmp_path / "trajectory.csv")
    recomputed = summarize_columns(cols, float(meta["dt"]))
    assert recomputed == summarize(log, config)["metrics"]


def test_transient_time_is_half_the_run(small_log):
    m = summarize(small_log)["metrics"]
    assert m["transient_time"] == pytest.approx(0.5 * m["duration"])
    tail = small_log.t >= m["transient_time"]
    assert not tail.all()
    assert m["max_alpha_after_transient"] == small_log.alpha_norm[tail].max()


def test_summary_handles_nan_beta(small_log):
    m = summarize(small_log)["metrics"]
    assert m["beta"] == {"final": None, "max_overall": None,
                         "max_after_transient": None, "mean_after_transient": None}
    assert m["final_V"] is not None and math.isfinite(m["final_V"])


# --------------------------------------------------------------------------
# plot.gp


def test_plot_script_column_indices(tmp_path):
    write_plot_script(tmp_path / "plot.gp", n=3)
    text = (tmp_path / "plot.gp").read_text(encoding="utf-8")
    assert "set output 'trajectory.png'" in text
    assert "set output 'distances.png'" in text
    assert "'trajectory.csv' using 26:27" in text  # centroid_x,centroid_y for n=3
    assert "using 34:35" in text  # target position block
    assert "using 2:3" in text  # agent 1 x,y
    assert "using 1:39" in text  # |centroid - target| trace
    assert "using 1:9" in text  # agent 1 distance-to-centroid trace


def test_write_artifacts_creates_all_files(small_log, tmp_path):
    write_artifacts(small_log, tmp_path / "out")
    for name in ("trajectory.csv", "summary.json", "plot.gp"):
        assert (tmp_path / "out" / name).is_file()


# --------------------------------------------------------------------------
# run subcommand


def test_cli_run_success(tmp_path, capsys):
    scenario = tmp_path / "case.ini"
    scenario.write_text(SMALL, encoding="utf-8")
    out = tmp_path / "out"
    rc = cli.main(["run", "--scenario", str(scenario), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "wrote" in captured.out and "final V" in captured.out
    assert (out / "trajectory.csv").is_file()
    cols, _ = read_trajectory_csv(out / "trajectory.csv")
    assert len(cols["t"]) == 100


def test_cli_run_prints_mean_and_worst_distance_after_transient(tmp_path, capsys):
    scenario = tmp_path / "replay.ini"
    scenario.write_text(override_scenario_text(bundled_scenario_text(), "sim", "duration", "5"),
                        encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    m = json.loads((out / "summary.json").read_text(encoding="utf-8"))["metrics"]
    beta = m["beta"]
    assert beta["max_after_transient"] >= beta["mean_after_transient"]
    assert (f"|centroid - target| after t={m['transient_time']:g}: "
            f"mean {beta['mean_after_transient']:.6g} m, "
            f"max {beta['max_after_transient']:.6g} m") in capsys.readouterr().out


def test_cli_run_seed_flag_changes_network_draws(tmp_path):
    scenario = tmp_path / "case.ini"
    scenario.write_text(NETWORKED, encoding="utf-8")
    cli.main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "a")])
    cli.main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "b"),
              "--seed", "3"])  # same seed as the file: identical artifacts
    cli.main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "c"),
              "--seed", "4"])
    a = (tmp_path / "a" / "trajectory.csv").read_text(encoding="utf-8")
    b = (tmp_path / "b" / "trajectory.csv").read_text(encoding="utf-8")
    c = (tmp_path / "c" / "trajectory.csv").read_text(encoding="utf-8")
    assert a == b
    assert a != c


def test_cli_run_parse_error_exits_1(tmp_path, capsys):
    scenario = tmp_path / "broken.ini"
    scenario.write_text(SMALL.replace("gamma = 0.1", "gamma = fast"), encoding="utf-8")
    rc = cli.main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith(f"error: {scenario}: line ")
    assert "expected a number" in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("old, new, fragment, message", [
    ("duration = 2\ndt = 0.02", "duration = 0.001\ndt = 0.02", "duration = 0.001", "gives no steps"),
    ("[sim]", "[target]\nprogram = turning\nx = 0\ny = 0\nspeed = -2\nkappa = 0.1\n\n[sim]",
     "[target]", "turning-target speed"),
    ("mode = constant\nvx = 2\nvy = 0", "mode = turning\nspeed = -1\nkappa = 0.1",
     "[reference]", "turning-reference speed"),
    # |(1.7e308, 1.7e308)| overflows: the speed bound is refused at the [sim] header
    ("vx = 2\nvy = 0", "vx = 1.7e308\nvy = 1.7e308", "[sim]",
     "ref_speed_bound must be finite, got inf"),
], ids=["duration", "turning_target", "turning_reference", "overflowing_reference"])
def test_cli_run_invalid_value_exits_1_with_line(tmp_path, capsys, old, new, fragment, message):
    text = SMALL.replace(old, new)
    assert text != SMALL
    line = next(i for i, l in enumerate(text.splitlines(), start=1) if fragment in l)
    scenario = tmp_path / "bad.ini"
    scenario.write_text(text, encoding="utf-8")
    rc = cli.main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert f"line {line}: " in captured.err
    assert message in captured.err
    assert not (tmp_path / "out").exists()


def test_cli_run_missing_file_exits_1(tmp_path, capsys):
    rc = cli.main(["run", "--scenario", str(tmp_path / "nope.ini"), "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    # a directory: named as it was given, "." included
    for given in (".", str(tmp_path)):
        rc = cli.main(["run", "--scenario", given, "--out", str(tmp_path / "dir")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {given}: [Errno 21]")
    # an --out that names an existing file
    scenario = tmp_path / "case.ini"
    scenario.write_text(SMALL, encoding="utf-8")
    rc = cli.main(["run", "--scenario", str(scenario), "--out", str(scenario)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
    # a file that is not UTF-8 is a bad file for every command that reads one
    latin1 = tmp_path / "latin1.ini"
    latin1.write_bytes(SMALL.replace("[sim]", "[sim]\n# vitesse \xe9lev\xe9e").encode("latin-1"))
    for command in ("run", "sweep"):
        rc = cli.main([command, "--scenario", str(latin1), "--out", str(tmp_path / command)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {latin1}: 'utf-8' codec") and err.count("\n") == 1
        assert "Traceback" not in err


def test_cli_run_refuses_unplannable_broadcast_rate(tmp_path, capsys):
    # 1e9 messages a second per agent: the network refuses to plan them
    # before the first step, where sending them took about 25 minutes
    scenario = tmp_path / "fast.ini"
    scenario.write_text(SMALL + "\n[network]\nmode = broadcast\nagent_rate = 1e9\n", encoding="utf-8")
    start = time.perf_counter()
    rc = cli.main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
    assert time.perf_counter() - start < 1.0
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: cannot plan the broadcast traffic: 6e+07 messages a step to 3 agents")


def test_cli_run_unallocatable_log_exits_1(tmp_path, capsys):
    scenario = tmp_path / "long.ini"
    scenario.write_text(SMALL.replace("duration = 2", "duration = 1e300"), encoding="utf-8")
    rc = cli.main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: cannot allocate the log of 5e+301 steps x 3 agents")
    assert not (tmp_path / "out").exists()


def test_cli_run_infeasible_scenario_reported_at_parse(tmp_path, capsys):
    scenario = tmp_path / "fast.ini"
    scenario.write_text(SMALL.replace("speed = 16", "speed = 40"), encoding="utf-8")
    rc = cli.main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "infeasible" in captured.err
    # the override flag turns the same file into a normal run
    rc = cli.main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out"),
                   "--allow-infeasible"])
    assert rc == 0


def test_cli_sweep_allow_infeasible_runs_infeasible_file(tmp_path, capsys):
    scenario = tmp_path / "fast.ini"
    scenario.write_text(SMALL.replace("speed = 16", "speed = 40"), encoding="utf-8")
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--scenario", str(scenario), "--out", str(out),
                   "--param", "controller.gamma=0.1", "--allow-infeasible"])
    assert rc == 0
    assert "(0 failed)" in capsys.readouterr().out
    _, rows = read_sweep_csv(out / "sweep.csv")
    assert [r["status"] for r in rows] == ["ok"]


def test_cli_run_abort_exits_1_with_partial_artifacts(tmp_path, capsys):
    scenario = tmp_path / "blowup.ini"
    scenario.write_text(SMALL.replace("gamma = 0.1", "gamma = 1e308"), encoding="utf-8")
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        rc = cli.main(["run", "--scenario", str(scenario), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "aborted:" in captured.err
    cols, _ = read_trajectory_csv(out / "trajectory.csv")
    assert 1 <= len(cols["t"]) < 100
    with open(out / "summary.json", encoding="utf-8") as fh:
        assert "non-finite" in json.load(fh)["config"]["aborted"]


def test_cli_sweep_aborted_case_keeps_partial_artifacts(tmp_path, capsys):
    # an aborted case keeps its partial artifacts, as `run` does, and its row says why
    scenario = tmp_path / "base.ini"
    scenario.write_text(SMALL, encoding="utf-8")
    out = tmp_path / "sweep"
    with np.errstate(all="ignore"):
        rc = cli.main(["sweep", "--scenario", str(scenario), "--out", str(out),
                       "--param", "controller.gamma=0.1,1e308"])
    assert rc == 0
    assert "(1 failed)" in capsys.readouterr().out
    _, rows = read_sweep_csv(out / "sweep.csv")
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"].startswith("aborted: non-finite state")
    assert rows[1]["status"].endswith(f"(partial artifacts in {out / 'case_001'})")
    assert rows[1]["final_V"] == ""
    assert (out / "case_001" / "trajectory.csv").is_file()
    with open(out / "case_001" / "summary.json", encoding="utf-8") as fh:
        assert "non-finite" in json.load(fh)["config"]["aborted"]


# --------------------------------------------------------------------------
# classify / feasibility subcommands


def test_cli_classify_matches_library(capsys):
    rc = cli.main(["classify", "--speeds", "1,2,3", "--m", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    verdict = classify_equilibrium(build_equilibrium([1, 2, 3], 1, 0.0, (0.0, 0.0)))
    assert f"class: {verdict.klass.value}" in out
    assert "anti-aligned count m = 1" in out
    line = next(l for l in out.splitlines() if l.startswith("eigenvalues:"))
    printed = [float(v) for v in line.split()[1:]]
    assert printed == pytest.approx(list(verdict.eigenvalues), abs=1e-6)
    assert f"descent direction: {'yes' if verdict.has_descent_direction else 'no'}" in out
    assert f"ascent direction: {'yes' if verdict.has_ascent_direction else 'no'}" in out


def test_cli_classify_oracle_flag(capsys):
    rc = cli.main(["classify", "--speeds", "1,2,3", "--m", "1",
                   "--oracle", "--samples", "120"])
    out = capsys.readouterr().out
    assert rc == 0
    line = next(l for l in out.splitlines() if l.startswith("perturbation oracle"))
    assert "(120 samples" in line


def test_cli_classify_rejects_desired_equilibrium(capsys):
    rc = cli.main(["classify", "--speeds", "1,1", "--m", "0", "--ref", "1,0"])
    assert rc == 1
    assert "rejected:" in capsys.readouterr().err


def test_cli_classify_bad_ref(capsys):
    rc = cli.main(["classify", "--speeds", "1,2", "--m", "0", "--ref", "1,2,3"])
    assert rc == 1
    assert "two numbers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["feasibility", "--speeds", "10,x", "--bound", "2"], "could not convert"),
        (["feasibility", "--speeds", "10,-1", "--bound", "2"], "positive"),
        (["feasibility", "--speeds", "10,12", "--bound", "-1"], "non-negative"),
        (["classify", "--speeds", "1,0", "--m", "1"], "positive"),
        (["classify", "--speeds", "1,2", "--m", "5"], "m must lie in 0..2"),
        (["classify", "--speeds", "1,x", "--m", "1"], "could not convert"),
        (["classify", "--speeds", "1,2,3", "--m", "1", "--oracle", "--samples", "5"],
         "at least 100 samples"),
        (["feasibility", "--speeds", "10,12,nan", "--bound", "2"], "finite"),
        (["feasibility", "--speeds", "10,12,inf", "--bound", "2"], "finite"),
        (["feasibility", "--speeds", "10,12,16", "--bound", "nan"], "finite"),
        (["feasibility", "--speeds", "10,12,16", "--bound", "inf"], "finite"),
        (["classify", "--speeds", "1,2,nan", "--m", "1"], "finite"),
        (["classify", "--speeds", "1,2,inf", "--m", "1"], "finite"),
        (["classify", "--speeds", "1,2,3", "--m", "1", "--phi", "nan"], "finite"),
        (["classify", "--speeds", "1,2,3", "--m", "1", "--phi", "inf"], "finite"),
        (["classify", "--speeds", "1,2,3", "--m", "1", "--ref", "nan,0"], "finite"),
        (["classify", "--speeds", "1,2,3", "--m", "1", "--ref", "0,inf"], "finite"),
        (["classify", "--speeds", "1,2,3", "--m", "1", "--oracle", "--epsilon", "nan"], "finite"),
        (["classify", "--speeds", "1,2,3", "--m", "1", "--oracle", "--epsilon", "inf"], "finite"),
        (["classify", "--speeds", "1,2,3", "--m", "1", "--oracle", "--epsilon", "-1"], "finite"),
        (["classify", "--speeds", "1,2,3", "--m", "1", "--oracle", "--epsilon", "0"], "finite"),
        (["classify", "--speeds", ",", "--m", "0"], "non-empty"),
    ],
)
def test_cli_bad_numbers_exit_1_with_error_line(argv, message, capsys):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert captured.out == ""


def test_cli_feasibility_exit_codes(capsys):
    assert cli.main(["feasibility", "--speeds", "10,12,16", "--bound", "2"]) == 0
    assert "feasible" in capsys.readouterr().out

    assert cli.main(["feasibility", "--speeds", "1,5", "--bound", "0.5"]) == 2
    out = capsys.readouterr().out
    assert "VIOLATED" in out and "infeasible" in out

    assert cli.main(["feasibility", "--speeds", "1,1,1", "--bound", "1"]) == 0
    assert "marginal" in capsys.readouterr().out


# --------------------------------------------------------------------------
# sweep


def read_sweep_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, [dict(zip(header, row)) for row in rows]


def test_cli_sweep_writes_grid(tmp_path, capsys):
    scenario = tmp_path / "base.ini"
    scenario.write_text(SMALL, encoding="utf-8")
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--scenario", str(scenario), "--out", str(out),
                   "--param", "controller.gamma=0.05,0.1,0.2", "--seed", "3"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "3 cases" in captured.out and "(0 failed)" in captured.out

    header, rows = read_sweep_csv(out / "sweep.csv")
    assert header == ["case", "seed", "controller.gamma", "final_V",
                      "beta_mean_after_transient", "beta_max_after_transient",
                      "max_dist_after_transient", "delivered_ratio", "status"]
    assert [r["case"] for r in rows] == ["0", "1", "2"]
    assert [r["seed"] for r in rows] == ["3", "4", "5"]
    assert [r["controller.gamma"] for r in rows] == ["0.05", "0.1", "0.2"]
    for i, row in enumerate(rows):
        assert row["status"] == "ok"
        assert math.isfinite(float(row["final_V"]))
        case_dir = out / f"case_{i:03d}"
        for name in ("trajectory.csv", "summary.json", "plot.gp"):
            assert (case_dir / name).is_file()
    # a sweep case must actually apply its override
    with open(out / "case_000" / "summary.json", encoding="utf-8") as fh:
        s0 = json.load(fh)
    with open(out / "case_002" / "summary.json", encoding="utf-8") as fh:
        s2 = json.load(fh)
    assert s0["metrics"]["final_V"] != s2["metrics"]["final_V"]


def test_cli_sweep_cross_product(tmp_path, capsys):
    scenario = tmp_path / "base.ini"
    scenario.write_text(SMALL, encoding="utf-8")
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--scenario", str(scenario), "--out", str(out),
                   "--param", "controller.gamma=0.05,0.1",
                   "--param", "sim.dt=0.02,0.04"])
    assert rc == 0
    assert "4 cases" in capsys.readouterr().out
    header, rows = read_sweep_csv(out / "sweep.csv")
    assert "controller.gamma" in header and "sim.dt" in header
    combos = {(r["controller.gamma"], r["sim.dt"]) for r in rows}
    assert combos == {("0.05", "0.02"), ("0.05", "0.04"), ("0.1", "0.02"), ("0.1", "0.04")}


def test_cli_sweep_case_error_recorded_not_fatal(tmp_path, capsys):
    scenario = tmp_path / "base.ini"
    scenario.write_text(SMALL, encoding="utf-8")
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--scenario", str(scenario), "--out", str(out),
                   "--param", "controller.gamma=0.1,-1"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "(1 failed)" in captured.out
    _, rows = read_sweep_csv(out / "sweep.csv")
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"].startswith("error:")
    assert rows[1]["final_V"] == ""


def test_cli_sweep_unwritable_case_fails_only_its_case(tmp_path, capsys):
    # a file where case 1's directory belongs: case 2 still runs and sweep.csv is written
    scenario = tmp_path / "base.ini"
    scenario.write_text(SMALL, encoding="utf-8")
    out = tmp_path / "sweep"
    out.mkdir()
    (out / "case_001").write_text("in the way", encoding="utf-8")
    rc = cli.main(["sweep", "--scenario", str(scenario), "--out", str(out),
                   "--param", "controller.gamma=0.05,0.1,0.2"])
    assert rc == 0
    assert "(1 failed)" in capsys.readouterr().out
    _, rows = read_sweep_csv(out / "sweep.csv")
    assert [r["status"] for r in rows[::2]] == ["ok", "ok"]
    assert rows[1]["status"].startswith("error:")
    assert "File exists" in rows[1]["status"]
    assert rows[1]["final_V"] == ""
    assert (out / "case_002" / "trajectory.csv").is_file()


def test_cli_sweep_overflowing_duration_fails_only_its_case(tmp_path, capsys):
    # 1e308 s / 0.02 s overflows to an infinite step count
    scenario = tmp_path / "base.ini"
    scenario.write_text(SMALL, encoding="utf-8")
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--scenario", str(scenario), "--out", str(out),
                   "--param", "sim.duration=1,1e308"])
    assert rc == 0
    assert "(1 failed)" in capsys.readouterr().out
    _, rows = read_sweep_csv(out / "sweep.csv")
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"].startswith("error:")
    assert "gives no finite number of steps" in rows[1]["status"]


def test_cli_sweep_overflowing_reference_speed_fails_each_case(tmp_path, capsys):
    # vx = 1.7e308 is infeasible; vy = 1.7e308 makes the speed bound overflow
    text = SMALL.replace("vx = 2", "vx = 1.7e308")
    sim_line = text.splitlines().index("[sim]") + 1
    scenario = tmp_path / "base.ini"
    scenario.write_text(text, encoding="utf-8")
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--scenario", str(scenario), "--out", str(out),
                   "--param", "reference.vy=0,1.7e308"])
    assert rc == 0
    assert "(2 failed)" in capsys.readouterr().out
    _, rows = read_sweep_csv(out / "sweep.csv")
    # sweep.csv cells keep their commas: each status is the message run prints
    assert [r["status"] for r in rows] == [
        "error: line 5: infeasible: slowest agent speed 10.0 is below the reference speed "
        "bound 1.7e+308 (set allow_infeasible to run anyway)",
        f"error: line {sim_line}: ref_speed_bound must be finite, got inf",
    ]


def test_cli_sweep_unallocatable_log_fails_only_its_case(tmp_path, capsys):
    # 1e300 s / 0.02 s is a finite step count whose log numpy refuses to make
    scenario = tmp_path / "base.ini"
    scenario.write_text(SMALL, encoding="utf-8")
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--scenario", str(scenario), "--out", str(out),
                   "--param", "sim.duration=1e300,1"])
    assert rc == 0
    assert "(1 failed)" in capsys.readouterr().out
    _, rows = read_sweep_csv(out / "sweep.csv")
    assert rows[0]["status"].startswith("error: cannot allocate the log")
    assert rows[1]["status"] == "ok"


@pytest.mark.parametrize("parallel", [1, 2])
def test_cli_sweep_unplannable_network_fails_only_its_case(tmp_path, capsys, parallel):
    # both cases share one batch_key, so their batch cannot be set up and runs
    # again one case at a time
    scenario = tmp_path / "base.ini"
    scenario.write_text(SMALL + "\n[network]\nmode = broadcast\n", encoding="utf-8")
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--scenario", str(scenario), "--out", str(out), "--parallel",
                   str(parallel), "--param", "network.agent_rate=10,1e9"])
    assert rc == 0
    assert "(1 failed)" in capsys.readouterr().out
    _, rows = read_sweep_csv(out / "sweep.csv")
    assert rows[0]["status"] == "ok"
    assert (out / "case_000" / "trajectory.csv").exists()
    assert rows[1]["status"].startswith(
        "error: cannot plan the broadcast traffic: 6e+07 messages a step to 3 agents")


def test_cli_sweep_without_params_runs_the_base_case(tmp_path, capsys):
    # the cross product of no value lists is one case: the file as it is
    scenario = tmp_path / "base.ini"
    scenario.write_text(SMALL, encoding="utf-8")
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--scenario", str(scenario), "--out", str(out), "--seed", "4"])
    assert rc == 0
    assert "1 cases" in capsys.readouterr().out
    header, rows = read_sweep_csv(out / "sweep.csv")
    assert header[:2] == ["case", "seed"] and "controller.gamma" not in header
    assert len(rows) == 1
    assert (rows[0]["case"], rows[0]["seed"], rows[0]["status"]) == ("0", "4", "ok")
    assert (out / "case_000" / "trajectory.csv").is_file()


def test_cli_sweep_rejects_agent_params(tmp_path, capsys):
    scenario = tmp_path / "base.ini"
    scenario.write_text(SMALL, encoding="utf-8")
    rc = cli.main(["sweep", "--scenario", str(scenario), "--out", str(tmp_path / "s"),
                   "--param", "agents.speed=1,2"])
    assert rc == 1
    assert "not supported" in capsys.readouterr().err


def test_cli_sweep_rejects_repeatable_keys(tmp_path, capsys):
    # one value on every waypoint line would make every case a duplicate-waypoint error
    scenario = tmp_path / "base.ini"
    scenario.write_text(bundled_scenario_text(), encoding="utf-8")
    rc = cli.main(["sweep", "--scenario", str(scenario), "--out", str(tmp_path / "s"),
                   "--param", "target.waypoint=50 50"])
    assert rc == 1
    assert "repeatable key target.waypoint is not supported" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("params, message", [
    (["agents.speed=1,2"], "sweeping [agents] keys is not supported"),
    (["target.waypoint=50 50"], "repeatable key target.waypoint is not supported"),
    (["sim.seed=1,2"], "sweeping sim.seed is not supported"),
    (["turbo.boost=1,2"], "missing section [turbo]"),
    (["controller.gama=0.1,0.2"], "unknown key 'gama' in [controller]"),
    (["controller.gamma="], "no values given"),
    (["controller.gamma=0.001", "Controller.GAMMA=0.01"], "controller.gamma is given twice"),
], ids=["agents", "repeatable", "seed", "missing_section", "misspelled_key", "no_values",
        "repeated_key"])
def test_cli_sweep_refuses_before_any_case_runs(tmp_path, capsys, params, message):
    # case i runs at --seed + i, so a swept sim.seed would be recorded but never used;
    # a key given twice would run only its last value under two columns
    scenario = tmp_path / "base.ini"
    scenario.write_text(override_scenario_text(bundled_scenario_text(), "sim", "duration", "1"),
                        encoding="utf-8")
    args = [arg for param in params for arg in ("--param", param)]
    rc = cli.main(["sweep", "--scenario", str(scenario), "--out", str(tmp_path / "s"),
                   *args, "--seed", "5"])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_cli_sweep_rejects_bad_param_syntax(tmp_path, capsys):
    scenario = tmp_path / "base.ini"
    scenario.write_text(SMALL, encoding="utf-8")
    rc = cli.main(["sweep", "--scenario", str(scenario), "--out", str(tmp_path / "s"),
                   "--param", "gamma=1"])
    assert rc == 1
    assert "bad --param" in capsys.readouterr().err


def test_run_sweep_parallel_matches_serial(tmp_path, monkeypatch):
    params = [("controller", "gamma", ["0.05", "0.1"])]
    serial = run_sweep(SMALL, params, tmp_path / "s1", base_seed=0, parallel=1)
    parallel = run_sweep(SMALL, params, tmp_path / "s2", base_seed=0, parallel=2)
    assert serial == parallel

    # Mixed shapes: four groups of cases that run in lock step, the same rows
    # and artifacts in parallel, and with batches cut to one case each.
    text = SMALL + "\n[network]\nmode = ground_truth\nloss = 0.2\n"
    params = [("controller", "gamma", ["0.05", "0.1", "0.2"]), ("sim", "duration", ["1", "2"]),
              ("network", "mode", ["ground_truth", "broadcast"])]

    def sweep(name, parallel):
        rows = run_sweep(text, params, tmp_path / name, base_seed=0, parallel=parallel)
        return rows, [(tmp_path / name / f"case_{i:03d}" / "trajectory.csv").read_bytes()
                      for i in range(len(rows))]

    reference = sweep("m1", 1)
    assert [r["case"] for r in reference[0]] == list(range(12))
    assert all(r["status"] == "ok" for r in reference[0])
    assert sweep("m2", 2) == reference
    config = parse_scenario_text(SMALL)
    monkeypatch.setattr(cli, "BATCH_LOG_BYTES", engine.log_bytes(config))
    jobs = [(i, config, "") for i in range(3)]
    assert [len(batch) for batch in cli._sweep_batches(jobs, 1)] == [1, 1, 1]
    assert sweep("m3", 1) == reference
    assert sweep("m4", 2) == reference


def test_sweep_starts_at_most_one_worker_per_batch(tmp_path, monkeypatch, capsys):
    # the fake pool records its size and maps in this process, so no process starts
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    params = [("controller", "gamma", ["0.05", "0.1"])]
    serial = run_sweep(SMALL, params, tmp_path / "s1", base_seed=0, parallel=1)
    assert pools == []
    assert run_sweep(SMALL, params, tmp_path / "s2", base_seed=0, parallel=64) == serial
    assert pools == [2]
    run_sweep(SMALL, [("controller", "gamma", ["0.05"])], tmp_path / "s3", base_seed=0,
              parallel=64)
    assert pools == [2]

    for bad in (0, -1):
        with pytest.raises(ValueError, match=f"--parallel must be at least 1, got {bad}"):
            run_sweep(SMALL, params, tmp_path / "s4", base_seed=0, parallel=bad)
    scenario = tmp_path / "base.ini"
    scenario.write_text(SMALL, encoding="utf-8")
    rc = cli.main(["sweep", "--scenario", str(scenario), "--out", str(tmp_path / "s5"),
                   "--parallel", "0", "--param", "controller.gamma=0.05,0.1"])
    assert rc == 1
    assert "error: --parallel must be at least 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "s4").exists() and not (tmp_path / "s5").exists()
    assert pools == [2]


# --------------------------------------------------------------------------
# scenario text overrides


def test_override_replaces_existing_key():
    text = override_scenario_text(SMALL, "controller", "gamma", "0.9")
    assert parse_scenario_text(text).gains.gamma == 0.9
    gammas = [l for l in text.splitlines() if l.strip().startswith("gamma")]
    assert gammas == ["gamma = 0.9"]


def test_override_inserts_missing_key():
    text = override_scenario_text(SMALL, "controller", "omega0", "0.5")
    assert parse_scenario_text(text).gains.omega0 == 0.5


def test_override_inserts_at_end_of_file_section():
    text = override_scenario_text(SMALL, "sim", "disturbance", "0.5")
    assert parse_scenario_text(text).disturbance == 0.5


def test_override_refuses_agents_section():
    with pytest.raises(ScenarioError, match=r"sweeping \[agents\] keys is not supported"):
        override_scenario_text(SMALL, "agents", "speed", "11")


@pytest.mark.parametrize("old, new", [
    ("[sim]", "[ sim ]"),
    ("[sim]", "[SIM]"),
    ("seed = 7", "SEED = 7"),
    ("seed = 7", "seed = 7  # note"),
    ("seed = 7\n", ""),
    ("[sim]", "[sim]  # run settings"),
    ("[sim]", "[sim] ; run settings"),
], ids=["spaced_header", "upper_header", "upper_key", "comment", "no_seed",
        "header_hash_comment", "header_semicolon_comment"])
def test_override_agrees_with_parser(old, new):
    base = SMALL.replace("seed = 3", "seed = 7")
    text = base.replace(old, new)
    assert text != base and parse_scenario_text(text).seed != 3
    assert parse_scenario_text(override_scenario_text(text, "sim", "seed", "3")).seed == 3


def test_override_missing_section_raises():
    with pytest.raises(ScenarioError, match="missing section"):
        override_scenario_text(SMALL, "turbo", "boost", "1")


# --------------------------------------------------------------------------
# bundled scenario


def test_bundled_scenario_text_parses():
    text = bundled_scenario_text()
    config = parse_scenario_text(text, seed_override=1)
    assert config.seed == 1
    assert config.duration == 900.0


def test_bundled_scenario_sweeps_network_mode(tmp_path):
    text = override_scenario_text(bundled_scenario_text(), "sim", "duration", "10")
    params = [("network", "mode", ["ground_truth", "broadcast"])]
    rows = run_sweep(text, params, tmp_path, base_seed=7)
    assert [r["status"] for r in rows] == ["ok", "ok"]
    assert rows[0]["delivered_ratio"] is None  # ground truth sends nothing
    assert rows[1]["delivered_ratio"] > 0.9  # broadcast at 5% loss


def test_replay_parser_wiring():
    args = cli.build_parser().parse_args(["replay-experiment", "--out", "x", "--seed", "5"])
    assert args.out == "x" and args.seed == 5
