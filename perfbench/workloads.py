"""The four workloads, each run through the package's public entry points.

A workload object is built by its set-up (parse or build the scenarios, draw
the initial conditions); `round()` runs one whole round of its operations and
returns the host times a user waits for; `check()` verifies the outputs of
the last round with the computations in `checks`. Inputs come only from the
seed given to the constructor.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from swarmtrack import analysis, cli, engine, scenario

from . import checks


@dataclass
class Round:
    wall_s: float       # host time the user waits: simulation plus artifacts
    sim_s: float        # host time spent simulating
    agent_steps: int    # vehicles x steps simulated
    attempted: int
    failed: int
    fingerprint: str    # of this round's outputs, to compare rounds of one run


def _clock():
    return time.perf_counter()


# --------------------------------------------------------------------------
# Engine runs: the field replay and the 48-vehicle network


class _EngineRun:
    """One scenario simulated with `engine.run` and written with `cli.write_artifacts`."""

    name = ""
    workers = 1

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out / self.name
        self.text = self.scenario_text(seed)
        self.config = self.parse()
        self.log = None

    def scenario_text(self, seed: int) -> str:
        raise NotImplementedError

    def parse(self):
        return scenario.parse_scenario_text(self.text, seed_override=self.seed)

    def round(self) -> Round:
        self.log = None
        t0 = _clock()
        try:
            log = engine.run(self.config)
        except engine.SimulationAborted:
            return Round(_clock() - t0, _clock() - t0, 0, 1, 1, "aborted")
        t1 = _clock()
        cli.write_artifacts(log, self.out, self.config)
        t2 = _clock()
        self.log = log
        return Round(t2 - t0, t1 - t0, log.rows * log.n, 1, 0, checks.log_fingerprint(log))

    def fingerprint(self) -> str:
        return checks.log_fingerprint(self.log) if self.log is not None else "none"

    def check(self) -> list[str]:
        if self.log is None:
            return []  # the failed operation is counted, not checked
        rec = checks.record_from_log(self.log)
        net = self.config.network
        fails = checks.kinematics(rec) + checks.lyapunov(rec)
        fails += checks.network(rec, net.agent_rate, net.target_rate, net.loss_probability)
        cols, meta = cli.read_trajectory_csv(self.out / "trajectory.csv")
        fails += checks.csv_matches(rec, cols, meta)
        return fails


class Replay(_EngineRun):
    """The bundled three-vehicle field experiment, as `swarmtrack replay-experiment` runs it."""

    name = "replay"

    def scenario_text(self, seed: int) -> str:
        return cli.bundled_scenario_text()

    def check(self) -> list[str]:
        fails = super().check()
        if self.log is not None:
            fails += checks.tracking(checks.record_from_log(self.log), after=500.0,
                                     worst_bound=25.0, contain_bound=300.0)
        return fails


SWARM_N = 48
SWARM_STEPS = 250
SWARM_DT = 0.02


class Swarm48(_EngineRun):
    """48 vehicles tracking a turning target over a lossy, delayed, jittered network."""

    name = "swarm48"

    def scenario_text(self, seed: int) -> str:
        """Speeds uniform on [10, 16] m/s, positions uniform in a 400 m square
        around the target's start, headings uniform; everything else fixed."""
        rng = np.random.default_rng(seed)
        speeds = rng.uniform(10.0, 16.0, SWARM_N)
        xy = rng.uniform(-200.0, 200.0, (SWARM_N, 2))
        headings = rng.uniform(-math.pi, math.pi, SWARM_N)
        lines = []
        for (x, y), h, v in zip(xy.tolist(), headings.tolist(), speeds.tolist()):
            lines += ["[agents]", f"x = {x!r}", f"y = {y!r}", f"heading = {h!r}", f"speed = {v!r}"]
        lines += [
            "[target]", "program = turning", "x = 0", "y = 0", "speed = 2.0", "kappa = 0.02",
            "[controller]", "gamma = 0.001", "omega0 = 0.25", "spacing = beacon",
            "[reference]", "mode = target_tracking", "weight = distance_dependent 0.1",
            "[network]", "mode = broadcast", "agent_rate = 10", "target_rate = 5",
            "loss = 0.1", "delay = 0.05", "jitter = 0.05",
            "[sim]", f"dt = {SWARM_DT!r}", f"duration = {SWARM_STEPS * SWARM_DT!r}",
            f"seed = {seed}",
        ]
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Gain sweep


SWEEP_GAMMAS = (0.001, 0.003, 0.01, 0.03)
SWEEP_OMEGA0 = (0.1, 0.25, 0.5)
SWEEP_DURATION = 50.0


def drop_section(text: str, section: str) -> str:
    """Scenario text without one [section] block."""
    out, skipping = [], False
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("["):
            skipping = stripped.lower() == f"[{section}]"
        if not skipping:
            out.append(line)
    return "\n".join(out) + "\n"


class GainSweep:
    """The 12-case gamma x omega0 grid of scripts/sweep_gains.py through `cli.run_sweep`,
    on the bundled replay without its network, at a 50 s horizon."""

    name = "gain_sweep"

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out / self.name
        self.workers = max(1, min(2, len(os.sched_getaffinity(0))))
        text = drop_section(cli.bundled_scenario_text(), "network")
        self.text = cli.override_scenario_text(text, "sim", "duration", repr(SWEEP_DURATION))
        self.params = [
            ("controller", "gamma", [repr(g) for g in SWEEP_GAMMAS]),
            ("controller", "omega0", [repr(w) for w in SWEEP_OMEGA0]),
        ]
        self.cases = [(g, w) for g in SWEEP_GAMMAS for w in SWEEP_OMEGA0]
        base = scenario.parse_scenario_text(self.text)
        self.n, self.steps = base.n, int(round(base.duration / base.dt))
        self.rows = None

    def case_dir(self, i: int) -> Path:
        return self.out / f"case_{i:03d}"

    def round(self, parallel: int | None = None) -> Round:
        t0 = _clock()
        rows = cli.run_sweep(self.text, self.params, self.out, base_seed=self.seed,
                             parallel=self.workers if parallel is None else parallel)
        wall = _clock() - t0
        self.rows = rows
        ok = sum(r["status"] == "ok" for r in rows)
        h = hashlib.sha256()
        for i in range(len(rows)):
            path = self.case_dir(i) / "trajectory.csv"
            h.update(path.read_bytes() if path.exists() else b"-")
        return Round(wall, wall, ok * self.n * self.steps, len(rows), len(rows) - ok,
                     h.hexdigest())

    def serial_busy(self) -> tuple[float, float]:
        """One round in this process: (run_sweep wall time, summed per-case time)."""
        original = cli._run_sweep_case
        busy = []

        def timed(job):
            t0 = _clock()
            try:
                return original(job)
            finally:
                busy.append(_clock() - t0)

        cli._run_sweep_case = timed
        try:
            r = self.round(parallel=1)
        finally:
            cli._run_sweep_case = original
        return r.wall_s, sum(busy)

    def parse(self):
        return None  # the cases are parsed inside run_sweep

    def check(self) -> list[str]:
        if len(self.rows) != len(self.cases):
            return [f"sweep returned {len(self.rows)} rows for {len(self.cases)} cases"]
        fails, arrays = [], []
        rerun = self.seed % len(self.cases)  # this case is rerun here for the artifact check
        for i, ((gamma, omega0), row) in enumerate(zip(self.cases, self.rows)):
            if row["status"] != "ok":
                continue  # counted as a failed operation
            if row["seed"] != self.seed + i or float(row["controller.gamma"]) != gamma \
                    or float(row["controller.omega0"]) != omega0:
                fails.append(f"case {i}: sweep row {row} is not case ({gamma}, {omega0})")
            cols, meta = cli.read_trajectory_csv(self.case_dir(i) / "trajectory.csv")
            rec = checks.record_from_columns(cols, meta)
            arrays += [(f"case{i}.{name}", col) for name, col in cols.items()]
            fails += [f"case {i}: {f}" for f in
                      checks.kinematics(rec) + checks.lyapunov(rec)
                      + checks.velocity_law(rec, gamma)]
            tail = rec["t"] >= 0.5 * SWEEP_DURATION
            worst = np.hypot(rec["x"][tail].mean(axis=1) - rec["target_pos"][tail, 0],
                             rec["y"][tail].mean(axis=1) - rec["target_pos"][tail, 1]).max()
            if abs(worst - row["beta_max_after_transient"]) > 1e-9 * max(1.0, worst):
                fails.append(f"case {i}: sweep.csv worst distance "
                             f"{row['beta_max_after_transient']!r} vs {worst!r} from positions")
            if i == rerun:
                text = cli.override_scenario_text(self.text, "controller", "gamma", repr(gamma))
                text = cli.override_scenario_text(text, "controller", "omega0", repr(omega0))
                log = engine.run(scenario.parse_scenario_text(text, seed_override=self.seed + i))
                fails += [f"case {i}: {f}" for f in
                          checks.csv_matches(checks.record_from_log(log), cols, meta)]
        self._fingerprint = checks.fingerprint(arrays)
        return fails

    def fingerprint(self) -> str:
        return self._fingerprint


# --------------------------------------------------------------------------
# Convergence study


FLOW_SPEEDS = (10.0, 12.0, 16.0)
FLOW_GAMMAS = (0.02, 0.05, 0.1, 0.2)
FLOW_BATCH = 2000
FLOW_DT = 0.05
FLOW_STEPS = 2400


class Convergence:
    """`analysis.simulate_phase_flow` over random initial headings, as in
    scripts/convergence_study.py: 2000 draws x 4 gains x 2400 steps."""

    name = "convergence"
    workers = 1

    def __init__(self, seed: int, out: Path):
        self.speeds = np.array(FLOW_SPEEDS)
        rng = np.random.default_rng(seed)
        self.headings0 = rng.uniform(-np.pi, np.pi, size=(FLOW_BATCH, self.speeds.size))
        self.ref = np.array([0.15 * self.speeds.min(), 0.0])
        self.fails: list[str] | None = None
        self.table = []
        self._fingerprint = "none"

    def parse(self):
        return None

    def round(self) -> Round:
        """One study. The first round's outputs are checked between the timed
        calls, since the study keeps none of its 38 MB V histories; later rounds
        must match its fingerprint."""
        check = self.fails is None
        self.fails = self.fails or []
        wall = sim = 0.0
        h = hashlib.sha256()
        self.table = []
        for gamma in FLOW_GAMMAS:
            t0 = _clock()
            V, th = analysis.simulate_phase_flow(self.speeds, self.ref, gamma, self.headings0,
                                                 FLOW_DT, FLOW_STEPS)
            t1 = _clock()
            below = V < 1e-6
            hit = below.any(axis=1)
            t_hit = np.argmax(below, axis=1)[hit] * FLOW_DT
            self.table.append((gamma, hit.mean(), np.median(t_hit) if hit.any() else math.nan,
                               V[:, -1].max()))
            wall += _clock() - t0
            sim += t1 - t0
            h.update(checks.fingerprint([("V", V), ("theta", th)]).encode())
            if check:
                self._check_gain(gamma, V)
            del V, th
        self._fingerprint = h.hexdigest()
        steps = FLOW_BATCH * self.speeds.size * FLOW_STEPS * len(FLOW_GAMMAS)
        return Round(wall, sim, steps, len(FLOW_GAMMAS), 0, self._fingerprint)

    def _check_gain(self, gamma: float, V):
        fails = checks.heading_flow(V, self.speeds)
        rows = [0, 1, FLOW_BATCH // 2, FLOW_BATCH - 1]
        V_ref = checks.heading_flow_reference(self.speeds, self.ref, gamma,
                                              self.headings0[rows], FLOW_DT, FLOW_STEPS)
        fails += checks.rows_match(V, V_ref, rows)
        self.fails += [f"gamma {gamma:g}: {f}" for f in fails]

    def check(self) -> list[str]:
        return list(self.fails)

    def fingerprint(self) -> str:
        return self._fingerprint


WORKLOADS = {w.name: w for w in (Replay, Swarm48, GainSweep, Convergence)}
