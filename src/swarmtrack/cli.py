"""Command-line front end.

Subcommands:
    run                simulate a scenario file, write artifacts to --out
    sweep              cross-product parameter sweep over a base scenario
    classify           equilibrium classification for a heading configuration
    feasibility        speed feasibility check
    replay-experiment  run the bundled field-experiment scenario

Artifacts written by `run` (and per sweep case): trajectory.csv (one row per
control step, wide format), summary.json, plot.gp (gnuplot script). A run ends
"ok", "aborted: ..." (non-finite state; partial artifacts written) or
"error: ..." (a log too long to allocate, artifacts that cannot be written).
`run` prints a status other than "ok" and exits 1; `sweep` records it in the
case's row. `main` reports a failed command in one "rejected: ..." or
"error: ..." line and exits 1. Exit code 2, an infeasible speed set, comes only
from `feasibility`; the parser refuses an infeasible file at its speed's line.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import itertools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .analysis import (
    EquilibriumRejected,
    build_equilibrium,
    check_feasibility,
    classify_equilibrium,
    perturbation_oracle,
)
from .engine import (AGENT, RECORD_FIELDS, RunLog, ScenarioConfig, SimulationAborted, batch_key,
                     log_bytes, run, run_batch)
from .scenario import ScenarioError, override_scenario_text, parse_scenario_text

_FLOAT_FMT = "%.17g"  # shortest-guaranteed round trip for binary64


# --------------------------------------------------------------------------
# trajectory.csv


def _csv_layout(n: int) -> list[tuple]:
    """(CSV name, RunLog field, column of that field or None), in file order.

    The per-step fields of RunLog in declaration order, named as declared
    (`engine.RECORD_FIELDS`), except that the per-agent fields form one block
    per agent, in agent order, where the first of them is declared; a
    per-agent column is named with the agent's 1-based number.
    """
    agent_fields = [(name, csv) for name, row, _, csv in RECORD_FIELDS if row == (AGENT,)]
    layout = []
    for name, row, _, csv in RECORD_FIELDS:
        if name == agent_fields[0][0]:
            layout += [(f"{prefix}{k + 1}", field, k)
                       for k in range(n) for field, prefix in agent_fields]
        elif row == (2,):
            layout += [(pair_name, name, i) for i, pair_name in enumerate(csv)]
        elif row == ():
            layout.append((csv, name, None))
    return layout


def csv_columns(n: int) -> list[str]:
    """Header names for an n-agent log, in file order."""
    return [name for name, _, _ in _csv_layout(n)]


def _log_columns(log: RunLog) -> dict:
    """The CSV columns of a log in file order, as views of its arrays.

    The integer counters are converted to floats, the values the CSV holds.
    """
    columns = {}
    for name, field, i in _csv_layout(log.n):
        values = getattr(log, field)
        if i is not None:
            values = values[:, i]
        columns[name] = values if values.dtype == np.float64 else values.astype(float)
    return columns


def write_trajectory_csv(log: RunLog, path):
    """Write the run log in wide CSV form, one row per control step.

    Floats use 17 significant digits, so every value round-trips exactly.
    Leading '#' comment lines carry run parameters for tools that want them;
    CSV consumers can skip them.
    """
    path = Path(path)
    header = ",".join(csv_columns(log.n))
    speeds = " ".join(_FLOAT_FMT % v for v in log.speeds)
    comments = (
        f"# speeds = {speeds}\n"
        f"# dt = {_FLOAT_FMT % log.dt}\n"
        f"# seed = {log.seed}\n"
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(comments)
        np.savetxt(fh, np.column_stack(list(_log_columns(log).values())),
                   fmt=_FLOAT_FMT, delimiter=",",
                   header=header, comments="")


def read_trajectory_csv(path):
    """Read a trajectory.csv back as (columns dict, meta dict)."""
    path = Path(path)
    meta: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        line = fh.readline()
        while line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
            line = fh.readline()
        if not line:
            raise ValueError(f"{path}: no header row")
        names = line.rstrip("\r\n").split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(names):
        raise ValueError(f"{path}: {len(names)} header fields but {data.shape[1]} columns")
    return {name: data[:, i] for i, name in enumerate(names)}, meta


# --------------------------------------------------------------------------
# summary.json


def _clean(value) -> float | None:
    """A metric as a JSON float; NaN becomes None."""
    v = float(value)
    return None if math.isnan(v) else v


def summarize_columns(cols: dict, dt: float) -> dict:
    """Run metrics from CSV columns alone (so summaries are reproducible
    from the trajectory file by anyone, without rerunning the simulation).

    The transient is the first half of the run; after-transient statistics
    are taken over t >= transient_time.
    """
    t = cols["t"]
    rows = len(t)
    duration = rows * dt
    transient_time = 0.5 * duration
    tail = t >= transient_time
    if not tail.any():
        tail = np.ones(rows, dtype=bool)

    n = 0
    while f"x{n + 1}" in cols:
        n += 1
    dists = np.column_stack([cols[f"dist{k}"] for k in range(1, n + 1)])
    beta = cols["beta_norm"]
    has_target = bool(np.isfinite(beta).all())

    out = {
        "rows": rows,
        "n_agents": n,
        "duration": _clean(duration),
        "transient_time": _clean(transient_time),
        "final_V": _clean(cols["V"][-1]),
        "max_V": _clean(cols["V"].max()),
        "final_alpha_norm": _clean(cols["alpha_norm"][-1]),
        "max_alpha_after_transient": _clean(cols["alpha_norm"][tail].max()),
        "beta": {
            "final": _clean(beta[-1]) if has_target else None,
            "max_overall": _clean(beta.max()) if has_target else None,
            "max_after_transient": _clean(beta[tail].max()) if has_target else None,
            "mean_after_transient": _clean(beta[tail].mean()) if has_target else None,
        },
        "spacing": {
            "max_dist": _clean(dists.max()),
            "mean_dist_after_transient": _clean(dists[tail].mean()),
            "max_dist_after_transient": _clean(dists[tail].max()),
            "final_max_dist": _clean(dists[-1].max()),
        },
        "network": {
            "sent": _clean(cols["net_sent"][-1]),
            "pair_decisions": _clean(cols["net_decisions"][-1]),
            "delivered": _clean(cols["net_delivered"][-1]),
            "dropped": _clean(cols["net_dropped"][-1]),
            "delivered_ratio": _clean(
                cols["net_delivered"][-1] / cols["net_decisions"][-1]
            ) if cols["net_decisions"][-1] > 0 else None,
            "max_stale_per_step": _clean(cols["stale_count"].max()),
        },
    }
    return out


def summarize(log: RunLog, config: ScenarioConfig | None = None) -> dict:
    """Build the summary dict for a run.

    The "metrics" group is computed purely from the CSV column data; the
    "config" group carries provenance (speeds, seed, feasibility verdict,
    network settings) copied from the run setup.
    """
    summary = {
        "config": {
            "n_agents": log.n,
            "speeds": [float(v) for v in log.speeds],
            "dt": log.dt,
            "seed": log.seed,
            "aborted": log.aborted,
        },
        "metrics": summarize_columns(_log_columns(log), log.dt),
    }
    report = log.meta.get("feasibility")
    if report is not None:
        summary["config"]["feasibility"] = asdict(report)
    if config is not None and config.network is not None:
        summary["config"]["network"] = {
            **asdict(config.network),
            "bits_per_s_per_agent": config.network.bandwidth_bits_per_s(),
        }
    return summary


def write_summary(summary: dict, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")


# --------------------------------------------------------------------------
# plot.gp


def write_plot_script(path, n: int):
    """Emit a gnuplot script: planar trajectories + distance traces."""
    col = {name: i for i, name in enumerate(csv_columns(n), start=1)}  # 1-based
    agent_plots = ", \\\n     ".join(
        f"'' using {col[f'x{k}']}:{col[f'y{k}']} with lines lw 1 title 'agent {k}'"
        for k in range(1, n + 1)
    )
    dist_plots = ", \\\n     ".join(
        f"'' using 1:{col[f'dist{k}']} with lines lw 1 title 'agent {k} to centroid'"
        for k in range(1, n + 1)
    )
    script = f"""\
# Usage: gnuplot plot.gp   (writes trajectory.png and distances.png)
set datafile separator comma
set key outside right
set grid

set terminal pngcairo size 1000,800
set output 'trajectory.png'
set size ratio -1
set xlabel 'x [m]'
set ylabel 'y [m]'
plot 'trajectory.csv' using {col['centroid_x']}:{col['centroid_y']} with lines lw 2 title 'centroid', \\
     '' using {col['target_x']}:{col['target_y']} with lines lw 2 title 'target', \\
     '' using {col['ref_x']}:{col['ref_y']} with lines dashtype 2 title 'reference', \\
     {agent_plots}

set output 'distances.png'
set size noratio
set xlabel 't [s]'
set ylabel 'distance [m]'
plot 'trajectory.csv' using 1:{col['beta_norm']} with lines lw 2 title '|centroid - target|', \\
     {dist_plots}
"""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(script)


def write_artifacts(log: RunLog, out_dir, config: ScenarioConfig | None = None) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(log, out / "trajectory.csv")
    summary = summarize(log, config)
    write_summary(summary, out / "summary.json")
    write_plot_script(out / "plot.gp", log.n)
    return summary


def _run_case(config: ScenarioConfig, out_dir) -> tuple[str, dict | None]:
    """Run a config and write its artifacts to out_dir: (status, summary). The status
    is "ok", "aborted: <why> (partial artifacts in <out_dir>)", or "error: <why>" with
    no summary when the log cannot be allocated or the artifacts cannot be written."""
    try:
        log = run(config)
    except SimulationAborted as exc:
        log = exc.log
    except MemoryError as exc:
        return f"error: {exc}", None
    return _write_case(log, config, out_dir)


def _write_case(log: RunLog, config: ScenarioConfig, out_dir) -> tuple[str, dict | None]:
    """Write a run's artifacts to out_dir: the (status, summary) of `_run_case`."""
    try:
        summary = write_artifacts(log, out_dir, config)
    except (MemoryError, OSError) as exc:
        return f"error: {exc}", None
    if log.aborted is not None:
        return f"aborted: {log.aborted} (partial artifacts in {out_dir})", summary
    return "ok", summary


# --------------------------------------------------------------------------
# sweep


def _parse_sweep_param(spec: str):
    """'controller.gamma=0.001,0.01' -> ('controller', 'gamma', ['0.001', '0.01'])"""
    head, eq, tail = spec.partition("=")
    if not eq or "." not in head:
        raise ScenarioError(f"bad --param '{spec}': expected SECTION.KEY=v1,v2,...")
    section, _, key = head.strip().partition(".")
    values = [v.strip() for v in tail.split(",") if v.strip()]
    if not values:
        raise ScenarioError(f"bad --param '{spec}': no values given")
    return section.strip().lower(), key.strip().lower(), values


# Most log bytes one sweep batch holds at once. Same-shape cases run in lock
# step up to this size; a case whose log alone is larger runs by itself.
BATCH_LOG_BYTES = 8 * 2**20

_SWEEP_METRICS = ("final_V", "beta_mean_after_transient", "beta_max_after_transient",
                 "max_dist_after_transient", "delivered_ratio")


def _run_sweep_case(batch):
    """Run one batch of same-shape sweep cases in lock step and write each case's
    artifacts: one (index, status, metrics of an "ok" case) per case. batch is a
    list of (index, config, out_dir). A batch that cannot be set up (its logs or
    a network plan too large) runs again one case at a time, so that the error
    is its failing case's alone. Module-level so process pools can pickle it."""
    try:
        logs = run_batch([config for _, config, _ in batch])
    except MemoryError as exc:
        if len(batch) > 1:
            return [row for job in batch for row in _run_sweep_case([job])]
        return [(batch[0][0], f"error: {exc}", {})]
    rows = []
    for (index, config, out_dir), log in zip(batch, logs):
        status, summary = _write_case(log, config, out_dir)
        metrics = {}
        if status == "ok":
            m = summary["metrics"]
            metrics = dict(zip(_SWEEP_METRICS, (
                m["final_V"], m["beta"]["mean_after_transient"], m["beta"]["max_after_transient"],
                m["spacing"]["max_dist_after_transient"], m["network"]["delivered_ratio"])))
        rows.append((index, status, metrics))
    return rows


def _sweep_batches(jobs, workers: int) -> list[list]:
    """The (index, config, out_dir) jobs as batches for `_run_sweep_case`: the
    cases of one `engine.batch_key` split into balanced batches, as few as
    BATCH_LOG_BYTES allows but at least one per worker."""
    groups = {}
    for job in jobs:
        groups.setdefault(batch_key(job[1]), []).append(job)
    batches = []
    for group in groups.values():
        per_batch = max(1, BATCH_LOG_BYTES // log_bytes(group[0][1]))
        count = max(-(-len(group) // per_batch), min(workers, len(group)))
        bounds = [len(group) * i // count for i in range(count + 1)]
        batches += [group[a:b] for a, b in zip(bounds, bounds[1:])]
    return batches


def run_sweep(text: str, params, out_dir, base_seed: int, parallel: int = 1) -> list[dict]:
    """Cross-product sweep. Each case writes artifacts under out/case_XXX and
    one row into out/sweep.csv; case i runs at seed base_seed + i.

    Every case's text is built and parsed before any case runs, so a
    parameter that `override_scenario_text` refuses, `sim.seed`, or a
    SECTION.KEY given twice raises ScenarioError with nothing written. The
    cases that share an `engine.batch_key` run in lock step,
    in batches of at most BATCH_LOG_BYTES of logs; `parallel` worker
    processes share the batches. A case that fails to parse, aborts or cannot
    be written is recorded in its row, not fatal.
    """
    param_names = [f"{section}.{key}" for section, key, _ in params]
    for name in param_names:
        if param_names.count(name) > 1:
            raise ScenarioError(f"{name} is given twice (give all its values in one --param)")
    if "sim.seed" in param_names:
        raise ScenarioError("sweeping sim.seed is not supported (case i runs at the base seed + i)")
    out = Path(out_dir)
    cases = list(itertools.product(*(values for *_, values in params))) if params else []
    results, jobs = {}, []
    for i, case in enumerate(cases):
        case_text = text
        for (section, key, _), value in zip(params, case):
            case_text = override_scenario_text(case_text, section, key, value)
        try:
            config = parse_scenario_text(case_text, seed_override=base_seed + i)
        except ValueError as exc:
            results[i] = (f"error: {exc}", {})
            continue
        jobs.append((i, config, str(out / f"case_{i:03d}")))
    out.mkdir(parents=True, exist_ok=True)
    batches = _sweep_batches(jobs, parallel)
    if parallel > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=parallel) as pool:
            done = list(pool.map(_run_sweep_case, batches))
    else:
        done = [_run_sweep_case(batch) for batch in batches]
    results.update((index, (status, metrics)) for batch in done for index, status, metrics in batch)

    rows = []
    for i, case in enumerate(cases):
        status, metrics = results[i]
        row = {"case": i, "seed": base_seed + i, "status": status}
        row.update(zip(param_names, case))
        for name in _SWEEP_METRICS:
            row[name] = metrics.get(name)
        rows.append(row)

    with open(out / "sweep.csv", "w", encoding="utf-8", newline="") as fh:
        header = ["case", "seed"] + param_names + list(_SWEEP_METRICS) + ["status"]
        # csv quotes a cell that holds a comma and writes None as an empty cell
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_FLOAT_FMT % v if isinstance(v, float) else v
                             for v in map(row.get, header)])
    return rows


# --------------------------------------------------------------------------
# subcommand implementations


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in text.replace(",", " ").split()]


def _scenario_text(args) -> str:
    """The text a command runs: its --scenario file, or the bundled one when it
    has none, with `[sim] allow_infeasible` set by --allow-infeasible. A file
    that cannot be read raises ScenarioError naming it as it was given."""
    try:
        text = (Path(args.scenario).read_text(encoding="utf-8") if args.scenario
                else bundled_scenario_text())
    except (OSError, UnicodeError) as exc:
        raise ScenarioError(f"{args.scenario or 'bundled scenario'}: {exc}") from None
    if args.allow_infeasible:
        text = override_scenario_text(text, "sim", "allow_infeasible", "on")
    return text


def _cmd_run(args) -> int:
    text = _scenario_text(args)
    try:
        config = parse_scenario_text(text, seed_override=args.seed)
    except ValueError as exc:
        print(f"error: {args.scenario or 'bundled scenario'}: {exc}", file=sys.stderr)
        return 1
    status, summary = _run_case(config, args.out)
    if status != "ok":
        print(status, file=sys.stderr)
        return 1
    m = summary["metrics"]
    beta = m["beta"]
    print(f"wrote {Path(args.out) / 'trajectory.csv'} ({m['rows']} rows)")
    print(f"final V = {m['final_V']:.6g}")
    if beta["mean_after_transient"] is not None:
        print(f"|centroid - target| after t={m['transient_time']:g}: "
              f"mean {beta['mean_after_transient']:.6g} m, "
              f"max {beta['max_after_transient']:.6g} m")
    if m["network"]["delivered_ratio"] is not None:
        print(f"network delivered ratio: {m['network']['delivered_ratio']:.4f}")
    return 0


def _cmd_sweep(args) -> int:
    text = _scenario_text(args)
    params = [_parse_sweep_param(p) for p in (args.param or [])]
    rows = run_sweep(text, params, args.out, args.seed, parallel=args.parallel)
    failures = [r for r in rows if r["status"] != "ok"]
    print(f"{len(rows)} cases -> {Path(args.out) / 'sweep.csv'} ({len(failures)} failed)")
    for r in failures:
        print(f"  case {r['case']}: {r['status']}", file=sys.stderr)
    return 0


def _cmd_classify(args) -> int:
    speeds = _parse_floats(args.speeds)
    ref = _parse_floats(args.ref)
    if len(ref) != 2:
        raise ValueError("--ref needs two numbers 'vx,vy'")
    spec = build_equilibrium(speeds, args.m, args.phi, ref)
    rep = perturbation_oracle(spec, epsilon=args.epsilon, samples=args.samples,
                              seed=args.oracle_seed) if args.oracle else None
    verdict = classify_equilibrium(spec)
    print(f"class: {verdict.klass.value}")
    print(f"anti-aligned count m = {verdict.m}" + (" (after reflection)" if spec.reflected else ""))
    print("eigenvalues: " + " ".join(f"{v:.9g}" for v in verdict.eigenvalues))
    print(f"descent direction: {'yes' if verdict.has_descent_direction else 'no'}")
    print(f"ascent direction: {'yes' if verdict.has_ascent_direction else 'no'}")
    if rep is not None:
        print(
            f"perturbation oracle ({rep.samples} samples, eps={args.epsilon:g}): "
            f"{rep.decreased} decreased V, {rep.increased} increased V"
        )
    return 0


def _cmd_feasibility(args) -> int:
    report = check_feasibility(_parse_floats(args.speeds), args.bound)
    print(f"slowest speed {report.v_min:g} vs reference speed bound {report.ref_speed_bound:g}: "
          + ("ok" if report.condition1_ok else "VIOLATED"))
    print(f"fastest speed {report.v_max:g} vs sum of others {report.sum_others:g}: "
          + ("ok" if report.condition2_ok else "VIOLATED"))
    verdict = "feasible" if report.feasible else "infeasible"
    if report.feasible and report.marginal:
        verdict += " (marginal: an inequality holds with equality)"
    print(verdict)
    return 0 if report.feasible else 2


def bundled_scenario_text() -> str:
    """The bundled field-experiment scenario file."""
    from importlib import resources

    return (resources.files("swarmtrack.scenarios") / "experiment_replay.ini").read_text(
        encoding="utf-8"
    )


# --------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmtrack",
        description="Constant-speed swarm tracking: simulation, sweeps, and analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="simulate a scenario file")
    p.add_argument("--scenario", required=True, help="scenario file path")
    p.add_argument("--out", default="out", help="artifact directory (default: out)")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--allow-infeasible", action="store_true",
                   help="run even if the speed feasibility check fails")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="cross-product parameter sweep")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", default="sweep_out")
    p.add_argument("--param", action="append", default=None,
                   metavar="SECTION.KEY=V1,V2,...",
                   help="values to sweep; repeat for a cross product")
    p.add_argument("--seed", type=int, default=0, help="base seed; case i uses seed+i")
    p.add_argument("--parallel", type=int, default=1, help="worker processes")
    p.add_argument("--allow-infeasible", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("classify", help="classify a heading equilibrium")
    p.add_argument("--speeds", required=True, help="comma-separated agent speeds")
    p.add_argument("--m", type=int, required=True,
                   help="number of agents anti-aligned with the error direction")
    p.add_argument("--phi", type=float, default=0.0, help="error direction angle [rad]")
    p.add_argument("--ref", default="0,0", help="reference velocity 'vx,vy'")
    p.add_argument("--oracle", action="store_true",
                   help="also run the random-perturbation check")
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--oracle-seed", type=int, default=0)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("feasibility", help="check the speed feasibility conditions")
    p.add_argument("--speeds", required=True, help="comma-separated agent speeds")
    p.add_argument("--bound", type=float, required=True,
                   help="worst-case reference speed to support")
    p.set_defaults(func=_cmd_feasibility)

    p = sub.add_parser("replay-experiment", help="run the bundled field scenario")
    p.add_argument("--out", default="replay_out")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_run, scenario=None, allow_infeasible=False)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EquilibriumRejected as exc:
        print(f"rejected: {exc}", file=sys.stderr)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
