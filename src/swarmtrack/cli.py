"""Command-line front end.

Subcommands:
    run                simulate a scenario file, write artifacts to --out
    sweep              cross-product parameter sweep over a base scenario
    classify           equilibrium classification for a heading configuration
    feasibility        speed feasibility check
    replay-experiment  run the bundled field-experiment scenario

Artifacts written by `run` (and per sweep case): trajectory.csv (one row per
control step, wide format), summary.json, plot.gp (gnuplot script). Exit codes:
0 success, 1 usage/parse/abort errors, 2 infeasible speed set. The scenario
parser checks the speed set, so an infeasible file exits 1 naming the offending
speed's line; exit code 2 comes only from `feasibility`.
"""

from __future__ import annotations

import argparse
import concurrent.futures
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
from .engine import AGENT, RECORD_FIELDS, RunLog, ScenarioConfig, SimulationAborted, run
from .scenario import REPEATABLE_KEYS, ScenarioError, parse_scenario_text

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


def _clean(value):
    """Make a value JSON-friendly; NaN becomes None."""
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return None if math.isnan(v) else v
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


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
            "agent_rate": config.network.agent_rate,
            "target_rate": config.network.target_rate,
            "loss_probability": config.network.loss_probability,
            "delay": config.network.delay,
            "jitter": config.network.jitter,
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


# --------------------------------------------------------------------------
# sweep


def override_scenario_text(text: str, section: str, key: str, value: str) -> str:
    """Return text with `key = value` set inside every [section] block.

    Replaces the key where present, otherwise appends it at the end of the
    section block. The section must exist.
    """
    lines = text.splitlines()
    out = []
    in_section = False
    found_section = False
    replaced = False
    for line in lines:
        stripped = line.strip()
        if stripped.startswith("["):
            if in_section and not replaced:
                out.append(f"{key} = {value}")
            in_section = stripped.lower() == f"[{section.lower()}]"
            if in_section:
                found_section = True
                replaced = False
            out.append(line)
            continue
        if in_section and "=" in stripped and not stripped.startswith(("#", ";")):
            k = stripped.partition("=")[0].strip().lower()
            if k == key.lower():
                out.append(f"{key} = {value}")
                replaced = True
                continue
        out.append(line)
    if in_section and not replaced:
        out.append(f"{key} = {value}")
    if not found_section:
        raise ScenarioError(f"sweep parameter targets missing section [{section}]")
    return "\n".join(out) + "\n"


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


def _run_sweep_case(args):
    """One sweep grid point; module-level so process pools can pickle it."""
    index, text, overrides, out_dir, seed, allow_infeasible = args
    try:
        for section, key, value in overrides:
            text = override_scenario_text(text, section, key, value)
        config = parse_scenario_text(text, seed_override=seed,
                                     allow_infeasible=allow_infeasible)
        log = run(config)
        summary = write_artifacts(log, out_dir, config)
        m = summary["metrics"]
        return index, "ok", {
            "final_V": m["final_V"],
            "beta_mean_after_transient": m["beta"]["mean_after_transient"],
            "beta_max_after_transient": m["beta"]["max_after_transient"],
            "max_dist_after_transient": m["spacing"]["max_dist_after_transient"],
            "delivered_ratio": m["network"]["delivered_ratio"],
        }
    except (ScenarioError, SimulationAborted) as exc:
        return index, f"error: {exc}", {}


def run_sweep(text: str, params, out_dir, base_seed: int, parallel: int = 1,
              allow_infeasible: bool = False) -> list[dict]:
    """Cross-product sweep. Each case writes artifacts under out/case_XXX and
    one row into out/sweep.csv. Per-case failures are recorded, not fatal.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grids = [[(section, key, v) for v in values] for section, key, values in params]
    cases = list(itertools.product(*grids)) if params else []
    jobs = [
        (i, text, combo, str(out / f"case_{i:03d}"), base_seed + i, allow_infeasible)
        for i, combo in enumerate(cases)
    ]
    if parallel > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=parallel) as pool:
            results = list(pool.map(_run_sweep_case, jobs))
    else:
        results = [_run_sweep_case(job) for job in jobs]

    metric_names = ["final_V", "beta_mean_after_transient", "beta_max_after_transient",
                    "max_dist_after_transient", "delivered_ratio"]
    param_names = [f"{section}.{key}" for section, key, _ in params]
    rows = []
    for (index, status, metrics), combo in zip(results, cases):
        row = {"case": index, "seed": base_seed + index, "status": status}
        for (section, key, value) in combo:
            row[f"{section}.{key}"] = value
        for name in metric_names:
            row[name] = metrics.get(name)
        rows.append(row)

    with open(out / "sweep.csv", "w", encoding="utf-8", newline="\n") as fh:
        header = ["case", "seed"] + param_names + metric_names + ["status"]
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for name in header:
                v = row.get(name)
                if isinstance(v, float):
                    cells.append(_FLOAT_FMT % v)
                elif v is None:
                    cells.append("")
                else:
                    cells.append(str(v).replace(",", ";"))
            fh.write(",".join(cells) + "\n")
    return rows


# --------------------------------------------------------------------------
# subcommand implementations


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in text.replace(",", " ").split()]


def _cmd_run(args) -> int:
    path = Path(args.scenario)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        config = parse_scenario_text(text, seed_override=args.seed,
                                     allow_infeasible=args.allow_infeasible)
    except ScenarioError as exc:
        print(f"error: {path.name}: {exc}", file=sys.stderr)
        return 1
    return _execute(config, args.out)


def _execute(config: ScenarioConfig, out_dir) -> int:
    try:
        log = run(config)
    except SimulationAborted as exc:
        write_artifacts(exc.log, out_dir, config)
        print(f"aborted: {exc} (partial artifacts in {out_dir})", file=sys.stderr)
        return 1
    summary = write_artifacts(log, out_dir, config)
    m = summary["metrics"]
    beta = m["beta"]
    print(f"wrote {Path(out_dir) / 'trajectory.csv'} ({m['rows']} rows)")
    print(f"final V = {m['final_V']:.6g}")
    if beta["mean_after_transient"] is not None:
        print(f"|centroid - target| after t={m['transient_time']:g}: "
              f"mean {beta['mean_after_transient']:.6g} m, "
              f"max {beta['max_after_transient']:.6g} m")
    if m["network"]["delivered_ratio"] is not None:
        print(f"network delivered ratio: {m['network']['delivered_ratio']:.4f}")
    return 0


def _cmd_sweep(args) -> int:
    path = Path(args.scenario)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        params = [_parse_sweep_param(p) for p in (args.param or [])]
        for section, key, _ in params:
            if section == "agents":
                raise ScenarioError(
                    "sweeping [agents] keys is not supported (sections repeat per agent)"
                )
            if (section, key) in REPEATABLE_KEYS:
                raise ScenarioError(
                    f"sweeping the repeatable key {section}.{key} is not supported "
                    f"(every '{key}' line would get the same value)"
                )
        rows = run_sweep(text, params, args.out, args.seed, parallel=args.parallel,
                         allow_infeasible=args.allow_infeasible)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failures = [r for r in rows if r["status"] != "ok"]
    print(f"{len(rows)} cases -> {Path(args.out) / 'sweep.csv'} ({len(failures)} failed)")
    for r in failures:
        print(f"  case {r['case']}: {r['status']}", file=sys.stderr)
    return 0


def _cmd_classify(args) -> int:
    try:
        speeds = _parse_floats(args.speeds)
        ref = _parse_floats(args.ref)
        if len(ref) != 2:
            raise ValueError("--ref needs two numbers 'vx,vy'")
        spec = build_equilibrium(speeds, args.m, args.phi, ref)
        rep = perturbation_oracle(spec, epsilon=args.epsilon, samples=args.samples,
                                  seed=args.oracle_seed) if args.oracle else None
    except EquilibriumRejected as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
    try:
        report = check_feasibility(_parse_floats(args.speeds), args.bound)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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


def _cmd_replay(args) -> int:
    text = bundled_scenario_text()
    try:
        config = parse_scenario_text(text, seed_override=args.seed)
    except ScenarioError as exc:
        print(f"error: bundled scenario: {exc}", file=sys.stderr)
        return 1
    return _execute(config, args.out)


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
    p.set_defaults(func=_cmd_replay)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
