"""swarmtrack benchmark: one workload, measured end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload replay --seed 7 --seconds 25 --trace 0

With --trace 0 it sets the workload up several times in fresh interpreters
(median set-up time), then runs as many whole rounds of the workload as fit
in --seconds (at least one) and reports the end-to-end metrics of
BENCHMARK.json, medians over rounds. With --trace 1 it runs one round
untraced and one round with spans around the package's public functions, and
reports the per-layer metrics and the tracing overhead. Either way the
outputs are checked (perfbench/checks.py), the log fingerprint is printed,
and the last line of stdout is one JSON object: correct, attempted, failed,
metrics.

Outputs (artifacts, span tables) go to perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One set-up takes about 0.2 s and varies by about 20% from one to the next.
SETUP_REPEATS = 11


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over SETUP_REPEATS fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(probe.stdout.split()[-1]))
    return statistics.median(times)


def peak_rss_mb(workers: int) -> float:
    """Peak resident memory of this process, plus `workers` times the largest
    child's when the workload runs a worker pool (an upper bound on the pool)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (own + workers * kids) / 1024.0


def measure(w, seconds: float, seed: int) -> tuple[dict, list]:
    """End-to-end metrics: whole rounds within `seconds` (at least one),
    medians over rounds. Returns (metrics, rounds)."""
    setup = setup_seconds(w.name, seed)
    rounds = []
    t_start = time.perf_counter()
    while True:
        rounds.append(w.round())
        elapsed = time.perf_counter() - t_start
        # start another round only if it should end within `seconds`
        if elapsed + elapsed / len(rounds) > seconds:
            break
    metrics = {
        "setup_s": setup,
        "wall_s": statistics.median(r.wall_s for r in rounds),
        "agent_steps_per_s": statistics.median(r.agent_steps / r.sim_s for r in rounds),
        "peak_rss_mb": peak_rss_mb(w.workers),
    }
    return metrics, rounds


def traced(w, out: Path) -> tuple[dict, list, list]:
    """Per-layer metrics: one untraced round, then one traced round and its
    checks. The two rounds must give the same outputs.

    The traced gain sweep runs its cases in this process, so that no span is
    lost in a worker; its pool overhead comes from the untraced rounds.
    """
    from perfbench import trace

    pool = {}
    rounds = [w.round()]
    if w.name == "gain_sweep":  # the first round with its worker pool, as measured end to end
        pool = {"workers": w.workers, "pool_wall_s": rounds[0].wall_s}
        _, pool["case_busy_s"] = w.serial_busy()
    tracer = trace.Tracer()
    with tracer.installed():
        w.parse()
        rounds.append(w.round(parallel=1) if w.name == "gain_sweep" else w.round())
        metrics = trace.layer_metrics(tracer, **pool)
        metrics["trace.overhead_s"] = trace.overhead_s(tracer)
        # the checks read the artifacts back; nothing else of them is counted
        fails = w.check()
        metrics["cli.csv_read_s"] = tracer.self_s("cli.csv_read")
    out.mkdir(parents=True, exist_ok=True)
    tracer.save(out / "trace_spans.npz")
    return metrics, rounds, fails


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "swarmtrack" / "__init__.py").is_file():
        print(f"error: no swarmtrack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} ({', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2
    out = ROOT / "perfbench_out" / args.workload
    w = WORKLOADS[args.workload](args.seed, ROOT / "perfbench_out")

    if args.trace:
        metrics, rounds, fails = traced(w, out)
        declared = spec["per_layer"]
    else:
        metrics, rounds = measure(w, args.seconds, args.seed)
        fails = w.check()
        declared = spec["end_to_end"]
    if len({r.fingerprint for r in rounds}) > 1:
        fails.append("rounds of one run gave different outputs: "
                     + ", ".join(r.fingerprint[:12] for r in rounds))

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise SystemExit(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    print(f"fingerprint {args.workload} seed={args.seed} sha256={w.fingerprint()}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for f in fails:
        print(f"CHECK FAILED: {args.workload}: {f}", file=sys.stderr)
    result = {
        "correct": not fails,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
