"""Spans around the package's public functions, recorded from outside.

`Tracer.install()` replaces module attributes (`swarmtrack.engine.control_terms`,
`BroadcastNetwork.advance`, ...) with wrappers that record one span per call:
the layer name, start, end and the enclosing span. Spans are kept in memory
and written out by `save`. A layer's self time is its span time minus the
time of the spans directly inside it. Nothing inside the package is changed;
`uninstall()` puts every original back.
"""

from __future__ import annotations

import os
import statistics
import time
from array import array
from contextlib import contextmanager

import numpy as np

from swarmtrack import analysis, cli, engine, netsim, reference, scenario

# (owner, attribute, span name). A function the engine imported by name is
# patched in the engine's namespace, where the loop looks it up.
SPANNED = (
    (scenario, "parse_scenario_text", "scenario.parse"),
    (cli, "parse_scenario_text", "scenario.parse"),
    (engine, "run", "engine.run"),
    (cli, "run", "engine.run"),
    (engine, "target_state", "reference.target_state"),
    (reference.ConstantVelocityTarget, "acceleration", "reference.acceleration"),
    (reference.TurningTarget, "acceleration", "reference.acceleration"),
    (reference.WaypointTarget, "acceleration", "reference.acceleration"),
    (engine, "reference_kinematics", "reference.kinematics"),
    (engine, "reference_rates", "reference.rates"),
    (engine, "control_terms", "controllers.control_terms"),
    (engine, "rk4_unicycle_arrays", "dynamics.rk4"),
    (netsim.BroadcastNetwork, "snapshot_for_agent", "netsim.view"),
    (netsim.BroadcastNetwork, "target_estimate", "netsim.view"),
    (netsim.BroadcastNetwork, "advance", "netsim.advance"),
    (cli, "write_artifacts", "cli.write_artifacts"),
    (cli, "write_trajectory_csv", "cli.csv_write"),
    (cli, "read_trajectory_csv", "cli.csv_read"),
    (cli, "summarize", "cli.summary"),
    (cli, "run_sweep", "cli.run_sweep"),
    (cli, "_run_sweep_case", "cli.sweep_case"),
    (analysis, "simulate_phase_flow", "analysis.phase_flow"),
)


class Tracer:
    """In-memory span recorder plus the per-layer counters read at the same calls."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._saved: list = []
        # counters read at the wrapped calls
        self.steps = 0             # engine steps, summed over runs
        self.rows_kept = 0         # vehicles x steps: control rows the vehicles apply
        self.rows_computed = 0     # control rows computed by control_terms
        self.draws = 0             # counter_uniform calls made by netsim
        self.pending_max = 0       # most broadcast messages in flight at once
        self.log_mb_max = 0.0      # largest RunLog, from its array sizes
        self.csv_bytes = 0         # trajectory.csv bytes written
        self.flow_steps = 0        # batched heading-flow steps

    # -- recording -----------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, clock = self._stack, time.perf_counter_ns
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        def wrapper(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            stack.append(sid)
            start[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_run(self, args, kwargs, log):
        self.steps += log.rows
        self.rows_kept += log.rows * log.n
        nbytes = sum(v.nbytes for v in vars(log).values() if isinstance(v, np.ndarray))
        self.log_mb_max = max(self.log_mb_max, nbytes / 2**20)

    def _after_control(self, args, kwargs, result):
        self.rows_computed += len(result[0])

    def _after_csv_write(self, args, kwargs, result):
        self.csv_bytes += os.path.getsize(args[1])

    def _after_flow(self, args, kwargs, result):
        self.flow_steps += args[5] if len(args) > 5 else kwargs["n_steps"]

    def _advance(self, fn):
        """netsim.advance: the in-flight peak is what was pending plus what it queued."""
        def probe(net, *args, **kwargs):
            before = len(net.pending)
            delivered = net.stats.delivered
            result = fn(net, *args, **kwargs)
            self.pending_max = max(self.pending_max, before + net.stats.delivered - delivered)
            return result
        return probe

    def _count_draws(self, fn):
        def counted(*args):
            self.draws += 1
            return fn(*args)
        return counted

    def install(self):
        after = {
            "engine.run": self._after_run,
            "controllers.control_terms": self._after_control,
            "cli.csv_write": self._after_csv_write,
            "analysis.phase_flow": self._after_flow,
        }
        wrapped: dict[int, object] = {}
        for owner, attr, name in SPANNED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            if id(original) not in wrapped:  # one wrapper per function, however many owners
                fn = self._advance(original) if name == "netsim.advance" else original
                wrapped[id(original)] = self._span(name, fn, after.get(name))
            setattr(owner, attr, wrapped[id(original)])
        self._saved.append((netsim, "counter_uniform", netsim.counter_uniform))
        netsim.counter_uniform = self._count_draws(netsim.counter_uniform)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -------------------------------------------------------------

    def spans(self) -> dict:
        """Span table as arrays: name id, parent span, start/end ns, self ns."""
        nid = np.frombuffer(self.name_id, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
        return {
            "name_id": nid, "parent": parent,
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "self_ns": dur - child.astype(np.int64),
        }

    def totals(self) -> dict:
        """Per span name: (calls, self ns)."""
        sp = self.spans()
        calls = np.bincount(sp["name_id"], minlength=len(self.names))
        self_ns = np.bincount(sp["name_id"], weights=sp["self_ns"], minlength=len(self.names))
        return {name: (int(calls[i]), int(self_ns[i])) for i, name in enumerate(self.names)}

    def self_s(self, *names) -> float:
        """Summed self time of the named spans, in seconds."""
        return _summed(self.totals(), 1, names) * 1e-9

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.spans())


def _summed(totals: dict, field: int, names) -> int:
    return sum(totals[n][field] for n in names if n in totals)


def layer_metrics(tr: Tracer, workers: int = 1, pool_wall_s: float = 0.0,
                  case_busy_s: float = 0.0) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced round, except
    `cli.csv_read_s` (the checks' reads) and `trace.overhead_s`.

    Times per step are self times over engine steps (summed over runs); a
    layer that does no work on the workload reads 0.
    """
    tot = tr.totals()

    def calls(*names):
        return _summed(tot, 0, names)

    def self_s(*names):
        return _summed(tot, 1, names) * 1e-9

    per_step = 1e6 / tr.steps if tr.steps else 0.0
    ref = ("reference.target_state", "reference.acceleration",
           "reference.kinematics", "reference.rates")
    parse_calls = calls("scenario.parse")
    return {
        "scenario.parse_ms": self_s("scenario.parse") * 1e3 / parse_calls if parse_calls else 0.0,
        "engine.self_us_per_step": self_s("engine.run") * per_step,
        "engine.log_mb": tr.log_mb_max,
        "reference.us_per_step": self_s(*ref) * per_step,
        "reference.calls_per_step": calls(*ref) / tr.steps if tr.steps else 0.0,
        "controllers.us_per_step": self_s("controllers.control_terms") * per_step,
        "controllers.calls_per_step":
            calls("controllers.control_terms") / tr.steps if tr.steps else 0.0,
        "controllers.rows_kept_ratio":
            tr.rows_kept / tr.rows_computed if tr.rows_computed else 0.0,
        "dynamics.us_per_step": self_s("dynamics.rk4") * per_step,
        "netsim.view_us_per_step": self_s("netsim.view") * per_step,
        "netsim.advance_us_per_step": self_s("netsim.advance") * per_step,
        "netsim.draws_per_step": tr.draws / tr.steps if tr.steps else 0.0,
        "netsim.pending_max": float(tr.pending_max),
        "cli.csv_write_s": self_s("cli.csv_write"),
        "cli.csv_mb": tr.csv_bytes / 2**20,
        "cli.summary_s": self_s("cli.summary"),
        "cli.pool_overhead_s":
            pool_wall_s - case_busy_s / workers if pool_wall_s else 0.0,
        "analysis.phase_flow_us_per_step":
            self_s("analysis.phase_flow") * 1e6 / tr.flow_steps if tr.flow_steps else 0.0,
    }


def overhead_s(tr: Tracer, calls: int = 100_000, blocks: int = 5) -> float:
    """Host time the tracer added to what it recorded, estimated as the spans
    and counted draws times the extra cost of one wrapper call.

    That cost is timed here, around a function that does nothing, as the
    median over `blocks` blocks of `calls` calls. The hooks that read counters
    at a few calls per step are not counted. Timing a traced round against an
    untraced one instead would measure the host's drift between the two
    rounds, which on a shared host exceeds the tracer's cost.
    """
    def noop(*args):
        return None

    probe = Tracer()
    span, draw = probe._span("probe", noop), probe._count_draws(noop)

    def extra(fn) -> float:
        diffs = []
        for _ in range(blocks):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            t1 = time.perf_counter()
            for _ in range(calls):
                noop()
            diffs.append(2 * t1 - t0 - time.perf_counter())
        return max(0.0, statistics.median(diffs)) / calls

    return len(tr.start) * extra(span) + tr.draws * extra(draw)
