"""The tracer records layers without changing what the program computes."""

from __future__ import annotations

import numpy as np

from swarmtrack import cli, engine, netsim, scenario

from perfbench import checks, trace


def _config(duration: float):
    text = cli.override_scenario_text(cli.bundled_scenario_text(), "sim", "duration",
                                      repr(duration))
    return scenario.parse_scenario_text(text)


def test_traced_run_is_bit_identical_and_restores_the_package():
    config = _config(4.0)
    plain = checks.log_fingerprint(engine.run(config))
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr, _ in trace.SPANNED}
    draw = netsim.counter_uniform

    tracer = trace.Tracer()
    with tracer.installed():
        assert engine.control_terms is not originals[(engine, "control_terms")]
        log = engine.run(_config(4.0))
    assert checks.log_fingerprint(log) == plain
    for (owner, attr), fn in originals.items():
        assert owner.__dict__[attr] is fn
    assert netsim.counter_uniform is draw

    m = trace.layer_metrics(tracer)
    steps = log.rows
    assert tracer.steps == steps
    # networked: each of the n agents computes all n rows and keeps its own
    assert m["controllers.calls_per_step"] == log.n
    assert abs(m["controllers.rows_kept_ratio"] - 1.0 / log.n) < 1e-12
    assert m["netsim.draws_per_step"] > 0 and m["netsim.pending_max"] > 0
    assert m["scenario.parse_ms"] > 0 and m["engine.self_us_per_step"] > 0


def test_self_time_excludes_child_spans():
    tracer = trace.Tracer()
    with tracer.installed():
        engine.run(_config(2.0))
    sp = tracer.spans()
    dur = sp["end_ns"] - sp["start_ns"]
    run_span = int(np.flatnonzero(sp["name_id"] == tracer.names.index("engine.run"))[0])
    children = sp["parent"] == run_span
    assert children.sum() > 0 and (sp["self_ns"] >= 0).all()
    assert sp["self_ns"][run_span] == dur[run_span] - dur[children].sum()


def test_overhead_estimate_counts_spans_and_draws():
    tracer = trace.Tracer()
    assert trace.overhead_s(tracer, calls=1000, blocks=1) == 0.0
    with tracer.installed():
        engine.run(_config(2.0))
    assert len(tracer.start) > 0 and tracer.draws > 0
    assert trace.overhead_s(tracer, calls=20_000, blocks=3) > 0.0
