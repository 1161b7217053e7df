"""perfbench's trace mode against the program: every name its tracer patches
still exists and still returns what the per-layer counters read.

The per-layer metrics come from ``perfbench/run.py``'s ``install``, which
replaces program attributes by name. Renaming one of them, or changing the
shape of its result, would leave those metrics empty without this test.
"""

import argparse
import importlib.util
from pathlib import Path

from shorcompile import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # puts perfbench/ on sys.path for its own imports
    return module


def test_traced_synth_op_records_every_synthesis_layer():
    run = _perfbench_run()
    synthesize = cli.synthesize
    tracer = run.Tracer()
    res = run.run_cold(run.workloads.Op("synth", (4, 21)), run.load_program(), tracer, {})
    assert res.error is None and res.rc == 0, res.error or res.stderr
    names = {span[0] for span in tracer.spans}
    assert {"synth.fit_linear", "synth.plan_cascades", "synth.synthesize", "circuit.verify"} <= names
    assert tracer.counts["synth.plan_steps"] > 0
    assert tracer.counts["synth.toffoli_count"] > 0
    assert cli.synthesize is synthesize  # the tracer put every name back


def test_traced_factor_op_runs_order_finding_cold():
    """The pair runs once first. The program keeps no per-(a, N) cache, so
    the traced op still runs order finding and recovers the order afresh,
    as a new ``shorcompile factor`` process would."""
    run = _perfbench_run()
    program = run.load_program()
    program.qsim.order_finding_run(7, 15, 8, 0)
    tracer = run.Tracer()
    res = run.run_cold(run.workloads.Op("factor", (15, 7, 3)), program, tracer, {})
    assert res.error is None and res.rc == 0, res.error or res.stderr
    assert "qsim.order_finding_cold" in {span[0] for span in tracer.spans}
    assert tracer.counts["numtheory.cf_calls"] > 0


def test_traced_simulate_op_records_every_figure_layer():
    run = _perfbench_run()
    tracer = run.Tracer()
    # the figures workload's simulate op: p=3, epsilon 0.5, 256 shots, seed 1, --rho
    res = run.run_cold(run.workloads.Op("simulate", (3, 0.5, 256, 1)), run.load_program(), tracer, {})
    assert res.error is None and res.rc == 0, res.error or res.stderr
    for name in ("qsim.figure_state", "qsim.reduce_to_input", "qsim.sample", "qsim.estimate_epsilon"):
        assert tracer.total_ms(name) > 0, name


def test_every_benchmark_op_is_read_off_the_option_table(monkeypatch):
    """No benchmark op's argv runs argparse: ``_parse`` reads each one off its
    leaf parser's option table."""
    workloads = _perfbench_run().workloads
    ops = [op for w in ("synth_sweep", "factor_scan", "figures") for op in workloads.build_ops(w, 1, 20)]

    def refuse(*_, **__):
        raise AssertionError("argparse parsed a benchmark op")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    assert {op.kind for op in ops} == {"synth", "factor", "simulate", "diff-golden"}
    for op in ops:
        assert cli._parse(op.argv()).command == op.kind, op
