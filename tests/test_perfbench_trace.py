"""perfbench's trace mode against the program: every name its tracer patches
still exists and still returns what the per-layer counters read.

The per-layer metrics come from ``perfbench/run.py``'s ``install``, which
replaces program attributes by name. Renaming one of them, or changing the
shape of its result, would leave those metrics empty without this test.
"""

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
