"""Benchmark for shorcompile: one closed-loop client, one op in flight.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):
  synth_sweep   ``shorcompile synth --compile full`` over a draw of the
                coprime (a, N) pairs of the odd semiprimes below 90
  factor_scan   ``shorcompile factor`` once per (a, N) pair, cold cache
  figures       ``shorcompile diff-golden`` and ``simulate --rho`` at m = 3

Each op is one ``cli.entrypoint`` call with its output captured. Every
run of an op is timed between two readings of a reference loop and scaled
to the host's full speed (see ``hostspeed``); an op's latency is the median
of its runs (see ``workloads.TimedRuns``). ``ops_per_s`` is the op count
over the sum of those latencies, not over the run's wall time: it is the
inverse of the mean latency over every attempted op, so the heavy ops weigh
in as they do in a user's total wait, while the client's own checks and
the host's slow phases stay out.
``delivered_share`` is the share of ops whose result the oracle checked;
refusals by the 6-bit synthesis cap and unrecovered orders are declined,
not failed. ``peak_mem_mb`` comes from a tracemalloc probe in a separate
interpreter, never from the timed pass. ``setup_s`` is the median import
time of fresh interpreters, each scaled by a reference loop timed in the
same interpreter to the host's full speed (see ``hostspeed``).

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs every op untraced and traced back to back, in the same interpreter and
from the same cold cache, and reports the per-layer metrics and the tracing
overhead. Spans go to ``perfbench/out/``. Every output passes the
independent oracle in ``oracle.py`` or the run exits 1. The last line of
stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_SAMPLES = 15
# Each set-up sample is a fresh interpreter that times the reference loop
# (see ``hostspeed``), then the import of the package plus the parser
# build, then the loop again; the import time is scaled by the loop's mean
# time in that interpreter. On a shared 2-vCPU x86 VM, over three minutes
# in which the plain median of 15 samples went from 109 to 205 ms as the
# host slowed, the scaled median stayed within 145-162 ms. SETUP_LOOP_S is
# the loop's time in that VM's fast phases, so that there the scaled and
# plain medians roughly agree.
SETUP_LOOP_N = 60000
SETUP_LOOP_S = 0.025
SETUP_CODE = f"""\
import time
from hostspeed import loop_s
r0 = loop_s({SETUP_LOOP_N})
t = time.perf_counter()
import shorcompile.cli as c
c.build_parser()
t = time.perf_counter() - t
print(t, (r0 + loop_s({SETUP_LOOP_N})) / 2)
"""
CHILD_TIMEOUT_S = 150

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def load_program() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    from shorcompile import circuit, cli, numtheory, qsim, synth

    return SimpleNamespace(cli=cli, synth=synth, qsim=qsim, circuit=circuit, numtheory=numtheory)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), str(HERE), env.get("PYTHONPATH")) if p)
    return env


def run_child(args: list[str]) -> str:
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=child_env(), timeout=CHILD_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: child {args[:2]} failed:\n{done.stderr}")
    return done.stdout.strip().splitlines()[-1]


def measure_setup() -> tuple[float, float]:
    """Time for a fresh interpreter to import the package and build the parser.

    Returns the median of the samples scaled to the reference speed (see
    ``hostspeed``), which is ``setup_s``, and the plain median, which is shown in
    the summary only.
    """
    run_child(["-c", SETUP_CODE])  # writes bytecode caches, untimed
    samples = [tuple(map(float, run_child(["-c", SETUP_CODE]).split())) for _ in range(SETUP_SAMPLES)]
    return (statistics.median(t * SETUP_LOOP_S / loop for t, loop in samples),
            statistics.median(t for t, _ in samples))


def memory_peak_mb(args: argparse.Namespace) -> float:
    return float(run_child([__file__, "--role", "memory", "--workload", args.workload,
                            "--seed", str(args.seed), "--seconds", str(args.seconds)]))


def judge(op, res):
    """The oracle's verdict on one op; a wrong output ends the run with exit 1."""
    try:
        return workloads.judge(op, res)
    except oracle.OracleError as exc:
        print(f"perfbench: wrong output: {exc}", file=sys.stderr)
        raise SystemExit(1)


def timed_pass(ops, program, seconds: float) -> tuple[list, list]:
    """Run and judge every op with tracing off, then rerun the ops.

    A cheap op repeats back to back before the next starts (see
    ``workloads.TimedRuns.first``). Reruns go on until ``seconds`` have
    passed since the first op started. Returns each op's median latency
    over its runs, every run scaled to the host's full speed (see
    ``workloads.TimedRuns.latencies``), and the verdicts. Each output is
    judged and dropped before the next op starts, so the heap the garbage
    collector scans stays the size of one op's output.
    """
    gc.collect()
    gc.freeze()
    until = time.perf_counter() + seconds
    timed = workloads.TimedRuns(ops, program)
    verdicts = [judge(op, timed.first(i)) for i, op in enumerate(ops)]
    timed.rerun(until)
    return timed.latencies(), verdicts


def quality(ops, verdicts) -> dict:
    n = len(ops)
    factor_ops = sum(op.kind == "factor" for op in ops)
    synth_ops = sum(op.kind == "synth" for op in ops)
    return {
        "fail_share": sum(v.status != "delivered" for v in verdicts) / n,
        "qcost_total": sum(v.qcost for v in verdicts) if synth_ops else None,
        "factored_share": sum(v.factored for v in verdicts) / factor_ops if factor_ops else None,
    }


# ---------------------------------------------------------------- tracing


def install(tracer: Tracer, program, last: dict) -> None:
    cli, synth, qsim, circuit = program.cli, program.synth, program.qsim, program.circuit

    def count(key, fn):
        def hook(counts, args, result):
            counts[key] += fn(args, result)
        return hook

    def keep_run(counts, args, result):
        last["run"] = result
        counts["qsim.state_bytes"] += 16 << (result.m + (args[1] - 1).bit_length())

    tracer.patch(cli, "entrypoint", "cli.entrypoint")
    tracer.patch(cli, "full_compile", "modexp.full_compile")
    toffolis = count("synth.toffoli_count",
                     lambda a, r: sum(g.kind.value == "toffoli" for g in r.gates))
    tracer.patch(cli, "synthesize", "synth.synthesize", toffolis)
    tracer.patch(synth, "fit_linear", "synth.fit_linear",
                 count("synth.linear_mismatches", lambda a, r: sum(len(b.mismatches) for b in r.bits)))
    tracer.patch(synth, "plan_cascades", "synth.plan_cascades",
                 count("synth.plan_steps", lambda a, r: len(r.steps)))
    evals = count("circuit.gate_evals", lambda a, r: len(a[0].gates) * len(a[1].rows))
    for module in (synth, circuit, cli):
        tracer.patch(module, "verify", "circuit.verify", evals)
    tracer.patch(cli, "order_finding_run", "qsim.order_finding_cold", keep_run)
    tracer.count_calls(qsim, "continued_fraction_order", "numtheory.cf_calls")
    tracer.patch(cli, "shor_postprocess", "numtheory.shor_postprocess")
    for attr in ("uniform_input_state", "apply_period_map", "qft_input"):
        tracer.patch(cli, attr, "qsim.figure_state")
    tracer.patch(cli, "reduce_to_input", "qsim.reduce_to_input")
    tracer.patch(cli, "sample", "qsim.sample")
    tracer.patch(cli, "estimate_epsilon", "qsim.estimate_epsilon")


def run_cold(op, program, tracer: Tracer | None = None, last: dict | None = None):
    """One op, with spans on if a tracer is given.

    A factor op first empties the program's per-(a, N) distribution cache,
    as a fresh ``shorcompile factor`` process starts without one.
    """
    cache = getattr(program.qsim, "_order_finding_distribution", None)
    if op.kind == "factor" and hasattr(cache, "cache_clear"):
        cache.cache_clear()
    if tracer is None:
        return workloads.run_op(op, program)
    install(tracer, program, {} if last is None else last)
    try:
        return workloads.run_op(op, program)
    finally:
        tracer.uninstall()


def traced_pass(ops, program, tracer: Tracer) -> tuple[list, list, list, dict]:
    """Every op untraced and traced back to back; spans come from its first traced run.

    Each op runs as a pair, untraced then traced on even ops and the other
    way round on odd ones, so the first run's cold processor caches weigh
    on both sides alike; the runs start from an empty distribution cache.
    Ops other than factor that are cheaper than ``workloads.REPEAT_BELOW_S``
    run a second pair in the opposite order, and each side keeps its faster
    run; factor ops never repeat, as in ``workloads.TimedRuns``. After the
    pair, a factor op repeats its order finding warm and replays the
    continued fractions of its samples; both are timed apart from the
    tracer and the op's counts.
    """
    gc.collect()
    gc.freeze()
    last: dict = {}
    extra_s = {"qsim.order_finding_warm": 0.0, "numtheory.continued_fraction": 0.0}
    untraced, traced, verdicts = [], [], []
    for i, op in enumerate(ops):
        tracer.op = i
        last.clear()
        if i % 2:
            t = run_cold(op, program, tracer, last)
            u = run_cold(op, program)
        else:
            u = run_cold(op, program)
            t = run_cold(op, program, tracer, last)
        judge(op, u)
        verdicts.append(judge(op, t))
        if op.kind == "factor" and "run" in last:
            n, a, seed = op.params
            t0 = time.perf_counter()
            program.qsim.order_finding_run(a, n, workloads.FACTOR_SHOTS, seed + 1)
            t1 = time.perf_counter()
            run = last["run"]
            for k in run.samples:
                program.numtheory.continued_fraction_order(k, 1 << run.m, n)
            extra_s["qsim.order_finding_warm"] += t1 - t0
            extra_s["numtheory.continued_fraction"] += time.perf_counter() - t1
        u_s, t_s = u.latency_s, t.latency_s
        if op.kind != "factor" and u_s < workloads.REPEAT_BELOW_S:
            if i % 2:
                u_s = min(u_s, run_cold(op, program).latency_s)
                t_s = min(t_s, run_cold(op, program, Tracer()).latency_s)
            else:
                t_s = min(t_s, run_cold(op, program, Tracer()).latency_s)
                u_s = min(u_s, run_cold(op, program).latency_s)
        untraced.append(u_s)
        traced.append(t_s)
    return untraced, traced, verdicts, extra_s


def per_layer(ops, untraced, traced, verdicts, tracer: Tracer, extra_s: dict) -> dict:
    """Per-layer metrics of the traced runs.

    The tracing overhead is the median over ops of the traced minus the
    untraced latency, and of their ratio less one: a few seconds of host
    noise on one heavy op would swamp a sum.
    """
    n = len(ops)
    factor_ops = sum(op.kind == "factor" for op in ops) or 1

    def per_op(name: str) -> float:
        return tracer.total_ms(name) / n

    cold = tracer.total_ms("qsim.order_finding_cold") / factor_ops
    warm = 1e3 * extra_s["qsim.order_finding_warm"] / factor_ops
    q = quality(ops, verdicts)
    values = {
        "synth.fit_linear_ms": per_op("synth.fit_linear"),
        "synth.plan_cascades_ms": per_op("synth.plan_cascades"),
        "synth.synthesize_ms": per_op("synth.synthesize"),
        "synth.linear_mismatches": tracer.counts["synth.linear_mismatches"],
        "synth.plan_steps": tracer.counts["synth.plan_steps"],
        "synth.toffoli_count": tracer.counts["synth.toffoli_count"],
        "circuit.verify_ms": per_op("circuit.verify"),
        "circuit.gate_evals": tracer.counts["circuit.gate_evals"],
        "modexp.full_compile_ms": per_op("modexp.full_compile"),
        "qsim.order_finding_cold_ms": cold,
        "qsim.order_finding_warm_ms": warm,
        "qsim.distribution_ms": cold - warm,
        "qsim.state_bytes": tracer.counts["qsim.state_bytes"] / factor_ops,
        "qsim.figure_state_ms": per_op("qsim.figure_state"),
        "qsim.reduce_to_input_ms": per_op("qsim.reduce_to_input"),
        "qsim.sample_ms": per_op("qsim.sample"),
        "qsim.estimate_epsilon_ms": per_op("qsim.estimate_epsilon"),
        "numtheory.continued_fraction_ms": 1e3 * extra_s["numtheory.continued_fraction"] / factor_ops,
        "numtheory.cf_calls": tracer.counts["numtheory.cf_calls"],
        "numtheory.shor_postprocess_ms": per_op("numtheory.shor_postprocess"),
        "cli.overhead_ms": tracer.self_ms("cli.entrypoint") / n,
        "trace.overhead_ms": 1e3 * statistics.median(t - u for t, u in zip(traced, untraced)),
        "trace.overhead_share": statistics.median(t / u for t, u in zip(traced, untraced)) - 1,
        "trace.spans": len(tracer.spans),
        "quality.qcost_total": q["qcost_total"] or 0,
        "quality.fail_share": q["fail_share"],
        "quality.factored_share": q["factored_share"] or 0.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


# ---------------------------------------------------------------- roles


def role_memory(args, program) -> None:
    """tracemalloc peak over the run's memory probe, in its own interpreter."""
    probe = workloads.memory_probe(args.workload, workloads.build_ops(args.workload, args.seed, args.seconds))
    tracemalloc.start()
    for op in probe:
        workloads.run_op(op, program)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(peak / 1e6)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("memory",), help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "shorcompile" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no shorcompile package under {SRC}; run from a full checkout")
    if args.role == "memory":
        return role_memory(args, load_program())
    setup_s, setup_plain_s = (None, None) if args.trace else measure_setup()
    program = load_program()

    ops = workloads.build_ops(args.workload, args.seed, args.seconds)
    if args.trace:
        tracer = Tracer()
        untraced, traced, verdicts, extra_s = traced_pass(ops, program, tracer)
        tracer.write(str(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"))
        metrics = per_layer(ops, untraced, traced, verdicts, tracer, extra_s)
    else:
        latencies, verdicts = timed_pass(ops, program, args.seconds)
        peak_mb = memory_peak_mb(args)
        lat_ms = [1e3 * t for t, v in zip(latencies, verdicts) if v.status == "delivered"]
        values = {
            "setup_s": setup_s,
            "op_p50_ms": statistics.median(lat_ms),
            "op_p90_ms": percentile(lat_ms, 90),
            "ops_per_s": len(ops) / sum(latencies),
            "delivered_share": sum(v.status == "delivered" for v in verdicts) / len(ops),
            "peak_mem_mb": peak_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        q = quality(ops, verdicts)
        print(f"{args.workload} seed={args.seed}: {len(ops)} ops, {len(lat_ms)} delivered")
        for name, m in metrics.items():
            print(f"  {name:<16} {m['value']:.6g} {m['unit']}")
        for name, unit in (("fail_share", "share"), ("qcost_total", "qcost"), ("factored_share", "share")):
            shown = "n/a" if q[name] is None else f"{q[name]:.6g}"
            print(f"  {name:<16} {shown} {unit}")
        print(f"  {'setup_plain_s':<16} {setup_plain_s:.6g} s (unscaled median, not a metric)")

    failed = sum(v.status == "failed" for v in verdicts)
    print(json.dumps({"correct": True, "attempted": len(ops), "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
