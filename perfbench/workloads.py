"""Workload inputs, the closed-loop op runner and the per-op oracle verdicts.

Inputs depend only on (workload, seed, seconds): the seconds set how many
ops a run holds, through a fixed nominal rate per op class, so two runs
with the same arguments feed the program identical inputs whatever the
clock says. Draws from a finite population are systematic samples of the
population sorted by a structural key, so each modulus and order is
represented in proportion to its share of the population.
"""

from __future__ import annotations

import io
import itertools
import math
import random
import statistics
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import hostspeed
import oracle

WORKLOADS = ("synth_sweep", "factor_scan", "figures")

SYNTH_CAP_MESSAGE = "synthesis supports at most 6 input and 6 output bits"

# Nominal ops per second of each op class; a run of S seconds holds
# round(rate * S) ops of the class, at least one.
# All 455 pairs take about 100 s to synthesize on a 2-vCPU x86 VM.
SWEEP_RATE = 5.0
# The sweep's picks sit at a fixed phase of the (N, order, a)-sorted
# population: a seeded phase swaps which 3- and 4-bit tables land next to
# the median and moves op_p50_ms by 10-50% from the mix alone. The seed
# draws the order of the ops.
SWEEP_PHASE = 0.5
# A 20-s factor_scan run takes every one of the 455 pairs, as a full scan
# does; with a seeded sample of 400, two seeds' op_p90_ms differed by about
# 10% over repeated runs from the mix alone.
FACTOR_RATE = 22.75
FIGURE_ROUNDS_RATE = 3.0  # one diff-golden plus eight simulate calls per round

EPSILONS = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0)
SHOTS = (256, 1024, 8192)
FACTOR_SHOTS = 128

# On a shared 2-vCPU x86 VM, host noise comes in phases of several seconds
# to minutes in which every op runs up to 1.8 times as slow. Each timed run
# of an op is scaled to the host's full speed by the reference loop (see
# ``hostspeed``), timed just before and just after every run: a run's
# slowdown is the mean of the loop's readings around it and around the
# GAUGE_RUNS runs on either side, over the loop's time in that VM's fast
# phases (OP_LOOP_S), since one 1-ms reading is itself noisy. Unscaled,
# synth_sweep's op_p50_ms spread 0.67 over five seeds. The dense numpy work
# of factor ops slows less than the loop does, so their scaled latencies
# still drift with the host, by about 10% over minutes. Every op but
# factor runs again while the run lasts (see ``TimedRuns.rerun``), and an
# op's latency is the median of its scaled runs.
OP_LOOP_N, OP_LOOP_S = 3000, 0.00075
GAUGE_RUNS = 4
# An op whose first run takes less than BACK_TO_BACK_S runs again at once
# until its runs add up to that, BACK_TO_BACK_RUNS runs at most. The
# synth_sweep ops near its median take 50-150 ms, so a run of their
# 20-s workload holds one sample each; on their own, the single samples
# put a 10-seed spread of 0.13 on op_p50_ms.
BACK_TO_BACK_S = 0.3
BACK_TO_BACK_RUNS = 3
# The traced run pairs an op's untraced and traced runs twice if it is
# cheaper than this, once otherwise.
REPEAT_BELOW_S = 0.5


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1))


def odd_semiprimes(limit: int = 90) -> list[int]:
    """Products p*q < limit of two distinct odd primes."""
    out = []
    for n in range(15, limit, 2):
        p = next((f for f in range(3, math.isqrt(n) + 1) if n % f == 0), None)
        if p is not None and p * p != n and _is_prime(p) and _is_prime(n // p):
            out.append(n)
    return out


def coprime_pairs() -> list[tuple[int, int]]:
    """Every (a, N) with N an odd semiprime below 90 and 1 < a < N coprime."""
    return [(a, n) for n in odd_semiprimes() for a in range(2, n) if math.gcd(a, n) == 1]


@dataclass(frozen=True)
class Op:
    kind: str  # synth | factor | diff-golden | simulate
    params: tuple

    def argv(self) -> list[str]:
        p = [str(v) for v in self.params]
        if self.kind == "synth":
            return ["synth", "--a", p[0], "--N", p[1], "--compile", "full", "--format", "json"]
        if self.kind == "factor":
            return ["factor", "--N", p[0], "--a", p[1], "--seed", p[2],
                    "--shots", str(FACTOR_SHOTS), "--format", "json"]
        if self.kind == "simulate":
            return ["simulate", "--m", "3", "--k", "3", "--p", p[0], "--epsilon", p[1],
                    "--shots", p[2], "--seed", p[3], "--rho", "--format", "json"]
        return ["diff-golden"]


def _count(rate: float, seconds: float) -> int:
    return max(1, round(rate * seconds))


def _systematic(population: list, count: int, phase: float) -> list:
    """count items spread evenly over the population, starting at phase in [0, 1)."""
    count = min(count, len(population))
    return [population[int((i + phase) * len(population) / count)] for i in range(count)]


def build_ops(workload: str, seed: int, seconds: float) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    ops: list[Op] = []
    if workload == "synth_sweep":
        pairs = sorted((n, oracle.brute_order(a, n), a) for a, n in coprime_pairs())
        for n, _, a in _systematic(pairs, _count(SWEEP_RATE, seconds), SWEEP_PHASE):
            ops.append(Op("synth", (a, n)))
    elif workload == "factor_scan":
        pairs = sorted((n, a) for a, n in coprime_pairs())
        for n, a in _systematic(pairs, _count(FACTOR_RATE, seconds), rng.random()):
            ops.append(Op("factor", (n, a, rng.randrange(1 << 30))))
    elif workload == "figures":
        for _ in range(_count(FIGURE_ROUNDS_RATE, seconds)):
            ops.append(Op("diff-golden", ()))
            for p in range(1, 9):
                eps = rng.choice(EPSILONS)
                ops.append(Op("simulate", (p, eps, rng.choice(SHOTS), rng.randrange(1 << 30))))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng.shuffle(ops)
    if workload == "factor_scan":
        pairs = [op.params[:2] for op in ops]
        if len(set(pairs)) != len(pairs):
            raise AssertionError("an (N, a) pair repeats within the factor_scan run")
    return ops


def memory_probe(workload: str, ops: list[Op]) -> list[Op]:
    """The ops replayed under tracemalloc: a few of the run's heavier ops.

    Synthesis runs about twelve times slower under tracemalloc, so the
    synth probe takes one 4-bit table (1-4 s traced) rather than a 5-bit
    one; order finding takes two 20-qubit pairs.
    """
    if workload == "synth_sweep":
        picks = sorted(op.params for op in ops if (oracle.brute_order(*op.params) - 1).bit_length() == 4)
        return [Op("synth", picks[0])]
    if workload == "factor_scan":
        return [op for op in ops if op.params[0] >= 65][:2]
    diff = [op for op in ops if op.kind == "diff-golden"][:1]
    return diff + [op for op in ops if op.kind == "simulate"][:2]


# ---------------------------------------------------------------- running


@dataclass
class Outcome:
    latency_s: float
    rc: int | None = None
    stdout: str = ""
    stderr: str = ""
    error: str | None = None  # an exception that escaped the program


def run_op(op: Op, program) -> Outcome:
    """One closed-loop call into the command line, timed around the call only."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = program.cli.entrypoint(op.argv())
    except Exception:  # counted as a failed op, never as a result
        return Outcome(time.perf_counter() - t0, error=traceback.format_exc())
    return Outcome(time.perf_counter() - t0, rc=rc, stdout=out.getvalue(), stderr=err.getvalue())


class TimedRuns:
    """The timed runs of a pass, kept in time order and scaled after it."""

    def __init__(self, ops: list[Op], program):
        self.ops, self.program = ops, program
        self.runs: list[tuple[int, float, float, float]] = []  # op, latency, slowdown before, after

    def run(self, i: int) -> Outcome:
        """Run op i once between two readings of the reference loop."""
        before = slowdown()
        res = run_op(self.ops[i], self.program)
        self.runs.append((i, res.latency_s, before, slowdown()))
        return res

    def first(self, i: int) -> Outcome:
        """Op i's first run, then back-to-back repeats while it is cheap.

        Returns the first run's outcome, the one judged. factor ops never
        repeat, as in ``rerun``.
        """
        res = self.run(i)
        spent = self._local_s(-1)
        for _ in range(BACK_TO_BACK_RUNS - 1):
            if self.ops[i].kind == "factor" or spent >= BACK_TO_BACK_S:
                break
            self.run(i)
            spent += self._local_s(-1)
        return res

    def rerun(self, until: float) -> None:
        """Run the ops again, in order and round again, until ``until``.

        The clock (``time.perf_counter``) is read before each op, so a run
        of cheap ops spreads its samples over the whole run and a run whose
        first pass outlasts it reruns nothing. factor ops never rerun: a
        rerun would hit the program's distribution cache and time a warm
        call. Reruns are not judged again; every op is deterministic in its
        inputs.
        """
        for i in itertools.cycle([i for i, op in enumerate(self.ops) if op.kind != "factor"]):
            if time.perf_counter() >= until:
                return
            self.run(i)

    def _local_s(self, j: int) -> float:
        """Run j scaled by the two readings around it alone."""
        _, latency, before, after = self.runs[j]
        return latency / ((before + after) / 2)

    def latencies(self) -> list[float]:
        """Each op's median latency over its runs, each run scaled by the
        mean slowdown read around the runs within GAUGE_RUNS of it."""
        slowdowns = [x for _, _, before, after in self.runs for x in (before, after)]
        samples: list[list[float]] = [[] for _ in self.ops]
        for j, (i, latency, _, _) in enumerate(self.runs):
            near = slowdowns[2 * max(0, j - GAUGE_RUNS):2 * (j + GAUGE_RUNS + 1)]
            samples[i].append(latency / statistics.fmean(near))
        return [statistics.median(s) for s in samples]


def slowdown() -> float:
    """How many times slower than in its fast phases the host runs now."""
    return hostspeed.loop_s(OP_LOOP_N) / OP_LOOP_S


@dataclass
class Verdict:
    status: str  # delivered | declined | failed
    qcost: int = 0
    factored: bool = False


def judge(op: Op, res: Outcome) -> Verdict:
    """Classify an op; raise OracleError on any wrong delivered output.

    declined: a documented refusal (the 6-bit synthesis cap, exit 2) or an
    order the sampled shots did not recover. failed: an exception escaped
    the program or the exit code is undocumented for the call.
    """
    if res.error is not None:
        return Verdict("failed")
    if op.kind == "synth":
        a, n = op.params
        if res.rc == 2 and SYNTH_CAP_MESSAGE in res.stderr:
            return Verdict("declined")
        if res.rc != 0:
            return Verdict("failed")
        doc = oracle.json_document(res.stdout)
        table = doc["table"]
        oracle.check_modexp_table(table, a, n)
        oracle.check_circuit(doc["circuit"], table["n_in"], table["n_out"], table["rows"])
        q = oracle.qcost(doc["circuit"])
        if doc["cost"]["quantum_cost"] != q:
            raise oracle.OracleError(f"synth {a} {n}: reported qcost {doc['cost']['quantum_cost']}, counted {q}")
        return Verdict("delivered", q)
    if op.kind == "factor":
        n, a, _ = op.params
        if res.rc not in (0, 1):
            return Verdict("failed")
        status = oracle.check_factor(oracle.json_document(res.stdout), res.rc, n, a)
        if status == "order-not-recovered":
            return Verdict("declined")
        return Verdict("delivered", factored=status == "factors")
    if op.kind == "diff-golden":
        oracle.check_diff_golden(res.rc, res.stdout)
        return Verdict("delivered")
    p, eps, shots, _ = op.params
    if res.rc != 0:
        return Verdict("failed")
    oracle.check_simulate(oracle.json_document(res.stdout), 3, p, eps, shots)
    return Verdict("delivered")
