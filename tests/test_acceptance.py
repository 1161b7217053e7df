"""Acceptance gate: one test per release criterion, pinned tolerances.

Each criterion contributes one PASS/FAIL line to the terminal summary so
the gate's status is readable straight off a captured pytest run.
"""

import csv
import io
import random
import time
from importlib import resources

import conftest
import numpy as np

from shorcompile.circuit import cost, evaluate, verify
from shorcompile.library import ERRATA, FIGURE_IDS, LIBRARY, PRINTED_F4_33_TABLE
from shorcompile.modexp import GKind, compile_modexp, full_compile
from shorcompile.numtheory import (
    PostProcessStatus,
    coprime_order_table,
    factor_semiprime,
    shor_postprocess,
)
from shorcompile.qsim import (
    NoiseParams,
    ProbDist,
    apply_period_map,
    depolarize,
    estimate_epsilon,
    input_probabilities,
    noisy_separability,
    order_finding_run,
    qft_input,
    reduce_to_input,
    separability_index,
    uniform_input_state,
)
from shorcompile.synth import synthesize


class _report:
    """Records '[criterion NN] PASS/FAIL label' for the terminal summary."""

    def __init__(self, num: int, label: str):
        self.num, self.label = num, label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        conftest.CRITERION_RESULTS.append((self.num, status, self.label))
        return False


def _golden(name: str) -> list[dict]:
    path = resources.files("shorcompile").joinpath("golden").joinpath(name)
    return list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"), newline="")))


def _dist(p: int) -> ProbDist:
    return input_probabilities(qft_input(apply_period_map(uniform_input_state(3, 3), p)))


def test_criterion_01_order_tables_exact():
    with _report(1, "multiplicative order tables match the golden rows exactly"):
        for n in (21, 33):
            golden = [(int(r["a"]), int(r["r"])) for r in _golden(f"orders_n{n}.csv")]
            t0 = time.perf_counter()
            got = [(rec.a, rec.r) for rec in coprime_order_table(n)]
            elapsed = time.perf_counter() - t0
            assert got == golden, n
            assert elapsed < 0.001, f"order table for N={n} took {elapsed * 1e3:.2f} ms"


def test_criterion_02_allowed_periods_table():
    with _report(2, "allowed-period table reproduces all 13 rows including lambda"):
        golden = _golden("allowed_periods_max90.csv")
        assert len(golden) == 13
        for row in golden:
            sp = factor_semiprime(int(row["N"]))
            assert (sp.p, sp.q) == (int(row["p"]), int(row["q"]))
            assert sp.carmichael() == int(row["lambda"])
            want = [int(d) for d in row["periods"].split(";")]
            assert sp.allowed_periods() == want, row["N"]


def test_criterion_03_circuits_match_captions_and_tables():
    with _report(3, "all 8 bundled circuits verify, restore inputs, and hit caption counts"):
        for name in FIGURE_IDS:
            e = LIBRARY[name]
            assert verify(e.circuit, e.table) == [], name
            for x in range(len(e.table.rows)):
                _, x_after = evaluate(e.circuit, x)
                assert x_after == x, (name, x)
            rep = cost(e.circuit)
            assert rep.n_toffoli == e.caption_toffoli, name
            assert rep.n_cnot == e.caption_cnot, name
        assert cost(LIBRARY["f4_21"].circuit).quantum_cost == 24
        assert cost(LIBRARY["f4_21_partial"].circuit).quantum_cost == 18


def test_criterion_04_derived_tables_and_recorded_erratum():
    with _report(4, "derived tables match the transcribed ones; the one discrepancy stays detected"):
        assert compile_modexp(2, 15, 2, GKind.NONE).table.rows == LIBRARY["f2_15"].table.rows
        assert full_compile(2, 15).table.rows == LIBRARY["f2_15_full"].table.rows
        assert compile_modexp(4, 15, 1, GKind.NONE).table.rows == LIBRARY["f4_15"].table.rows
        assert full_compile(4, 15).table.rows == LIBRARY["f4_15_full"].table.rows
        assert compile_modexp(4, 21, 3, GKind.NONE).table.rows == LIBRARY["f4_21"].table.rows
        partial = compile_modexp(4, 21, 3, GKind.LOG)
        assert partial.table.rows == LIBRARY["f4_21_partial"].table.rows
        assert full_compile(4, 21).table.rows == LIBRARY["f4_21_full"].table.rows

        # the known discrepancy: this assertion must keep failing loudly if
        # either side ever drifts to silently agree with the other
        derived = full_compile(4, 33).table.rows
        printed = PRINTED_F4_33_TABLE.rows
        rec = ERRATA["f4_33_full"]
        diffs = [x for x in range(8) if derived[x] != printed[x]]
        assert diffs == [rec["x"]]
        assert printed[rec["x"]] == rec["printed"]
        assert derived[rec["x"]] == rec["definition_derived"]


def test_criterion_05_synthesis_verified_and_competitive():
    with _report(5, "synthesis verifies on bundled + 200 random tables, cost within 2x"):
        for name in FIGURE_IDS:
            e = LIBRARY[name]
            circ = synthesize(e.table)
            assert verify(circ, e.table) == [], name
            assert cost(circ).quantum_cost <= 2 * cost(e.circuit).quantum_cost, name
        rng = random.Random(20260816)
        from shorcompile.modexp import TruthTable

        for _ in range(200):
            n_in = rng.randint(1, 4)
            p = rng.randint(1, 1 << n_in)
            n_out = rng.randint(max(1, (p - 1).bit_length()), 4)
            vals = rng.sample(range(1 << n_out), p)
            rows = tuple(vals[x % p] for x in range(1 << n_in))
            table = TruthTable(n_in, n_out, rows)
            circ = synthesize(table)
            assert verify(circ, table) == [], rows


def test_criterion_06_probability_table():
    with _report(6, "64 measurement probabilities within 0.001, rows normalized"):
        t0 = time.perf_counter()
        dists = {p: _dist(p) for p in range(1, 9)}
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"distribution table took {elapsed:.2f} s"
        golden = _golden("probabilities_m3k3.csv")
        assert len(golden) == 64
        for row in golden:
            got = float(dists[int(row["p"])].probabilities[int(row["k"])])
            assert abs(got - float(row["probability"])) <= float(row["tolerance"]) + 1e-9, row
        for p, dist in dists.items():
            assert abs(float(np.sum(dist.probabilities)) - 1.0) < 1e-12, p


def test_criterion_07_reduced_density_matrix():
    with _report(7, "all 64 reduced density entries within 0.0005"):
        rho = reduce_to_input(qft_input(apply_period_map(uniform_input_state(3, 3), 3))).entries
        golden = _golden("rho_p3.csv")
        assert len(golden) == 64
        for row in golden:
            z = rho[int(row["row"]), int(row["col"])]
            tol = float(row["tolerance"]) + 1e-9
            assert abs(z.real - float(row["re"])) <= tol, row
            assert abs(z.imag - float(row["im"])) <= tol, row


def test_criterion_08_separability_with_single_inversion():
    with _report(8, "separability column within 0.001 with its single inversion at p=3"):
        golden = _golden("separability_m3k3.csv")
        values = []
        for row in golden:
            s = separability_index(_dist(int(row["p"])))
            assert abs(s - float(row["S"])) <= float(row["tolerance"]) + 1e-9, row
            values.append(s)
        steps = [values[i + 1] - values[i] for i in range(7)]
        rises = [i for i, d in enumerate(steps) if d > 0]
        assert rises == [2]  # only S(4) > S(3) breaks the descent


def test_criterion_09_noise_model_identities():
    with _report(9, "noise closed form exact, epsilon inversion tight, recorded erratum held"):
        rng = np.random.default_rng(2029)
        for _ in range(100):
            raw = rng.random(8)
            probs = raw / raw.sum()
            eps = float(rng.random())
            dist = ProbDist(probs)
            s = separability_index(dist)
            direct = separability_index(depolarize(dist, NoiseParams(eps)))
            assert abs(noisy_separability(s, NoiseParams(eps), 3) - direct) <= 1e-12
        for _ in range(100):
            s = float(rng.uniform(0.126, 1.0))
            eps = float(rng.uniform(0.0, 1.0))
            observed = noisy_separability(s, NoiseParams(eps), 3)
            assert abs(estimate_epsilon(s, observed, 3) - eps) <= 1e-10

        # the transcribed expansion reads eps^2*S + (1/64)(1-eps)(1+15*eps);
        # at eps=0 it yields 1/64 while the true fully-mixed value is 1/8
        s3 = separability_index(_dist(3))
        printed = lambda e: e * e * s3 + (1 / 64) * (1 - e) * (1 + 15 * e)
        assert abs(printed(0.0) - 1 / 64) < 1e-15
        assert abs(noisy_separability(s3, NoiseParams(0.0), 3) - 1 / 8) < 1e-15
        assert abs(printed(0.0) - noisy_separability(s3, NoiseParams(0.0), 3)) > 0.05


def test_criterion_10_end_to_end_factoring():
    with _report(10, "seeded factoring succeeds >= 99% and (33,4) hits its failure branch"):
        t0 = time.perf_counter()
        for a, n, want in [(2, 15, (3, 5)), (4, 15, (3, 5)), (4, 21, (3, 7))]:
            wins = 0
            for seed in range(50):
                res = order_finding_run(a, n, shots=500, seed=seed)
                if res.recovered_order is None:
                    continue
                out = shor_postprocess(n, a, res.recovered_order)
                if out.status is PostProcessStatus.FACTORS and out.factors == want:
                    wins += 1
            assert wins / 50 >= 0.99, (a, n, wins)
        for seed in range(50):
            res = order_finding_run(4, 33, shots=500, seed=seed)
            assert res.recovered_order == 5, seed
            out = shor_postprocess(33, 4, res.recovered_order)
            assert out.status is PostProcessStatus.MINUS_ONE_CONGRUENCE, seed
        elapsed = time.perf_counter() - t0
        assert elapsed < 20.0, f"factoring block took {elapsed:.1f} s"


def test_criterion_11_transform_and_density_invariants():
    with _report(11, "transform preserves norm; reduced spectrum invariant; rho physical"):
        for p in range(1, 9):
            st = apply_period_map(uniform_input_state(3, 3), p)
            fw = qft_input(st)
            assert abs(float(np.linalg.norm(fw.amplitudes)) - 1.0) <= 1e-12, p
            spec_before = reduce_to_input(st).spectrum()
            spec_after = reduce_to_input(fw).spectrum()
            assert np.allclose(spec_before, spec_after, atol=1e-10), p
            rho = reduce_to_input(fw)
            ent = rho.entries
            assert np.allclose(ent, ent.conj().T, atol=1e-12), p
            assert abs(float(np.trace(ent).real) - 1.0) <= 1e-12, p
            assert float(np.min(rho.spectrum())) >= -1e-10, p
