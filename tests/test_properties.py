"""Property tests: the packed evaluator against the row-at-a-time reference,
the synthesizer's candidates against the gates built for them, its
vectorized candidate scorer against a plain-Python one, and the
order-finding sampler against numpy's own weighted draw."""

import math
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from shorcompile.circuit import (
    Circuit,
    Control,
    Gate,
    GateKind,
    Mismatch,
    apply_gate,
    apply_packed,
    circuit_from_json,
    circuit_to_json,
    cost,
    evaluate,
    input_vectors,
    output_vectors,
    verify,
)
from shorcompile.library import LIBRARY
from shorcompile.modexp import TruthTable
from shorcompile.qsim import _order_finding_probabilities, order_finding_run
from shorcompile.synth import (
    AffineForm,
    BitFit,
    _best_candidate,
    _candidates,
    _realize,
    fit_linear,
    synthesize,
)

KINDS = (GateKind.NOT, GateKind.CNOT, GateKind.TOFFOLI)


@st.composite
def gates(draw, width: int) -> Gate:
    n_controls = draw(st.integers(0, min(2, width - 1)))
    lines = draw(st.permutations(range(width)))[: n_controls + 1]
    negs = draw(st.lists(st.booleans(), min_size=n_controls, max_size=n_controls))
    controls = tuple(Control(ln, neg) for ln, neg in zip(lines[1:], negs))
    return Gate(KINDS[n_controls], controls, lines[0])


@st.composite
def circuits(draw) -> Circuit:
    """Width 2-8, up to 16 gates; lines outside both registers are ancillas."""
    width = draw(st.integers(2, 8))
    order = draw(st.permutations(range(width)))
    n_in = draw(st.integers(1, width - 1))
    n_out = draw(st.integers(1, width - n_in))
    body = draw(st.lists(gates(width), max_size=16))
    return Circuit(width, tuple(order[:n_in]), tuple(order[n_in : n_in + n_out]), tuple(body))


def reference_run(circuit: Circuit, bits: list[int]) -> list[int]:
    for g in circuit.gates:
        bits = apply_gate(bits, g)
    return bits


def reference_evaluate(circuit: Circuit, x: int) -> tuple[int, int]:
    bits = [0] * circuit.width
    for i, line in enumerate(circuit.input_lines):
        bits[line] = (x >> (circuit.n_in - 1 - i)) & 1
    bits = reference_run(circuit, bits)
    y = x_after = 0
    for line in circuit.output_lines:
        y = (y << 1) | bits[line]
    for line in circuit.input_lines:
        x_after = (x_after << 1) | bits[line]
    return y, x_after


def reference_verify(circuit: Circuit, table: TruthTable) -> list[Mismatch]:
    bad = []
    for x, want in enumerate(table.rows):
        y, x_after = reference_evaluate(circuit, x)
        if y != want or x_after != x:
            bad.append(Mismatch(x, want, y, x_after))
    return bad


@settings(max_examples=60)
@given(circuits(), st.data())
def test_packed_evaluator_matches_reference(circ, data):
    rows = [reference_evaluate(circ, x) for x in range(1 << circ.n_in)]
    assert [evaluate(circ, x) for x in range(1 << circ.n_in)] == rows
    # the circuit's own outputs leave only input clobbering to report
    if data.draw(st.booleans()):
        table = TruthTable(circ.n_in, circ.n_out, tuple(y for y, _ in rows))
    else:
        size = 1 << circ.n_in
        row = st.integers(0, (1 << circ.n_out) - 1)
        drawn = data.draw(st.lists(row, min_size=size, max_size=size))
        table = TruthTable(circ.n_in, circ.n_out, tuple(drawn))
    assert verify(circ, table) == reference_verify(circ, table)


def test_verify_matches_reference_on_every_dropped_library_gate():
    for e in LIBRARY.values():
        c = e.circuit
        for i in range(len(c.gates)):
            broken = Circuit(c.width, c.input_lines, c.output_lines, c.gates[:i] + c.gates[i + 1 :])
            assert verify(broken, e.table) == reference_verify(broken, e.table), (e.name, i)


@settings(max_examples=40)
@given(circuits())
def test_circuit_json_roundtrip(circ):
    assert circuit_from_json(circuit_to_json(circ)) == circ


@st.composite
def periodic_tables(draw) -> TruthTable:
    n_in = draw(st.integers(1, 4))
    p = draw(st.integers(1, 1 << n_in))
    n_out = draw(st.integers(max(1, (p - 1).bit_length()), 4))
    vals = draw(st.lists(st.integers(0, (1 << n_out) - 1), min_size=p, max_size=p, unique=True))
    return TruthTable(n_in, n_out, tuple(vals[x % p] for x in range(1 << n_in)))


@settings(max_examples=25)
@given(periodic_tables())
def test_synthesized_circuit_verifies(table):
    assert verify(synthesize(table), table) == []


def reference_fit_linear(table: TruthTable) -> tuple[BitFit, ...]:
    """The exhaustive per-form loop fit_linear used to run, as the agreement reference."""
    n = table.n_in
    full = (1 << (1 << n)) - 1
    span = [0]
    for vec in input_vectors(n):
        span += [v ^ vec for v in span]
    bits = []
    for target in output_vectors(table):
        best = None
        for mask, v in enumerate(span):
            for const in (0, 1):
                vv = v ^ (full if const else 0)
                miss = vv ^ target
                form = AffineForm(mask, bool(const))
                key = (miss.bit_count(), form.terms(), mask, const)
                if best is None or key < best[0]:
                    best = (key, form, miss)
        _, form, miss = best
        bits.append(BitFit(form, frozenset(x for x in range(1 << n) if (miss >> x) & 1)))
    return tuple(bits)


@st.composite
def near_affine_tables(draw) -> TruthTable:
    """Random rows, or an affine map with a few rows flipped, where ties and exact fits are common."""
    n_in, n_out = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    size, top = 1 << n_in, (1 << n_out) - 1
    if draw(st.booleans()):
        rows = draw(st.lists(st.integers(0, top), min_size=size, max_size=size))
    else:
        cols = draw(st.lists(st.integers(0, top), min_size=n_in + 1, max_size=n_in + 1))
        rows = [cols[-1] for _ in range(size)]
        for x in range(size):
            for i in range(n_in):
                if (x >> i) & 1:
                    rows[x] ^= cols[i]
        for x in draw(st.lists(st.integers(0, size - 1), max_size=3)):
            rows[x] ^= draw(st.integers(0, top))
    return TruthTable(n_in, n_out, tuple(rows))


@settings(max_examples=60, deadline=None)
@given(near_affine_tables())
def test_fit_linear_matches_the_exhaustive_reference(table):
    assert fit_linear(table).bits == reference_fit_linear(table)


def activation(vecs: list[int], factors: tuple, full: int) -> int:
    """Rows where every factor (the XOR of its lines, complemented when neg) holds."""
    act = full
    for lines, neg in factors:
        v = full if neg else 0
        for ln in lines:
            v ^= vecs[ln]
        act &= v
    return act


@settings(max_examples=30)
@given(st.data())
def test_realized_candidates_flip_only_their_target(data):
    """Each candidate's gates flip line j exactly on its activation and leave
    every other line, borrowed hosts included, as they found it."""
    n_in = data.draw(st.integers(1, 4))
    n_out = data.draw(st.integers(1, 3))
    width, full = n_in + n_out, (1 << (1 << n_in)) - 1
    vecs = data.draw(st.lists(st.integers(0, full), min_size=width, max_size=width))
    allow_neg = data.draw(st.booleans())
    for j in range(n_in, width):
        for factors, qcost in _candidates(n_in, width, j, allow_neg):
            gates = _realize(j, factors)
            lines = list(vecs)
            for g in gates:
                apply_packed(lines, g, full)
            want = list(vecs)
            want[j] ^= activation(vecs, factors, full)
            assert lines == want, (j, factors)
            assert cost(Circuit(width, (), (), tuple(gates))).quantum_cost == qcost, (j, factors)
            assert allow_neg or not any(c.neg for g in gates for c in g.controls)


def reference_best_candidate(n_in, vecs, errs, allow_neg, full):
    """Score every candidate tuple one at a time; best by the greedy key."""
    best = None
    for j in errs:
        for factors, qcost in _candidates(n_in, len(vecs), j, allow_neg):
            act = activation(vecs, factors, full)
            score = 2 * (act & errs[j]).bit_count() - act.bit_count()
            if score <= 0:
                continue
            pols = tuple(neg for _, neg in factors)
            lines = tuple(ln for f, _ in factors for ln in f)
            key = (-score, qcost, sum(pols), len(factors), j, lines, pols)
            if best is None or key < best[0]:
                best = (key, j, factors)
    return None if best is None else best[1:]


def _check_scorer(data, n_in: int) -> None:
    n_out = data.draw(st.integers(1, 6))
    width, full = n_in + n_out, (1 << (1 << n_in)) - 1
    value = st.one_of(st.integers(0, full), st.sampled_from([0, full, full >> 1, (full >> 1) + 1]))
    vecs = data.draw(st.lists(value, min_size=width, max_size=width))
    masks = data.draw(st.lists(value, min_size=n_out, max_size=n_out))
    errs = {n_in + ol: m for ol, m in enumerate(masks) if m}
    allow_neg = data.draw(st.booleans())
    want = reference_best_candidate(n_in, vecs, errs, allow_neg, full)
    assert _best_candidate(n_in, vecs, errs, allow_neg, full) == want


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.data())
def test_vectorized_scorer_picks_the_reference_winner(n_in, data):
    _check_scorer(data, n_in)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_vectorized_scorer_on_64_row_lines(data):
    """n_in = 6: all ones is 2**64 - 1, where overflow or sign slips would show."""
    _check_scorer(data, 6)


def test_vectorized_scorer_breaks_ties_like_the_reference():
    """Few rows make equal best scores common, so the tie-break order decides many cases."""
    rng = random.Random(2718)
    for _ in range(2000):
        n_in, n_out = rng.randint(1, 3), rng.randint(1, 4)
        width, full = n_in + n_out, (1 << (1 << n_in)) - 1
        vecs = [rng.randint(0, full) for _ in range(width)]
        errs = {n_in + ol: m for ol in range(n_out) if (m := rng.randint(0, full))}
        allow_neg = rng.random() < 0.5
        want = reference_best_candidate(n_in, vecs, errs, allow_neg, full)
        assert _best_candidate(n_in, vecs, errs, allow_neg, full) == want, (n_in, vecs, errs, allow_neg)


def test_vectorized_scorer_at_the_64_bit_edges():
    full = (1 << 64) - 1
    top, vecs = 1 << 63, input_vectors(6) + [0, full]
    # a lone wrong row (top) has no positive-score candidate; the rest do
    winners = 0
    for errs in ({6: full}, {7: full}, {6: top}, {6: top | 1, 7: full ^ top}, {6: full, 7: full}):
        for allow_neg in (False, True):
            want = reference_best_candidate(6, vecs, errs, allow_neg, full)
            assert _best_candidate(6, vecs, errs, allow_neg, full) == want, (errs, allow_neg)
            winners += want is not None
    assert winners == 8


@st.composite
def coprime_pairs(draw) -> tuple[int, int]:
    n = draw(st.integers(2, 90))
    a = draw(st.integers(1, n - 1).filter(lambda a: math.gcd(a, n) == 1))
    return a, n


@settings(max_examples=60)
@given(coprime_pairs(), st.integers(0, 2**32 - 1), st.integers(1, 512))
def test_order_finding_draws_equal_numpy_choice(pair, seed, shots):
    """The cached-CDF sampler reproduces Generator.choice on the same probabilities,
    so a numpy release that changes choice's algorithm fails here."""
    a, n = pair
    m, probs = _order_finding_probabilities(a, n)
    want = np.random.default_rng(seed).choice(1 << m, size=shots, p=probs)
    assert order_finding_run(a, n, shots, seed).samples == tuple(want.tolist())
