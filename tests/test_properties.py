"""Property tests: the packed input and output columns, and their unpacking,
against bitwise sums over the rows, the packed evaluator against the row-at-a-time reference,
the template JSON encoder against json.dumps of the document dict, the
float array and scalar writers against json.dumps, the
synthesizer's candidates against the gates built for them, its greedy
repair, whole gate list and returned error masks, against a plain-Python
loop that scores every candidate each round, its packed ANF transform
against a list-based one, its ANF mop-up gates against the flip each
monomial asks for, and the order-finding sampler against numpy's own
weighted draw."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from shorcompile.circuit import (
    Circuit,
    Control,
    Gate,
    GateKind,
    Mismatch,
    apply_packed,
    circuit_from_json,
    circuit_to_json,
    cost,
    evaluate,
    verify,
)
from shorcompile.cli import _json_floats, _json_scalar
from shorcompile.library import LIBRARY
from shorcompile.modexp import TruthTable, input_vectors, pack, set_bits, unpack
from shorcompile.numtheory import multiplicative_order
from shorcompile.qsim import _register_sizes, order_finding_run, period_distribution
from shorcompile.synth import (
    AffineForm,
    BitFit,
    SynthesisError,
    _anf_monomials,
    _candidates,
    _greedy,
    _monomial_gates,
    _realize,
    fit_linear,
    synthesize,
)

KINDS = (GateKind.NOT, GateKind.CNOT, GateKind.TOFFOLI)


def apply_gate(bits: list[int], gate: Gate) -> list[int]:
    """Row-at-a-time reference for the gate rule, one bit per line."""
    out = list(bits)
    if all(bits[c.line] != c.neg for c in gate.controls):
        out[gate.target] ^= 1
    return out


@st.composite
def gates(draw, width: int) -> Gate:
    n_controls = draw(st.integers(0, min(2, width - 1)))
    lines = draw(st.permutations(range(width)))[: n_controls + 1]
    negs = draw(st.lists(st.booleans(), min_size=n_controls, max_size=n_controls))
    controls = tuple(Control(ln, neg) for ln, neg in zip(lines[1:], negs))
    return Gate(KINDS[n_controls], controls, lines[0])


def reference_pack(rows: list[int], width: int) -> list[int]:
    """Bit x of column b is bit b, counted from the most significant, of row x: a bitwise sum."""
    return [sum(((y >> (width - 1 - b)) & 1) << x for x, y in enumerate(rows)) for b in range(width)]


@settings(max_examples=60)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_packed_columns_match_per_call_packing(n_in, n_out, data):
    """The kept output columns equal a bitwise sum over the rows, a second read is
    the same tuple, and unpack reads the rows back; set_bits lists each column's
    rows; every input line holds bit (x >> (n_in - 1 - i)) & 1 at row x, and
    input_vectors' doubling loop packs what pack does at the drawn width and
    two wider, so the draws reach every width to 8."""
    rows = data.draw(st.lists(st.integers(0, (1 << n_out) - 1), min_size=1 << n_in, max_size=1 << n_in))
    table = TruthTable(n_in, n_out, tuple(rows))
    first = table.columns
    assert first == tuple(reference_pack(rows, n_out)) and table.columns is first
    assert unpack(first, 1 << n_in) == rows
    for m in (*first, *input_vectors(n_in)):
        assert set_bits(m) == [x for x in range(m.bit_length()) if m >> x & 1]
    for i, vec in enumerate(input_vectors(n_in)):
        assert vec == sum(((x >> (n_in - 1 - i)) & 1) << x for x in range(1 << n_in)), (n_in, i)
    for n in (n_in, n_in + 2):
        assert input_vectors(n) == pack(range(1 << n), n), n


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


def reference_circuit_dict(circuit: Circuit) -> dict:
    """The circuit document built as dicts, one per gate and per control;
    json.dumps of it is the reference encoding."""
    gates = [
        {
            "kind": g.kind.value,
            "controls": [{"line": c.line, "neg": c.neg} for c in g.controls],
            "target": g.target,
        }
        for g in circuit.gates
    ]
    return {
        "width": circuit.width,
        "input_lines": list(circuit.input_lines),
        "output_lines": list(circuit.output_lines),
        "gates": gates,
    }


@st.composite
def shared_gate_circuits(draw) -> Circuit:
    """Width 1-12, possibly empty registers and no gates. Each position takes
    a gate object from a small pool, so one object can sit at several
    positions, or an equal copy of it that is a distinct object."""
    width = draw(st.integers(1, 12))
    order = draw(st.permutations(range(width)))
    n_in = draw(st.integers(0, width))
    n_out = draw(st.integers(0, width - n_in))
    pool = draw(st.lists(gates(width), min_size=1, max_size=6))
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), st.booleans()), max_size=24))
    body = tuple(Gate(g.kind, g.controls, g.target) if copy else g for g, copy in picks)
    return Circuit(width, tuple(order[:n_in]), tuple(order[n_in : n_in + n_out]), body)


@settings(max_examples=200)
@given(shared_gate_circuits())
def test_template_encoder_writes_the_reference_encoding(circ):
    assert circuit_to_json(circ) == json.dumps(reference_circuit_dict(circ))


# Values whose texts are easy to get wrong: both zeros (equal, with two bit
# patterns), the least normal, subnormals down to the least, and the
# exponent forms of repr.
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e16, 1e-5, 1.7e308, -1.7e308)


@settings(max_examples=200)
@given(
    arrays(
        np.float64,
        array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5),
        elements=st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)),
    )
)
@example(np.array([[0.0, -0.0, 5e-324, 1e-310, 1e16], [1e-5, 1.7e308, -1.7e308, -0.0, 0.0]]))
def test_float_array_writer_writes_the_reference_encoding(values):
    assert _json_floats(values) == json.dumps(values.tolist())


@settings(max_examples=200)
@given(
    st.one_of(st.none(), st.integers(), st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
)
def test_scalar_writer_writes_the_reference_encoding(value):
    assert _json_scalar(value) == json.dumps(value)


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
    for target in table.columns:
        best = None
        for mask, v in enumerate(span):
            for const in (0, 1):
                vv = v ^ (full if const else 0)
                miss = vv ^ target
                form = AffineForm(mask, bool(const))
                key = (miss.bit_count(), mask.bit_count() + const, mask, const)
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


def reference_greedy(table: TruthTable, errs: tuple[int, ...], allow_neg: bool) -> tuple[list[Gate], tuple[int, ...]]:
    """The greedy stage one plain-Python round at a time: reference_best_candidate's
    winner, its _realize gates run on every line through apply_packed, until it
    returns None; then the gates and every output line's error mask."""
    n_in, full = table.n_in, (1 << (1 << table.n_in)) - 1
    lines = [*input_vectors(n_in), *(t ^ e for t, e in zip(table.columns, errs))]
    gates: list[Gate] = []
    while True:
        masks = tuple(lines[j] ^ t for j, t in enumerate(table.columns, n_in))
        winner = reference_best_candidate(n_in, lines, {j: m for j, m in enumerate(masks, n_in) if m}, allow_neg, full)
        if winner is None:
            return gates, masks
        for g in _realize(*winner):
            apply_packed(lines, g, full)
            gates.append(g)


def table_of_columns(n_in: int, columns: list[int]) -> TruthTable:
    """The table whose output lines, most significant first, hold the packed columns."""
    n_out = len(columns)
    rows = [sum((c >> x & 1) << (n_out - 1 - b) for b, c in enumerate(columns)) for x in range(1 << n_in)]
    return TruthTable(n_in, n_out, tuple(rows))


def _check_greedy(table: TruthTable, errs: tuple[int, ...], allow_neg: bool) -> int:
    """_greedy's gates and masks equal the reference loop's; returns the gate count."""
    gates, masks = _greedy(table, errs, allow_neg)
    assert (gates, masks) == reference_greedy(table, errs, allow_neg), (table, errs, allow_neg)
    return len(gates)


def _line_values(n_in: int) -> st.SearchStrategy[int]:
    """Any packed line value, with all ones and the half-way edges drawn often."""
    full = (1 << (1 << n_in)) - 1
    return st.one_of(st.integers(0, full), st.sampled_from([0, full, full >> 1, (full >> 1) + 1]))


def _draw_greedy_state(data, n_in: int) -> tuple[TruthTable, tuple[int, ...], bool]:
    """A table of drawn output columns and a drawn error mask per output line."""
    n_out = data.draw(st.integers(1, 6))
    columns = data.draw(st.lists(_line_values(n_in), min_size=n_out, max_size=n_out))
    masks = data.draw(st.lists(_line_values(n_in), min_size=n_out, max_size=n_out))
    return table_of_columns(n_in, columns), tuple(masks), data.draw(st.booleans())


def _random_greedy_state(rng: random.Random, max_out: int) -> tuple[TruthTable, tuple[int, ...], bool]:
    """Few rows, where equal best scores are common and the tie-break order decides."""
    n_in, n_out = rng.randint(1, 3), rng.randint(1, max_out)
    full = (1 << (1 << n_in)) - 1
    columns = [rng.randint(0, full) for _ in range(n_out)]
    masks = tuple(rng.randint(0, full) if rng.random() < 0.8 else 0 for _ in range(n_out))
    return table_of_columns(n_in, columns), masks, rng.random() < 0.5


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.data())
def test_vectorized_scorer_picks_the_reference_winner(n_in, data):
    """Every round of _greedy picks the winner a plain-Python scoring of every candidate picks."""
    _check_greedy(*_draw_greedy_state(data, n_in))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_vectorized_scorer_on_64_row_lines(data):
    """n_in = 6: all ones is 2**64 - 1, where overflow or sign slips would show."""
    _check_greedy(*_draw_greedy_state(data, 6))


def test_vectorized_scorer_breaks_ties_like_the_reference():
    """Few rows make equal best scores common, so the tie-break order decides many cases."""
    rng = random.Random(2718)
    for _ in range(2000):
        _check_greedy(*_random_greedy_state(rng, 4))


def test_vectorized_scorer_at_the_64_bit_edges():
    """Output lines holding 0 and all ones, with masks at the 64th row: a lone
    wrong row (top) has no positive-score candidate; the other masks do."""
    full = (1 << 64) - 1
    top = 1 << 63
    repaired = 0
    for errs in ((full, 0), (0, full), (top, 0), (top | 1, full ^ top), (full, full)):
        for allow_neg in (False, True):
            # the lines hold 0 and full, so each column is its line value XOR its mask
            repaired += _check_greedy(table_of_columns(6, [errs[0], full ^ errs[1]]), errs, allow_neg) > 0
    assert repaired == 8


@settings(max_examples=30, deadline=None)
@given(near_affine_tables(), st.booleans())
def test_scorer_applies_its_own_winners(table, allow_neg):
    """The state the greedy stage gets from the linear fit: each line wrong on its
    fit's mismatches. _greedy keeps the only copy of that line state, so each
    winner must leave it where the winner's gates leave the lines."""
    errs = tuple(sum(1 << x for x in bit.mismatches) for bit in fit_linear(table).bits)
    _check_greedy(table, errs, allow_neg)


def test_scorer_winners_break_ties_like_the_reference():
    """Few rows make equal best scores common, so a stale line value or error
    mask shows up as a different tie-break winner in a later round; up to 6
    output lines, so a winner's flip reaches the factors of many other lines."""
    rng = random.Random(1618)
    for _ in range(150):
        _check_greedy(*_random_greedy_state(rng, 6))


def reference_anf_monomials(err: int, n_in: int) -> list[int]:
    """The Moebius transform one coefficient at a time, over a list."""
    size = 1 << n_in
    coef = [(err >> x) & 1 for x in range(size)]
    step = 1
    while step < size:
        for x in range(size):
            if x & step:
                coef[x] ^= coef[x ^ step]
        step <<= 1
    return [t for t in range(size) if coef[t]]


@pytest.mark.parametrize("n_in", range(1, 7))
@settings(max_examples=60)
@given(residual=st.integers(0, (1 << 64) - 1))
@example(residual=0)
@example(residual=(1 << 64) - 1)
def test_packed_anf_matches_the_list_transform(n_in, residual):
    """The residual is cut to the 2**n_in rows, so the pinned examples are
    the empty and the all-ones residual at every width."""
    residual &= (1 << (1 << n_in)) - 1
    assert _anf_monomials(residual, n_in) == reference_anf_monomials(residual, n_in)


@pytest.mark.parametrize("n_in", range(1, 7))
@settings(max_examples=4)
@given(data=st.data())
def test_monomial_gates_flip_only_their_target(n_in, data):
    """plan_cascades appends the mop-up gates without running them, so each
    sequence must flip line j by exactly its monomial and restore every other
    line, whatever the lines hold. Only a degree >= 3 flip with no line
    outside its controls and target may be refused."""
    size = 1 << n_in
    full = (1 << size) - 1
    for n_out in range(1, 7):
        width = n_in + n_out
        # the input register as synthesis loads it, then arbitrary values
        value = st.integers(0, full)
        fills = [[*input_vectors(n_in), *data.draw(st.lists(value, min_size=n_out, max_size=n_out))]]
        fills.append(data.draw(st.lists(value, min_size=width, max_size=width)))
        for j in range(n_in, width):
            for term in range(size):
                controls = [n_in - 1 - p for p in range(n_in) if (term >> p) & 1]
                if len(controls) >= 3 and len(controls) == width - 1:
                    with pytest.raises(SynthesisError, match="no spare line"):
                        _monomial_gates(term, n_in, j, width)
                    continue
                gates = _monomial_gates(term, n_in, j, width)
                monomial = sum(1 << x for x in range(size) if x & term == term)
                for k, fill in enumerate(fills):
                    lines = list(fill)
                    for g in gates:
                        apply_packed(lines, g, full)
                    want = list(fill)
                    flip = full
                    for c in controls:
                        flip &= fill[c]
                    assert k or flip == monomial
                    want[j] ^= flip
                    assert lines == want, (n_in, n_out, j, term, k)


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
    m = _register_sizes(n)
    probs = period_distribution(m, 1 if a == 1 else multiplicative_order(a, n)).probabilities
    want = np.random.default_rng(seed).choice(1 << m, size=shots, p=probs)
    assert order_finding_run(a, n, shots, seed).samples == tuple(want.tolist())
