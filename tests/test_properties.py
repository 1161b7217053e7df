"""Property tests: the packed evaluator against the row-at-a-time reference,
and the synthesizer's candidates against the gates built for them."""

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
    basis_permutation,
    circuit_from_json,
    circuit_to_json,
    cost,
    evaluate,
    to_permutation,
    verify,
)
from shorcompile.library import LIBRARY
from shorcompile.modexp import TruthTable
from shorcompile.synth import _candidates, _realize, synthesize

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


def reference_permutation(circuit: Circuit, order: list[int]) -> list[int]:
    """State bit i, counted from the most significant, lives on order[i]."""
    n, perm = len(order), []
    for state in range(1 << n):
        bits = [0] * circuit.width
        for i, line in enumerate(order):
            bits[line] = (state >> (n - 1 - i)) & 1
        bits = reference_run(circuit, bits)
        perm.append(sum(bits[line] << (n - 1 - i) for i, line in enumerate(order)))
    return perm


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
    assert to_permutation(circ).tolist() == reference_permutation(circ, list(range(circ.width)))
    order = data.draw(st.permutations(range(circ.width)))
    assert basis_permutation(circ, tuple(order)).tolist() == reference_permutation(circ, order)


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
    for j, factors, act, qcost in _candidates(n_in, vecs, range(n_in, width), allow_neg, full):
        gates = _realize(j, factors)
        lines = list(vecs)
        for g in gates:
            apply_packed(lines, g, full)
        want = list(vecs)
        want[j] ^= act
        assert lines == want, (j, factors)
        assert cost(Circuit(width, (), (), tuple(gates))).quantum_cost == qcost, (j, factors)
        assert allow_neg or not any(c.neg for g in gates for c in g.controls)
