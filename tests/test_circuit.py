"""Reversible gate IR: evaluation, verification, cost, JSON documents."""

import hashlib

import pytest
from test_properties import apply_gate

from shorcompile import circuit as circuit_module
from shorcompile.circuit import (
    Circuit,
    Control,
    Gate,
    GateKind,
    circuit_from_json,
    circuit_to_json,
    cnot,
    cost,
    evaluate,
    not_gate,
    toffoli,
    verify,
)
from shorcompile.library import FIGURE_IDS, LIBRARY, library_entry
from shorcompile.modexp import TruthTable, input_vectors


def test_gate_constructors_and_validation():
    g = toffoli(0, 1, 2, neg1=True)
    assert g.kind is GateKind.TOFFOLI
    assert g.controls[0] == Control(0, True)
    with pytest.raises(ValueError):
        Gate(GateKind.CNOT, (Control(1), Control(2)), 3)  # wrong control count
    with pytest.raises(ValueError):
        cnot(2, 2)  # control hits target
    with pytest.raises(ValueError):
        toffoli(1, 1, 3)  # repeated control


def test_apply_gate_semantics():
    assert apply_gate([0, 0, 0], not_gate(1)) == [0, 1, 0]
    assert apply_gate([1, 0], cnot(0, 1)) == [1, 1]
    assert apply_gate([0, 0], cnot(0, 1)) == [0, 0]
    assert apply_gate([0, 1], cnot(0, 1, neg=True)) == [0, 0]
    assert apply_gate([1, 1, 0], toffoli(0, 1, 2)) == [1, 1, 1]
    assert apply_gate([1, 0, 0], toffoli(0, 1, 2)) == [1, 0, 0]
    assert apply_gate([1, 0, 0], toffoli(0, 1, 2, neg2=True)) == [1, 0, 1]


def test_evaluate_loads_msb_first():
    # identity wiring: input line 0 is the most significant input bit
    circ = Circuit(width=3, input_lines=(0, 1), output_lines=(2,), gates=(cnot(0, 2),))
    y, x_after = evaluate(circ, 2)  # x = 10 binary, line 0 carries the 1
    assert (y, x_after) == (1, 2)
    y, _ = evaluate(circ, 1)
    assert y == 0


def test_evaluate_refuses_an_input_wider_than_its_register():
    with pytest.raises(ValueError, match="x=4 does not fit in 2 input bits"):
        evaluate(library_entry("f4_21_full").circuit, 4)


def test_evaluate_all_library_entries():
    for name in FIGURE_IDS:
        e = LIBRARY[name]
        for x, want in enumerate(e.table.rows):
            y, x_after = evaluate(e.circuit, x)
            assert y == want, (name, x)
            assert x_after == x, (name, x)


# The eight library circuits as data: each one's width and the sha256 of its
# circuit_to_json document. Re-record an entry only with a deliberate change
# to that circuit, and say why in CHANGES.md.
PINNED_LIBRARY_CIRCUITS = {
    "f2_15": (6, "4b550a9f84314be56aa4b0cc693610d7d67fd249c8c351e50eb0517495fedc5f"),
    "f2_15_full": (4, "2c9b5dd6813c0599051da84548c497b353c25127197ea6a9bed0e15af03756f0"),
    "f4_15": (4, "2f8698de75f6d4931c5fae35bd072f5542753ac0a8dea9c47d052ee19723ee0a"),
    "f4_15_full": (2, "61318055c9c77dd199392677d529d5a4dd28c0a4b4e01b07b821b70536ee88f7"),
    "f4_21": (8, "b19a48a4e66c815237d39c30dc0fa17460eeee7d7cf3f3999de109d31d3f5f75"),
    "f4_21_partial": (5, "7eb70c0afc9416e8845d5ddefabfbeba8eddd4faa133b039f61847b6921bd201"),
    "f4_21_full": (4, "5c8d6728d9e44422ac5393a530f46a817ec00f7caa6e92a6703d7a22e1549f6d"),
    "f4_33_full": (7, "9d78527339d4d761963db331cf1ca88f77cef3227ffe4a35cd9f0e31089c41bf"),
}


def test_library_circuits_are_pinned():
    got = {
        name: (LIBRARY[name].circuit.width, hashlib.sha256(circuit_to_json(LIBRARY[name].circuit).encode()).hexdigest())
        for name in FIGURE_IDS
    }
    assert got == PINNED_LIBRARY_CIRCUITS


def test_library_lookup_rejects_unknown_id():
    assert library_entry("f4_21") is LIBRARY["f4_21"]
    with pytest.raises(ValueError, match="unknown circuit id"):
        library_entry("nope")


def test_verify_reports_mismatches():
    e = LIBRARY["f4_21"]
    assert verify(e.circuit, e.table) == []
    broken = Circuit(
        e.circuit.width, e.circuit.input_lines, e.circuit.output_lines,
        e.circuit.gates[:-1],  # drop the last gate
    )
    bad = verify(broken, e.table)
    assert bad
    assert all(mm.expected == e.table.rows[mm.x] for mm in bad)


def test_verify_unpacks_no_rows_when_every_row_matches(monkeypatch):
    def read(*_):
        raise AssertionError("a circuit that verifies needs no per-row values")

    monkeypatch.setattr(circuit_module, "unpack", read)
    for name in FIGURE_IDS:
        e = library_entry(name)
        assert verify(e.circuit, e.table) == []


def test_verify_checks_register_shape():
    circ = Circuit(3, (0,), (1, 2), (cnot(0, 1),))
    with pytest.raises(ValueError):
        verify(circ, TruthTable(2, 2, (0, 1, 2, 3)))


def test_verify_catches_unrestored_input():
    # CNOT back onto an input line leaves x mangled for half the rows
    circ = Circuit(2, (0,), (1,), (cnot(0, 1), cnot(1, 0)))
    bad = verify(circ, TruthTable(1, 1, (0, 1)))
    assert bad and bad[0].input_after != bad[0].x


def test_equal_tables_compare_and_hash_equal_whether_or_not_columns_were_read():
    read, fresh = TruthTable(2, 3, (0, 5, 2, 7)), TruthTable(2, 3, (0, 5, 2, 7))
    assert read.columns == (0b1010, 0b1100, 0b1010)
    assert "columns" in vars(read) and "columns" not in vars(fresh)
    assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
    assert read != TruthTable(2, 3, (0, 5, 2, 6))


def test_packed_columns_are_shared_tuples():
    """The packed columns are immutable tuples that every caller reads as is:
    a width's input columns are one object from call to call."""
    table = TruthTable(2, 2, (0, 1, 2, 3))
    assert table.columns == (0b1100, 0b1010) and table.columns is table.columns
    assert input_vectors(2) == (0b1100, 0b1010) and input_vectors(2) is input_vectors(2)


def test_cost_weights():
    circ = Circuit(
        4, (0,), (1, 2, 3),
        (toffoli(0, 1, 2), cnot(0, 1), cnot(1, 3), not_gate(3)),
    )
    rep = cost(circ)
    assert (rep.n_toffoli, rep.n_cnot, rep.n_not) == (1, 2, 1)
    assert rep.quantum_cost == 6 * 1 + 2 + 1


def test_caption_costs():
    assert cost(LIBRARY["f4_21"].circuit).quantum_cost == 24
    assert cost(LIBRARY["f4_21_partial"].circuit).quantum_cost == 18


def test_circuit_json_roundtrip():
    for name in FIGURE_IDS:
        circ = LIBRARY[name].circuit
        again = circuit_from_json(circuit_to_json(circ))
        assert again == circ


def test_circuit_json_rejects_garbage():
    with pytest.raises(ValueError):
        circuit_from_json('{"width": 2}')


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(2, (0,), (1,), (cnot(0, 2),))  # gate off the register
    with pytest.raises(ValueError):
        Circuit(2, (0, 1), (1,), ())  # line 1 used twice
    # a line belonging to neither register is a legal ancilla
    Circuit(3, (0,), (1,), ())


def test_circuit_checks_every_distinct_gate_object():
    """Each distinct gate object is checked once: no case skips a bad gate."""
    good, bad = cnot(0, 1), toffoli(0, 1, 3)
    for gates in (
        (bad,),  # once
        (bad, good, bad, bad),  # the same bad object repeated
        (good,) * 50 + (bad,),  # after many repeats of one valid object
        (good, cnot(0, 1), not_gate(3), not_gate(1)) + (good,) * 5,  # a distinct object, unique value
    ):
        with pytest.raises(ValueError, match="outside width 3"):
            Circuit(3, (0,), (1,), gates)


@pytest.mark.parametrize(
    ("make", "message"),
    [
        (lambda: Circuit(3, (0,), (1,), (cnot(True, 2), not_gate(1.0))), "integers, got True"),
        (lambda: Circuit(3, (0,), (1,), (cnot(0, 2), not_gate(1.0))), "integers, got 1.0"),
        (lambda: Circuit(3, (0.0,), (True,), ()), "integers, got 0.0"),
        (lambda: Circuit(3.0, (0,), (1,), ()), "integers, got 3.0"),
        (lambda: Circuit(3, (0,), (1,), (cnot(0, 2, neg=0),)), "polarity must be true or false, got 0"),
        (lambda: Circuit(2, (0,), (-1,), ()), "register line out of range"),
        (lambda: Circuit(2, (0,), (2,), ()), "register line out of range"),
    ],
    ids=("bool-gate-line", "float-gate-line", "register-lines", "width", "int-polarity", "line-below", "line-above"),
)
def test_circuit_refuses_non_int_lines_and_non_bool_polarities(make, message):
    """circuit_to_json would write True as a bare name and 1.0 as a float; a register line must lie in the width."""
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize(
    ("make", "message"),
    [
        (lambda: Gate("cnot", (Control(0),), 1), "'cnot' is not a valid GateKind"),
        (lambda: Gate(GateKind.NOT, (), False), "integers, got False"),
        (lambda: Control(1.5), "integers, got 1.5"),
        (lambda: Control(0, None), "polarity must be true or false, got None"),
    ],
    ids=("str-kind", "bool-target", "float-line", "null-polarity"),
)
def test_gate_and_control_refuse_bad_field_types_at_construction(make, message):
    with pytest.raises(ValueError, match=message):
        make()
