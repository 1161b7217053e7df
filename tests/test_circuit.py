"""Reversible gate IR: evaluation, verification, cost, JSON documents."""

import pytest

from shorcompile import circuit as circuit_module
from shorcompile.circuit import (
    Circuit,
    Control,
    Gate,
    GateKind,
    apply_gate,
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
from shorcompile.modexp import TruthTable


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


def test_evaluate_all_library_entries():
    for name in FIGURE_IDS:
        e = LIBRARY[name]
        for x, want in enumerate(e.table.rows):
            y, x_after = evaluate(e.circuit, x)
            assert y == want, (name, x)
            assert x_after == x, (name, x)


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
    def unpacked(*_):
        raise AssertionError("a circuit that verifies needs no per-row values")

    monkeypatch.setattr(circuit_module, "_unpack", unpacked)
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
    ],
    ids=("bool-gate-line", "float-gate-line", "register-lines", "width", "int-polarity"),
)
def test_circuit_refuses_non_int_lines_and_non_bool_polarities(make, message):
    """circuit_to_json would write True as a bare name and 1.0 as a float."""
    with pytest.raises(ValueError, match=message):
        make()
