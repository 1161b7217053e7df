"""Reversible-circuit IR: NOT/CNOT/Toffoli gates, bit-exact evaluation, costs.

Circuits are evaluated classically, on packed bit vectors that hold every
input row at once (``verify``) or one row (``evaluate``); nothing here
builds a statevector. The packed-row format is modexp's: its ``pack``,
``unpack``, ``set_bits`` and ``input_vectors`` load and read the lines.

Line 0 is the top line of a circuit diagram. Bit significance is carried by
the input_lines/output_lines orderings (first element = most significant),
never by the line index itself.

Each type checks its own fields once, at construction, so a document loader
passes its values straight in: ``Control`` its line (an exact int) and
polarity (a bool), ``Gate`` its kind, its target (an exact int), its control
count and that its lines are distinct, ``Circuit`` its width, its register
lines and that every gate line lies below the width.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import NamedTuple

from ._checked import checked_record, exact_int
from .modexp import TruthTable, input_vectors, pack, set_bits, unpack


class GateKind(Enum):
    NOT = "not"
    CNOT = "cnot"
    TOFFOLI = "toffoli"


_CONTROL_COUNT = {GateKind.NOT: 0, GateKind.CNOT: 1, GateKind.TOFFOLI: 2}


# Control and Gate stay frozen dataclasses: the per-gate loops of verify and
# synthesis read their fields, and on CPython 3.11 a named-tuple field read is an
# unspecialized descriptor call, about twice the cost of a dataclass field read.
@dataclass(frozen=True)
class Control:
    line: int
    neg: bool = False

    def __post_init__(self) -> None:
        _checked_int(self.line)
        if not isinstance(self.neg, bool):
            raise ValueError(f"control polarity must be true or false, got {self.neg!r}")


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    controls: tuple[Control, ...]
    target: int

    def __post_init__(self) -> None:
        if type(self.kind) is not GateKind:
            raise ValueError(f"{self.kind!r} is not a valid GateKind")
        _checked_int(self.target)
        if len(self.controls) != _CONTROL_COUNT[self.kind]:
            raise ValueError(f"{self.kind.value} takes {_CONTROL_COUNT[self.kind]} controls")
        lines = [c.line for c in self.controls]
        if self.target in lines or len(set(lines)) != len(lines):
            raise ValueError("control lines must be distinct from each other and the target")


def not_gate(target: int) -> Gate:
    return Gate(GateKind.NOT, (), target)


def cnot(control: int, target: int, neg: bool = False) -> Gate:
    return Gate(GateKind.CNOT, (Control(control, neg),), target)


def toffoli(c1: int, c2: int, target: int, neg1: bool = False, neg2: bool = False) -> Gate:
    return Gate(GateKind.TOFFOLI, (Control(c1, neg1), Control(c2, neg2)), target)


_checked_int = partial(exact_int, message="circuit lines and width must be integers")


class Circuit(checked_record("Circuit", "width input_lines output_lines gates")):
    __slots__ = ()

    def __new__(
        cls, width: int, input_lines: tuple[int, ...], output_lines: tuple[int, ...], gates: tuple[Gate, ...]
    ) -> Circuit:
        _checked_int(width)
        lines = [_checked_int(ln) for ln in (*input_lines, *output_lines)]
        if len(set(lines)) != len(lines):
            raise ValueError("input and output lines must be disjoint")
        if max(lines, default=-1) >= width or min(lines, default=0) < 0:
            raise ValueError("register line out of range")
        # gates are frozen, so a gate object repeated at several positions
        # (synthesis reuses them) is checked once
        for g in {id(g): g for g in gates}.values():
            lo = hi = g.target
            for c in g.controls:
                if c.line > hi:
                    hi = c.line
                elif c.line < lo:
                    lo = c.line
            if lo < 0 or hi >= width:
                raise ValueError(f"gate {g} uses a line outside width {width}")
        return tuple.__new__(cls, (width, input_lines, output_lines, gates))

    @property
    def n_in(self) -> int:
        return len(self.input_lines)

    @property
    def n_out(self) -> int:
        return len(self.output_lines)


class CostReport(NamedTuple):
    n_toffoli: int
    n_cnot: int
    n_not: int
    quantum_cost: int


class Mismatch(NamedTuple):
    x: int
    expected: int
    got: int
    input_after: int


def apply_packed(lines: list[int], gate: Gate, full: int) -> None:
    """Apply one gate in place to packed line values.

    Each line value packs one bit per row and full has every row's bit set.
    The gate rule: flip the target iff every control matches its polarity.
    """
    act = full
    for c in gate.controls:
        act &= (lines[c.line] ^ full) if c.neg else lines[c.line]
    lines[gate.target] ^= act


def _run(circuit: Circuit, vecs: tuple[int, ...], full: int) -> defaultdict[int, int]:
    """Packed line values after the gates, vecs on the input lines, zero elsewhere.

    Keyed by line, so only the lines the circuit uses are held, whatever its width.
    """
    lines = defaultdict(int, zip(circuit.input_lines, vecs))
    for g in circuit.gates:
        apply_packed(lines, g, full)
    return lines


def evaluate(circuit: Circuit, x: int) -> tuple[int, int]:
    """Load x on the input lines, zero elsewhere, run the gates.

    Returns (output register value, input register value after the run);
    the second component detects circuits that fail to restore their input.
    """
    n_in = circuit.n_in
    if not 0 <= x < 1 << n_in:
        raise ValueError(f"x={x} does not fit in {n_in} input bits")
    lines = _run(circuit, pack((x,), n_in), 1)
    (row,) = unpack([lines[ln] for ln in circuit.output_lines + circuit.input_lines], 1)  # y above x
    return row >> n_in, row & ((1 << n_in) - 1)


def verify(circuit: Circuit, table: TruthTable) -> list[Mismatch]:
    """All inputs where the circuit disagrees with the table or clobbers x.

    Every row runs at once on packed line values, loaded from input_vectors
    and checked against table.columns; the rows that differ, in ascending
    x, are read back from the same values.
    """
    if circuit.n_in != table.n_in or circuit.n_out != table.n_out:
        raise ValueError(
            f"register shape {circuit.n_in}/{circuit.n_out} does not match "
            f"table {table.n_in}/{table.n_out}"
        )
    n_rows = len(table.rows)
    in_vecs = input_vectors(circuit.n_in)
    lines = _run(circuit, in_vecs, (1 << n_rows) - 1)
    diff = 0
    for line, want in zip(circuit.output_lines + circuit.input_lines, table.columns + in_vecs):
        diff |= lines[line] ^ want
    if not diff:
        return []
    got = unpack([lines[ln] for ln in circuit.output_lines], n_rows)
    after = unpack([lines[ln] for ln in circuit.input_lines], n_rows)
    return [Mismatch(x, table.rows[x], got[x], after[x]) for x in set_bits(diff)]


def cost(circuit: Circuit) -> CostReport:
    """Gate counts with quantum cost 6 per Toffoli, 1 per CNOT or NOT."""
    # one pass; the members are read once, as an Enum attribute lookup is slow
    toffoli_kind, cnot_kind = GateKind.TOFFOLI, GateKind.CNOT
    n_t = n_c = n_n = 0
    for g in circuit.gates:
        if g.kind is toffoli_kind:
            n_t += 1
        elif g.kind is cnot_kind:
            n_c += 1
        else:
            n_n += 1
    return CostReport(n_t, n_c, n_n, 6 * n_t + n_c + n_n)


def circuit_to_json(circuit: Circuit) -> str:
    """The circuit document, byte for byte the text json.dumps writes for it.

    Each gate is written from a template, once per distinct gate object, as
    synthesized circuits repeat gate objects. The template writes what
    json.dumps would for int lines and bool polarities.
    """
    texts = {}
    for key, g in {id(g): g for g in circuit.gates}.items():
        ctrl = ", ".join(f'{{"line": {c.line}, "neg": {"true" if c.neg else "false"}}}' for c in g.controls)
        texts[key] = f'{{"kind": "{g.kind._value_}", "controls": [{ctrl}], "target": {g.target}}}'
    gates = ", ".join([texts[id(g)] for g in circuit.gates])
    ins, outs = (", ".join(map(str, lines)) for lines in (circuit.input_lines, circuit.output_lines))
    return f'{{"width": {circuit.width}, "input_lines": [{ins}], "output_lines": [{outs}], "gates": [{gates}]}}'


def circuit_from_json(text: str) -> Circuit:
    try:
        obj = json.loads(text)
        gates = tuple(
            Gate(GateKind(g["kind"]), tuple(Control(c["line"], c["neg"]) for c in g["controls"]), g["target"])
            for g in obj["gates"]
        )
        return Circuit(obj["width"], tuple(obj["input_lines"]), tuple(obj["output_lines"]), gates)
    except (KeyError, TypeError, RecursionError) as exc:
        raise ValueError(f"malformed circuit document: {exc}") from exc


def render_gates(circuit: Circuit) -> str:
    """One line per gate, controls with +/- polarity, for text diffs."""
    out = []
    for g in circuit.gates:
        ctrl = ", ".join(f"{'-' if c.neg else '+'}{c.line}" for c in g.controls)
        if ctrl:
            out.append(f"{g.kind.value}({ctrl} -> {g.target})")
        else:
            out.append(f"{g.kind.value}(-> {g.target})")
    return "\n".join(out)

