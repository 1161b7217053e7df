"""Reversible-circuit IR: NOT/CNOT/Toffoli gates, bit-exact evaluation, costs.

Circuits are evaluated classically, on packed bit vectors that hold every
input row at once (``verify``) or one row (``evaluate``); nothing here
builds a statevector.

Line 0 is the top line of a circuit diagram. Bit significance is carried by
the input_lines/output_lines orderings (first element = most significant),
never by the line index itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .modexp import TruthTable


class GateKind(Enum):
    NOT = "not"
    CNOT = "cnot"
    TOFFOLI = "toffoli"


_CONTROL_COUNT = {GateKind.NOT: 0, GateKind.CNOT: 1, GateKind.TOFFOLI: 2}


@dataclass(frozen=True)
class Control:
    line: int
    neg: bool = False


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    controls: tuple[Control, ...]
    target: int

    def __post_init__(self) -> None:
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


def _checked_int(value: object) -> int:
    """value, if its type is exactly int: a bool is an int subclass, but JSON writes it as true/false."""
    if type(value) is not int:
        raise ValueError(f"circuit lines and width must be integers, got {value!r}")
    return value


def _checked_bool(value: object) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"control polarity must be true or false, got {value!r}")
    return value


@dataclass(frozen=True)
class Circuit:
    width: int
    input_lines: tuple[int, ...]
    output_lines: tuple[int, ...]
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        on_register = range(_checked_int(self.width))
        lines = [_checked_int(ln) for ln in (*self.input_lines, *self.output_lines)]
        if len(set(lines)) != len(lines):
            raise ValueError("input and output lines must be disjoint")
        if any(ln not in on_register for ln in lines):
            raise ValueError("register line out of range")
        # gates are frozen, so a gate object repeated at several positions
        # (synthesis reuses them) is checked once; type(...) is int excludes bool
        for g in {id(g): g for g in self.gates}.values():
            ok = type(g.target) is int and g.target in on_register
            for c in g.controls:
                ok = ok and type(c.line) is int and c.line in on_register and type(c.neg) is bool
            if not ok:
                for ln in [g.target] + [c.line for c in g.controls]:
                    _checked_int(ln)
                for c in g.controls:
                    _checked_bool(c.neg)
                raise ValueError(f"gate {g} uses a line outside width {self.width}")

    @property
    def n_in(self) -> int:
        return len(self.input_lines)

    @property
    def n_out(self) -> int:
        return len(self.output_lines)


@dataclass(frozen=True)
class CostReport:
    n_toffoli: int
    n_cnot: int
    n_not: int
    quantum_cost: int


@dataclass(frozen=True)
class Mismatch:
    x: int
    expected: int
    got: int
    input_after: int


def apply_gate(bits: list[int], gate: Gate) -> list[int]:
    """Row-at-a-time reference for the gate rule (tests compare against it)."""
    out = list(bits)
    if all(bits[c.line] != c.neg for c in gate.controls):
        out[gate.target] ^= 1
    return out


def input_vectors(n_in: int) -> list[int]:
    """Packed value of each input line (bit x = input x), line 0 = most significant.

    Line i is 2**p zeros then 2**p ones (p = n_in - 1 - i), doubled up to
    2**n_in bits; the block ends in a 1, so its bit length is the shift.
    """
    vecs = []
    for line in range(n_in):
        half = 1 << (n_in - 1 - line)
        v = ((1 << half) - 1) << half
        while v.bit_length() < 1 << n_in:
            v |= v << v.bit_length()
        vecs.append(v)
    return vecs


def output_vectors(table: TruthTable) -> list[int]:
    """Packed value of each output bit of the table (bit x = row x), MSB first."""
    text = "".join(format(y, f"0{table.n_out}b") for y in reversed(table.rows))
    return [int(text[b :: table.n_out], 2) for b in range(table.n_out)]


def _unpack(vec: int, n_rows: int) -> np.ndarray:
    """Bit x of a packed value at index x, as uint8."""
    raw = np.frombuffer(vec.to_bytes((n_rows + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n_rows, bitorder="little")


def _read_register(lines: list[int], order: tuple[int, ...], n_rows: int) -> np.ndarray:
    """Per row, the value with bit i, counted from the most significant, on line order[i]."""
    out = np.zeros(n_rows, dtype=np.int64)
    for line in order:
        out = (out << 1) | _unpack(lines[line], n_rows)
    return out


def apply_packed(lines: list[int], gate: Gate, full: int) -> int:
    """Apply one gate in place to packed line values; return the rows it flips.

    Each line value packs one bit per row and full has every row's bit set.
    The gate rule: flip the target iff every control matches its polarity.
    """
    act = full
    for c in gate.controls:
        act &= (lines[c.line] ^ full) if c.neg else lines[c.line]
    lines[gate.target] ^= act
    return act


def _run(circuit: Circuit, vecs: list[int], full: int) -> list[int]:
    """Packed line values after the gates, vecs on the input lines, zero elsewhere."""
    lines = [0] * circuit.width
    for line, v in zip(circuit.input_lines, vecs):
        lines[line] = v
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
    bits = _run(circuit, [(x >> (n_in - 1 - i)) & 1 for i in range(n_in)], 1)
    y = 0
    for line in circuit.output_lines:
        y = (y << 1) | bits[line]
    x_after = 0
    for line in circuit.input_lines:
        x_after = (x_after << 1) | bits[line]
    return y, x_after


def verify(circuit: Circuit, table: TruthTable) -> list[Mismatch]:
    """All inputs where the circuit disagrees with the table or clobbers x.

    Every row runs at once on packed line values; the Mismatch records of
    the rows that differ, in ascending x, are read from the same values.
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
    for line, want in zip(circuit.output_lines + circuit.input_lines, output_vectors(table) + in_vecs):
        diff |= lines[line] ^ want
    if not diff:
        return []
    bad = np.flatnonzero(_unpack(diff, n_rows))
    got = _read_register(lines, circuit.output_lines, n_rows)[bad].tolist()
    after = _read_register(lines, circuit.input_lines, n_rows)[bad].tolist()
    return [
        Mismatch(x, table.rows[x], y, x_after)
        for x, y, x_after in zip(bad.tolist(), got, after)
    ]


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
    obj = json.loads(text)
    try:
        # gate numbers are checked before Gate compares lines, so 1.0 is refused as a float, not as line 1
        gates = tuple(
            Gate(
                GateKind(g["kind"]),
                tuple(Control(_checked_int(c["line"]), _checked_bool(c["neg"])) for c in g["controls"]),
                _checked_int(g["target"]),
            )
            for g in obj["gates"]
        )
        return Circuit(obj["width"], tuple(obj["input_lines"]), tuple(obj["output_lines"]), gates)
    except (KeyError, TypeError) as exc:
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

