"""Bundled reference circuits for eight compiled modular-exponentiation maps.

Each entry pairs a hand-transcribed circuit with the truth table it computes,
using the exact register widths of the published diagrams. Line 0 is the top
diagram line; register orderings are most significant bit first.

Known discrepancy, kept observable on purpose: the bundled f4_33_full circuit
computes 12 at x=3, while the defining map g(y) = (y - 1) / 3 applied to
4**3 mod 33 = 31 gives 10. The bundled table records what the circuit
computes; ERRATA records the clash so tests can assert it never silently
disappears.
"""

from __future__ import annotations

from typing import NamedTuple

from .circuit import Circuit, cnot, toffoli
from .modexp import TruthTable


class LibraryEntry(NamedTuple):
    name: str
    base: int
    modulus: int
    strategy: str  # compile strategy reproducing the table: none|log|affine|full
    circuit: Circuit
    table: TruthTable
    caption_toffoli: int
    caption_cnot: int


def _entry(name, base, modulus, strategy, circuit, rows, n_out, n_t, n_cn):
    table = TruthTable(circuit.n_in, n_out, tuple(rows))
    return LibraryEntry(name, base, modulus, strategy, circuit, table, n_t, n_cn)


_F2_15 = Circuit(
    width=6,
    input_lines=(0, 1),
    output_lines=(2, 3, 4, 5),
    gates=(
        toffoli(0, 1, 2),
        cnot(0, 5, neg=True),
        cnot(1, 5),
        cnot(2, 5),
        cnot(2, 4),
        cnot(2, 3),
        cnot(1, 4),
        cnot(0, 3),
    ),
)

_F2_15_FULL = Circuit(
    width=4,
    input_lines=(0, 1),
    output_lines=(2, 3),
    gates=(cnot(0, 2), cnot(1, 3)),
)

_F4_15 = Circuit(
    width=4,
    input_lines=(0,),
    output_lines=(1, 2, 3),
    gates=(cnot(0, 1), cnot(0, 3, neg=True)),
)

_F4_15_FULL = Circuit(
    width=2,
    input_lines=(0,),
    output_lines=(1,),
    gates=(cnot(0, 1),),
)

_F4_21 = Circuit(
    width=8,
    input_lines=(0, 1, 2),
    output_lines=(3, 4, 5, 6, 7),
    gates=(
        cnot(1, 5),
        cnot(2, 5),
        cnot(1, 7),
        cnot(0, 7),
        toffoli(5, 7, 3),
        cnot(0, 7),
        cnot(1, 7),
        toffoli(0, 3, 7),
        cnot(3, 5),
        cnot(7, 5),
        cnot(0, 5),
        cnot(2, 7, neg=True),
        cnot(1, 7),
        cnot(0, 7),
    ),
)

# Interior gates write the input lines; the trailing copies restore them.
_F4_21_PARTIAL = Circuit(
    width=5,
    input_lines=(0, 1, 2),
    output_lines=(3, 4),
    gates=(
        cnot(1, 0),
        cnot(1, 2),
        toffoli(0, 2, 3),
        cnot(1, 0),
        toffoli(0, 3, 4, neg1=True),
        cnot(2, 4),
        cnot(0, 4),
        cnot(1, 2),
    ),
)

_F4_21_FULL = Circuit(
    width=4,
    input_lines=(0, 1),
    output_lines=(2, 3),
    gates=(
        cnot(0, 3),
        cnot(1, 3),
        toffoli(0, 3, 2),
        cnot(2, 3),
    ),
)

_F4_33_FULL = Circuit(
    width=7,
    input_lines=(0, 1, 2),
    output_lines=(3, 4, 5, 6),
    gates=(
        cnot(2, 1),
        cnot(2, 0),
        toffoli(0, 1, 3),
        cnot(2, 1),
        toffoli(1, 3, 4),
        cnot(0, 3),
        cnot(2, 0),
        toffoli(0, 2, 6, neg1=True),
        cnot(1, 4),
        cnot(1, 6),
    ),
)


LIBRARY: dict[str, LibraryEntry] = {
    e.name: e
    for e in (
        _entry("f2_15", 2, 15, "none", _F2_15, (1, 2, 4, 8), 4, 1, 7),
        _entry("f2_15_full", 2, 15, "full", _F2_15_FULL, (0, 1, 2, 3), 2, 0, 2),
        _entry("f4_15", 4, 15, "none", _F4_15, (1, 4), 3, 0, 2),
        _entry("f4_15_full", 4, 15, "full", _F4_15_FULL, (0, 1), 1, 0, 1),
        _entry("f4_21", 4, 21, "none", _F4_21, (1, 4, 16, 1, 4, 16, 1, 4), 5, 2, 12),
        _entry(
            "f4_21_partial", 4, 21, "log", _F4_21_PARTIAL,
            (0, 1, 2, 0, 1, 2, 0, 1), 2, 2, 6,
        ),
        _entry("f4_21_full", 4, 21, "full", _F4_21_FULL, (0, 1, 2, 0), 2, 1, 3),
        _entry(
            "f4_33_full", 4, 33, "full", _F4_33_FULL,
            (0, 1, 5, 12, 8, 0, 1, 5), 4, 3, 7,
        ),
    )
}

FIGURE_IDS: tuple[str, ...] = tuple(LIBRARY)

# Bundled table for f4_33_full as printed alongside the diagram. It is what
# the bundled circuit computes; the definition-derived table differs at x=3.
PRINTED_F4_33_TABLE: TruthTable = LIBRARY["f4_33_full"].table

ERRATA: dict[str, dict[str, int]] = {
    "f4_33_full": {"x": 3, "printed": 12, "definition_derived": 10},
}


def library_entry(name: str) -> LibraryEntry:
    """Bundled entry by figure id; raises ValueError on an unknown id."""
    try:
        return LIBRARY[name]
    except KeyError:
        raise ValueError(f"unknown circuit id {name!r}; known: {', '.join(FIGURE_IDS)}")


def find_entry(base: int, modulus: int, strategy: str) -> LibraryEntry | None:
    """Bundled entry matching a (base, modulus, strategy) triple, if any."""
    for e in LIBRARY.values():
        if (e.base, e.modulus, e.strategy) == (base, modulus, strategy):
            return e
    return None
