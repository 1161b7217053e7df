"""Modular-exponentiation truth tables and the classical compile layer.

One path builds every level. The rows are a**x mod N for each n_in-bit x;
since a**x = a**(x mod r) (mod N), an input register wider than the order r
just repeats the period. Each raw residue y is then replaced by g(y) for a
small injective map g, shrinking the output register before any circuit is
synthesized. Three map families are supported: integer logarithm base a,
affine (y - c) / d, and rank order. ``compile_modexp`` applies one family
(or none) at a chosen input width; ``full_compile`` also picks the width,
ceil(log2 r), and LOG when it fits, else AFFINE, which fits every output
set (d = 1, c = 0 always does). Both refuse an input register wider than
synthesis supports before building any row.
"""

from __future__ import annotations

import json
import math
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from ._checked import checked_record
from .numtheory import multiplicative_order

# Synthesis packs each line's values over all 2**n_in rows into one uint64.
_MAX_SYNTH_BITS = 6


def check_register_widths(n_in: int, n_out: int = 1) -> None:
    """Raise ValueError for more than 6 input or output bits, the synthesis cap."""
    if n_in > _MAX_SYNTH_BITS or n_out > _MAX_SYNTH_BITS:
        raise ValueError(
            f"synthesis supports at most {_MAX_SYNTH_BITS} input and {_MAX_SYNTH_BITS} output bits"
        )


class TruthTable(checked_record("TruthTable", "n_in n_out rows")):
    """Total map from n_in-bit inputs to n_out-bit outputs, indexed by input value."""

    # no __slots__: the instance dict holds the cached columns
    def __new__(cls, n_in: int, n_out: int, rows: tuple[int, ...]) -> TruthTable:
        for v in (n_in, n_out, *rows):
            # exactly int: a bool is an int subclass, and JSON writes it as true/false
            if type(v) is not int:
                raise ValueError(f"truth table numbers must be JSON integers, got {v!r}")
        if n_in < 1 or n_out < 1:
            raise ValueError("register widths must be positive")
        # the bit lengths are compared first, so no shift is by a number too
        # large to allocate (n_in or n_out of 10**12 in a document)
        n_rows = len(rows)
        if n_rows.bit_length() != n_in + 1 or n_rows != 1 << n_in:
            raise ValueError("row count must equal 2**n_in")
        for x, y in enumerate(rows):
            if y < 0 or y.bit_length() > n_out:
                raise ValueError(f"output {y} at x={x} does not fit in {n_out} bits")
        return tuple.__new__(cls, (n_in, n_out, rows))

    @cached_property
    def columns(self) -> tuple[int, ...]:
        """Packed value of each output bit (bit x = row x), MSB first.

        Packed on first use and kept with the table; it is not a field, so
        equality and hashing ignore it.
        """
        n_out, spec = self.n_out, f"0{self.n_out}b"
        text = "".join([format(y, spec) for y in reversed(self.rows)])
        return tuple([int(text[b::n_out], 2) for b in range(n_out)])

    def to_json(self) -> str:
        return json.dumps({"n_in": self.n_in, "n_out": self.n_out, "rows": self.rows})

    @classmethod
    def from_json(cls, text: str) -> TruthTable:
        try:
            obj = json.loads(text)
            n_in, n_out, rows = obj["n_in"], obj["n_out"], tuple(obj["rows"])
        except (KeyError, TypeError, RecursionError) as exc:
            raise ValueError(f"malformed truth table document: {exc}") from exc
        return cls(n_in, n_out, rows)


class GKind(Enum):
    NONE = "none"
    LOG = "log"
    AFFINE = "affine"
    RANK = "rank"


class GDescriptor(NamedTuple):
    """Injective map g applied residue-wise to the outputs of a truth table.

    kind LOG uses g(y) = log_base(y) over plain integers, AFFINE uses
    g(y) = (y - c) / d, RANK maps the i-th smallest realized output to i.
    RANK is not a closed-form map; full_compile never picks it, since
    AFFINE always fits.
    """

    kind: GKind
    base: int | None = None
    c: int = 0
    d: int = 1
    sorted_outputs: tuple[int, ...] = ()

    def apply(self, y: int) -> int:
        if self.kind is GKind.NONE:
            return y
        if self.kind is GKind.LOG:
            e = _int_log(y, self.base)
            if e is None:
                raise ValueError(f"{y} is not an integer power of {self.base}")
            return e
        if self.kind is GKind.AFFINE:
            if y < self.c or (y - self.c) % self.d:
                raise ValueError(f"(y - {self.c}) / {self.d} is not a nonneg integer for y={y}")
            return (y - self.c) // self.d
        if y not in self.sorted_outputs:
            raise ValueError(f"{y} is not one of the realized outputs {self.sorted_outputs}")
        return self.sorted_outputs.index(y)

    def invert(self, v: int) -> int:
        if self.kind is GKind.NONE:
            return v
        if self.kind is GKind.LOG:
            return self.base**v
        if self.kind is GKind.AFFINE:
            return self.d * v + self.c
        return self.sorted_outputs[v]


class CompileLevel(Enum):
    UNCOMPILED = "uncompiled"
    PARTIAL = "partial"
    FULL = "full"


class CompiledFunction(NamedTuple):
    """A truth table for a**x mod N together with the g map that produced it."""

    base: int
    modulus: int
    period: int
    g: GDescriptor
    table: TruthTable
    level: CompileLevel


def _int_log(y: int, base: int) -> int | None:
    """Exact integer e with base**e = y, or None."""
    if y < 1 or base < 2:
        return None
    e, v = 0, 1
    while v < y:
        v *= base
        e += 1
    return e if v == y else None


def _affine_descriptor(outputs: tuple[int, ...], n: int) -> GDescriptor:
    """Best (c, d) by (max mapped value, d, c); d in 1..n, c in 0..d.

    Every output is congruent to the smallest, y0, mod d exactly when d
    divides g = gcd(y - y0), so only those d fit, and then only with
    c = y0 mod d, or c = d when that residue is 0; c must not exceed y0.
    d = 1, c = 0 always fits, so there is always a best (c, d). Distinct
    outputs stay distinct under any single (c, d), so injectivity holds
    whenever divisibility does.
    """
    ys = sorted(set(outputs))
    g = math.gcd(*(y - ys[0] for y in ys))
    keys = [
        ((ys[-1] - c) // d, d, c)
        for d in range(1, n + 1)
        if g % d == 0
        for c in (ys[0] % d, d)
        if c <= ys[0] and (ys[0] - c) % d == 0
    ]
    _, d, c = min(keys)
    return GDescriptor(GKind.AFFINE, c=c, d=d)


def _fit_g(kind: GKind, outputs: tuple[int, ...], a: int, n: int) -> GDescriptor | None:
    """The kind's g map for these outputs, or None when LOG does not fit; no other family can miss."""
    if kind is GKind.NONE:
        return GDescriptor(GKind.NONE)
    if kind is GKind.LOG:
        if any(_int_log(y, a) is None for y in set(outputs)):
            return None
        return GDescriptor(GKind.LOG, base=a)
    if kind is GKind.AFFINE:
        return _affine_descriptor(outputs, n)
    return GDescriptor(GKind.RANK, sorted_outputs=tuple(sorted(set(outputs))))


def _compile(
    a: int, n: int, n_in: int | None, kinds: tuple[GKind, ...], level: CompileLevel
) -> CompiledFunction:
    """Table of x -> g(a**x mod n) with g from the first family in kinds that fits.

    n_in None means ceil(log2 r), one period of the function. An n_in past
    the synthesis cap is refused before any row is built. GKind.NONE keeps
    the raw (n-1).bit_length() output register; every other family narrows
    it to the widest mapped value.
    """
    r = multiplicative_order(a, n)  # validates coprimality and 1 < a < n
    if n_in is None:
        n_in = max(1, (r - 1).bit_length())
    elif n_in < 1:
        raise ValueError("n_in must be positive")
    check_register_widths(n_in)
    raw = tuple(pow(a, x % r, n) for x in range(1 << n_in))
    for kind in kinds:
        g = _fit_g(kind, raw, a, n)
        if g is not None:
            break
    else:  # only a lone LOG request can miss
        raise ValueError(f"some output is not an integer power of {a}")
    rows = tuple(g.apply(y) for y in raw)
    n_out = (n - 1).bit_length() if kind is GKind.NONE else max(1, max(rows).bit_length())
    return CompiledFunction(a, n, r, g, TruthTable(n_in, n_out, rows), level)


def compile_modexp(a: int, n: int, n_in: int | None, kind: GKind) -> CompiledFunction:
    """The n_in-bit table of a**x mod n, its outputs mapped by the g family kind.

    n_in None means ceil(log2 r). GKind.NONE gives the uncompiled level;
    LOG, AFFINE and RANK give the partially compiled one. Raises ValueError
    for n_in over 6 bits, before any row is built, and for LOG when some
    realized output is not a power of a; the other families always fit.
    """
    level = CompileLevel.UNCOMPILED if kind is GKind.NONE else CompileLevel.PARTIAL
    return _compile(a, n, n_in, (kind,), level)


def full_compile(a: int, n: int) -> CompiledFunction:
    """Shrink both registers: n_in = ceil(log2 r), g LOG when it fits, else AFFINE.

    Raises ValueError when n_in is over 6 bits, before any row is built.
    """
    return _compile(a, n, None, (GKind.LOG, GKind.AFFINE), CompileLevel.FULL)
