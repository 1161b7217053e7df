"""Modular-exponentiation truth tables and the classical output-compression layer.

The compression step replaces each raw residue y = a**x mod N by g(y) for a
small injective map g, shrinking the output register before any circuit is
synthesized. Three map families are supported: integer logarithm base a,
affine (y - c) / d, and rank order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

from .numtheory import mod_pow, multiplicative_order


@dataclass(frozen=True)
class TruthTable:
    """Total map from n_in-bit inputs to n_out-bit outputs, indexed by input value."""

    n_in: int
    n_out: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n_in < 1 or self.n_out < 1:
            raise ValueError("register widths must be positive")
        if len(self.rows) != 1 << self.n_in:
            raise ValueError("row count must equal 2**n_in")
        for x, y in enumerate(self.rows):
            if not 0 <= y < 1 << self.n_out:
                raise ValueError(f"output {y} at x={x} does not fit in {self.n_out} bits")

    def to_json(self) -> str:
        return json.dumps({"n_in": self.n_in, "n_out": self.n_out, "rows": list(self.rows)})

    @classmethod
    def from_json(cls, text: str) -> TruthTable:
        obj = json.loads(text)
        try:
            n_in, n_out, rows = obj["n_in"], obj["n_out"], tuple(obj["rows"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed truth table document: {exc}") from exc
        for v in (n_in, n_out, *rows):
            # bool is an int subclass; JSON true/false is not a number
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"truth table numbers must be JSON integers, got {v!r}")
        return cls(n_in, n_out, rows)


class GKind(Enum):
    NONE = "none"
    LOG = "log"
    AFFINE = "affine"
    RANK = "rank"


@dataclass(frozen=True)
class GDescriptor:
    """Injective map g applied residue-wise to the outputs of a truth table.

    kind LOG uses g(y) = log_base(y) over plain integers, AFFINE uses
    g(y) = (y - c) / d, RANK maps the i-th smallest realized output to i.
    RANK is not a closed-form map, so full_compile picks it only when
    nothing else fits.
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


@dataclass(frozen=True)
class CompiledFunction:
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


def build_modexp_table(a: int, n: int, n_in: int) -> TruthTable:
    """Truth table of x -> a**x mod n over all n_in-bit inputs."""
    if n_in < 1:
        raise ValueError("n_in must be positive")
    multiplicative_order(a, n)  # validates coprimality and 1 < a < n
    n_out = (n - 1).bit_length()
    rows = tuple(mod_pow(a, x, n) for x in range(1 << n_in))
    return TruthTable(n_in, n_out, rows)


def _log_descriptor(outputs: tuple[int, ...], a: int) -> GDescriptor | None:
    if any(_int_log(y, a) is None for y in set(outputs)):
        return None
    return GDescriptor(GKind.LOG, base=a)


def _affine_descriptor(outputs: tuple[int, ...], n: int) -> GDescriptor | None:
    """Best (c, d) by (max mapped value, d, c); d in 1..n, c in 0..d.

    Every output is congruent to the smallest, y0, mod d exactly when d
    divides g = gcd(y - y0), so only those d fit, and then only with
    c = y0 mod d, or c = d when that residue is 0; c must not exceed y0.
    Distinct outputs stay distinct under any single (c, d), so injectivity
    holds whenever divisibility does.
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
    if not keys:
        return None
    _, d, c = min(keys)
    return GDescriptor(GKind.AFFINE, c=c, d=d)


def _rank_descriptor(outputs: tuple[int, ...]) -> GDescriptor:
    return GDescriptor(GKind.RANK, sorted_outputs=tuple(sorted(set(outputs))))


def _apply_g(table: TruthTable, g: GDescriptor) -> TruthTable:
    mapped = tuple(g.apply(y) for y in table.rows)
    n_out = max(1, max(mapped).bit_length())
    return TruthTable(table.n_in, n_out, mapped)


def uncompiled(a: int, n: int, n_in: int) -> CompiledFunction:
    """The raw table wrapped with an identity g."""
    table = build_modexp_table(a, n, n_in)
    r = multiplicative_order(a, n)
    return CompiledFunction(a, n, r, GDescriptor(GKind.NONE), table, CompileLevel.UNCOMPILED)


def classical_compile(
    table: TruthTable, a: int, n: int, strategy: GKind
) -> CompiledFunction:
    """Compress the output register of a raw table with the requested g family.

    The input register is untouched, so the result is the partially
    compiled function. Raises ValueError when the strategy does not fit
    the realized outputs.
    """
    if strategy is GKind.LOG:
        g = _log_descriptor(table.rows, a)
        if g is None:
            raise ValueError(f"some output is not an integer power of {a}")
    elif strategy is GKind.AFFINE:
        g = _affine_descriptor(table.rows, n)
        if g is None:
            raise ValueError(f"no affine (c, d) with d <= {n} fits the outputs")
    elif strategy is GKind.RANK:
        g = _rank_descriptor(table.rows)
    else:
        raise ValueError(f"unsupported compile strategy {strategy}")
    r = multiplicative_order(a, n)
    return CompiledFunction(a, n, r, g, _apply_g(table, g), CompileLevel.PARTIAL)


def full_compile(a: int, n: int) -> CompiledFunction:
    """Shrink both registers: n_in = ceil(log2 r) and x wraps modulo r.

    Wrapping makes the table carry exactly one period of the function even
    when 2**n_in exceeds r. The g family is the best valid one in priority
    order LOG, AFFINE, RANK.
    """
    r = multiplicative_order(a, n)
    n_in = max(1, (r - 1).bit_length())
    raw = tuple(mod_pow(a, x % r, n) for x in range(1 << n_in))
    g = _log_descriptor(raw, a) or _affine_descriptor(raw, n) or _rank_descriptor(raw)
    n_out_raw = (n - 1).bit_length()
    table = _apply_g(TruthTable(n_in, n_out_raw, raw), g)
    return CompiledFunction(a, n, r, g, table, CompileLevel.FULL)

