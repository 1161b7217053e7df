"""Reversible synthesis from truth tables: three stages over packed error masks.

A boolean function over the 2**n_in inputs is an int bitmask (bit x = value
at input x), the packed-row format modexp owns: input_vectors packs the input
columns once per width and TruthTable.columns a table's output columns once.
An output line's error mask holds the rows where the line, as the gates so
far leave it, differs from its column; the stages hand them on as a tuple.

Linear: fit_linear picks each output bit's best affine XOR form over the
inputs, scoring every form of the width from a cached table in one numpy
argmin, and _emit_linear emits the forms as CNOT copies. Each line is then
wrong on exactly its fit's mismatches, which plan_cascades packs once.

Greedy (_greedy): a candidate is a target line and up to two control
factors, each the XOR of one or two lines with a polarity (a two-line
Toffoli factor is an input-line pair borrowed in place and restored). Its
shape does not depend on the line values, and its target only rules out
the shapes whose factors read it, so _candidates is enumerated once per
(n_in, width, polarity setting), with no target, into one read-only
catalogue of int16 arrays: each shape once, as a factor pair, and every
candidate in tie-break order, as its cell of an outputs x pairs score
matrix. Each plan packs every factor slot's value into a uint64 once;
every round ANDs each factor pair once and popcounts it against every mask
into that matrix, the first best score wins, and gates are built only for
the winner. They flip only its target line, by the rows it activates, so
the stage applies that flip to the mask and to the slots that read the
line, the only copy of its state; no gate runs before verification.
Chaining gate outputs into later controls is where Toffoli cascades come
from.

Mop-up (_mop_up): what greedy leaves is emitted from the algebraic normal
form of each mask, so synthesis always terminates with exactly one circuit
per table and polarity setting. A monomial's gates depend only on the
register shape, so each sequence is built once and appended unsimulated.

Gates come from interned constructors, so equal gates are one object.
synthesize verifies every circuit on every row; a failure raises
SynthesisError, a fault of this module, and the command line exits 3.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache, lru_cache
from itertools import chain, combinations
from typing import NamedTuple

import numpy as np

from .circuit import Circuit, Gate, cnot, not_gate, toffoli, verify
from .modexp import TruthTable, check_register_widths, input_vectors, set_bits

__all__ = [
    "AffineForm",
    "BitFit",
    "LinearFit",
    "CascadePlan",
    "SynthesisError",
    "fit_linear",
    "plan_cascades",
    "synthesize",
]

# Interned gate builders: equal arguments return the same frozen Gate, so each
# distinct gate is type-checked once per process, and a circuit's repeated
# gates are one object, range-checked and encoded once. typed, as neg=0 and
# neg=False hash alike and the cached valid gate must not answer a call that
# Control refuses. Synthesis passes every argument positionally; on at most
# 12 lines these hold at most 12, 12*11*2 = 264 and 12*11*10*4 = 5280 gates.
_not = lru_cache(maxsize=None, typed=True)(not_gate)
_cnot = lru_cache(maxsize=None, typed=True)(cnot)
_toffoli = lru_cache(maxsize=None, typed=True)(toffoli)


class AffineForm(NamedTuple):
    """XOR of the input lines in mask, plus an optional constant 1."""

    mask: int
    const: bool


class BitFit(NamedTuple):
    form: AffineForm
    mismatches: frozenset[int]


class LinearFit(NamedTuple):
    """Per output line (most significant first): chosen form and mismatch set."""

    n_in: int
    bits: tuple[BitFit, ...]


class CascadePlan(NamedTuple):
    """The repair steps, which follow the linear stage's gates."""

    steps: tuple[Gate, ...]


class SynthesisError(RuntimeError):
    """The synthesized circuit does not realize its table: a fault here, not in the input."""


@cache
def _affine_forms(n_in: int) -> tuple[np.ndarray, np.ndarray]:
    """Packed value and term count of every affine form over n_in inputs.

    Form f = 2*mask + const is the XOR of the input lines in mask,
    complemented when const, so its term count is the popcount of f.
    """
    full = (1 << (1 << n_in)) - 1
    span = [0]  # span[mask]: XOR of the input lines whose bit is set in mask
    for vec in input_vectors(n_in):
        span += [v ^ vec for v in span]
    values = np.array([v ^ (full * const) for v in span for const in (0, 1)], dtype=np.uint64)
    terms = np.bitwise_count(np.arange(len(values)))
    values.flags.writeable = terms.flags.writeable = False
    return values, terms


def fit_linear(table: TruthTable) -> LinearFit:
    """Best affine GF(2) form per output bit, by exhaustive scoring.

    Selection key: fewest mismatches, then fewest terms, then lexicographic
    (mask, const), argmin's first index. Constant-0 bits therefore get the
    empty form. Raises ValueError for more than 6 input or output bits.
    """
    check_register_widths(table.n_in, table.n_out)
    n = table.n_in
    values, terms = _affine_forms(n)
    targets = table.columns
    miss = np.bitwise_count(values ^ np.array(targets, dtype=np.uint64)[:, None])
    bits = []
    for target, f in zip(targets, np.argmin(miss.astype(np.int32) << 3 | terms, axis=1).tolist()):
        m = int(values[f]) ^ target
        bits.append(BitFit(AffineForm(f >> 1, bool(f & 1)), frozenset(set_bits(m))))
    return LinearFit(n, tuple(bits))


def _emit_linear(fit: LinearFit, allow_neg: bool = True) -> list[Gate]:
    """CNOT copies realizing the fitted forms, the constant folded into the first one if allowed."""
    gates: list[Gate] = []
    for j, bit in enumerate(fit.bits, fit.n_in):
        sources = tuple(set_bits(bit.form.mask))
        if bit.form.const and (not sources or not allow_neg):
            gates += _realize(j, ())
        if sources:
            gates += _realize(j, ((sources, bit.form.const and bool(allow_neg)),))
    return gates


def _candidates(n_in: int, width: int, j: int | None, allow_neg: bool) -> Iterator[tuple[tuple, int]]:
    """Every greedy repair candidate for output line j, as plain data.

    A candidate (factors, qcost) flips line j on the rows where every one of
    its zero, one or two factors holds. A factor (lines, neg) is the XOR of
    one or two lines, complemented when neg. Lone factors are every other
    line, then every line pair; Toffoli factor pairs draw from the borrowed
    input-line pairs, then the single lines. qcost is that of the gates
    _realize would build. No candidate depends on the line values. j=None
    excludes no line: j's candidates are exactly the j=None shapes whose
    factors do not read j, in the same order. Within a (qcost, negative
    controls, factor count) class, candidates come in ascending (flattened
    factor lines, polarities) order, and _catalogue takes j ascending: the
    greedy tie-break below the class.
    """
    polarities = (False, True) if allow_neg else (False,)
    borrowed = list(combinations(range(n_in), 2))
    singles = [(c,) for c in range(width) if c != j]
    pairs = [p for p in combinations(range(width), 2) if j not in p]
    yield (), 1
    for lines in singles + pairs:
        for neg in polarities:
            yield ((lines, neg),), len(lines)
    toffoli_factors = borrowed + singles
    for i, l1 in enumerate(toffoli_factors):
        for l2 in toffoli_factors[i + 1 :]:
            qcost = 6 + 2 * (len(l1) + len(l2) - 2)  # two CNOTs per borrowed pair
            for n1 in polarities:
                for n2 in polarities:
                    yield ((l1, n1), (l2, n2)), qcost


def _realize(j: int, factors: tuple) -> list[Gate]:
    """The gates that flip line j where every factor holds, restoring all else.

    No factor gives a NOT, one factor a CNOT per line (its polarity on the
    first), two factors a Toffoli. A two-line factor is XORed into its host
    line before the Toffoli and restored after it. The host is the pair's
    second line, or its first when the other factor uses the second, so the
    other factor always reads its lines unchanged.
    """
    if not factors:
        return [_not(j)]
    if len(factors) == 1:
        ((lines, neg),) = factors
        return [_cnot(c, j, neg and k == 0) for k, c in enumerate(lines)]
    borrow, controls = [], []
    for (lines, neg), (other, _) in zip(factors, factors[::-1]):
        host = lines[-1]
        if len(lines) == 2:
            host, src = (lines[0], host) if host in other else (host, lines[0])
            borrow.append(_cnot(src, host, False))
        controls.append((host, neg))
    (c1, n1), (c2, n2) = sorted(controls)
    return borrow + [_toffoli(c1, c2, j, n1, n2)] + borrow[::-1]


@cache
def _catalogue(n_in: int, width: int, allow_neg: bool) -> tuple:
    """Every _candidates shape and the target lines that use it: (slots, sa, sb, cell, pairs, readers).

    slots lists the lines of every factor slot, each line then each line
    pair; slot s holds line sa[s] XOR line sb[s], where a lone line's sb is
    width, a zero line appended after the last. A candidate flips its
    target line j where entries i1 and i2 of a round's factor table (see
    _greedy) both hold: entry s is the value of slot s, s + len(slots) its
    complement and 2*len(slots) all ones, where a lone factor's i2 and both
    of a NOT's indices point. The int16 pairs (2 x P) holds the (i1, i2) of
    each j=None shape of _candidates once, in order, less the shapes that
    read every output line; j's candidates are the pairs that do not read
    j. The int16 cell holds one entry per candidate, (j - n_in) * P + pair,
    its index in the n_out x P score matrix, in (j, pair) order stably
    sorted by cost class, which leaves it in greedy order (see
    _candidates). The int16 readers (n_out x 2*width) holds, per output
    line, the factor-table entries of the slots that read it (width of
    them), then their complements: flipping the line flips exactly those.
    Every array is read-only. With n_in, n_out <= 6 there are at most 72
    keys, each holding at most about 25 kB of arrays.
    """
    slots = tuple((c,) for c in range(width)) + tuple(combinations(range(width), 2))
    sa = np.array([ln[0] for ln in slots], dtype=np.intp)
    sb = np.array([ln[1] if len(ln) == 2 else width for ln in slots], dtype=np.intp)
    index = {lines: s for s, lines in enumerate(slots)}
    n, ones = len(slots), 2 * len(slots)
    readers = np.array(
        [[s + n * neg for neg in (0, 1) for s, lines in enumerate(slots) if j in lines] for j in range(n_in, width)],
        dtype=np.int16,
    )

    def columns(factors: tuple, qcost: int) -> Iterator[int]:
        # the two factor-table entries, the cost class (qcost, negative controls,
        # factor count) and the bit mask of the lines the factors read
        refs = [index[lines] + n * neg for lines, neg in factors] + [ones, ones]
        negs = sum(neg for _, neg in factors)
        read = sum({1 << ln for lines, _ in factors for ln in lines})
        yield from (refs[0], refs[1], (qcost << 2 | negs) << 2 | len(factors), read)

    flat = chain.from_iterable(columns(f, q) for f, q in _candidates(n_in, width, None, allow_neg))
    i1, i2, cost, read = np.fromiter(flat, dtype=np.int32).reshape(-1, 4).T
    reads = (read >> np.arange(n_in, width)[:, None] & 1).astype(bool)  # n_out x P
    used = ~reads.all(axis=0)
    pairs, cost = np.stack((i1, i2)).astype(np.int16)[:, used], cost[used]
    cell = np.flatnonzero(~reads[:, used]).astype(np.int16)  # j ascending, then enumeration order
    cell = cell.take(np.argsort(cost.take(cell % len(cost)), kind="stable"))
    for arr in (sa, sb, cell, pairs, readers):
        arr.flags.writeable = False
    return slots, sa, sb, cell, pairs, readers


def _greedy(table: TruthTable, errs: tuple[int, ...], allow_neg: bool) -> tuple[list[Gate], tuple[int, ...]]:
    """The greedy repair: its gates, and every output line's error mask after them.

    Each round rescores every candidate and emits the winner, until every
    mask is 0 or no candidate scores above 0. A candidate's score is the
    wrong entries of its target line j it fixes minus the right ones it
    breaks, so a line whose mask is 0 has no candidate that qualifies.
    Each round ANDs each distinct factor pair once and scores it against
    every output line at once, into an n_out x pairs matrix whose long
    axis is innermost; candidates gather their scores from it through
    cell. The catalogue is in tie-break order (see _candidates), so the
    first argmax is the winner. Line values pack at most 64 rows
    (n_in <= 6), one uint64 each, so every score lies in [-64, 64].

    tab, the factor table (see _catalogue), and err, the error masks, are
    the only copy of the greedy state: tab is built once from the line
    values, each output line being its column XOR its mask. A winner
    flips line j's mask on the rows it activates, and the tab entries of
    every slot that reads line j (its value and complement): exactly what
    _realize(j, factors) does to the lines, flipping line j there and
    restoring every other line. A table with no wrong entry builds no state.

    A winner scores at least 1, so each round lowers the total error
    popcount by at least 1, and that popcount at the start bounds the
    rounds. A scorer that breaks this raises SynthesisError at the bound
    instead of looping.
    """
    n_in = table.n_in
    gates: list[Gate] = []
    if not any(errs):
        return gates, errs
    slots, sa, sb, cell, (i1, i2), readers = _catalogue(n_in, n_in + table.n_out, allow_neg)
    # a fancy index casts an int16 index array on every use: cast once per plan
    readers = readers.astype(np.intp)
    n, full = len(slots), np.uint64((1 << (1 << n_in)) - 1)
    v = np.array([*input_vectors(n_in), *(t ^ e for t, e in zip(table.columns, errs)), 0], dtype=np.uint64)
    tab = np.full(2 * n + 1, full)  # slot values, complements, all ones
    np.bitwise_xor(v.take(sa), v.take(sb), out=tab[:n])
    np.bitwise_xor(tab[:n], full, out=tab[n : 2 * n])
    err = np.array(errs, dtype=np.uint64)
    rounds = int(np.bitwise_count(err).sum())
    while err.any():
        if not rounds:
            raise SynthesisError("greedy repair did not lower the error count in every round")
        rounds -= 1
        act = tab.take(i1) & tab.take(i2)
        # each active row is fixed where it was wrong and broken elsewhere; the
        # score fixed - (active - fixed) wraps in uint8 and reads back exactly as int8
        fixed = np.bitwise_count(err[:, None] & act)
        score = (fixed - (np.bitwise_count(act) - fixed)).view(np.int8).take(cell)
        k = int(score.argmax())
        if score[k] <= 0:
            break
        out_line, p = divmod(int(cell[k]), len(act))
        tab[readers[out_line]] ^= act[p]
        err[out_line] ^= act[p]
        factors = tuple((slots[i % n], i >= n) for i in (int(i1[p]), int(i2[p])) if i != 2 * n)
        gates += _realize(n_in + out_line, factors)
        del fixed, score  # freed before the next round's n_out x pairs temporary, not alongside it
    return gates, tuple(err.tolist())


def _anf_monomials(err: int, n_in: int) -> list[int]:
    """Monomials (bit masks over input bit positions) of the residual's ANF."""
    # Moebius transform on the packed bits: input line n_in - 1 - p is 1
    # exactly on the rows with bit p set, so each row x without bit p
    # XORs its coefficient into row x + 2**p
    for p, vec in enumerate(reversed(input_vectors(n_in))):
        err ^= (err & ~vec) << (1 << p)
    return set_bits(err)


def _multi_controlled_flip(controls: list[int], j: int, n_in: int, width: int) -> list[Gate]:
    """Flip line j exactly where every control line is 1, restoring all else.

    Degrees above 2 borrow a dirty line d (any line outside controls and
    target, current value irrelevant) and recurse on the sandwich identity
    t ^= (d XOR ab)c... XOR dc... = ab...c..., which restores d as a side
    effect. Each level needs one free line, available whenever n_out >= 2
    or deg < n_in; synthesize refuses the tables that would need one more.
    """
    deg = len(controls)
    if deg == 0:
        return [_not(j)]
    if deg == 1:
        return [_cnot(controls[0], j, False)]
    if deg == 2:
        return [_toffoli(controls[0], controls[1], j, False, False)]
    spare = [ln for ln in range(width) if ln != j and ln not in controls]
    spare.sort(key=lambda ln: (ln < n_in, ln))  # prefer output lines as dirty
    if not spare:
        raise SynthesisError(f"no spare line for a degree-{deg} flip")
    d = spare[0]
    head = _toffoli(controls[0], controls[1], d, False, False)
    inner = _multi_controlled_flip([d] + controls[2:], j, n_in, width)
    return [head] + inner + [head] + inner


@cache
def _monomial_gates(term: int, n_in: int, j: int, width: int) -> tuple[Gate, ...]:
    """Gates flipping line j exactly on the monomial's support, restoring all else.

    They depend only on the arguments, not on the line values, so each
    sequence is built once (at most 2646 under the 6-bit cap); _mop_up
    does not run them.
    """
    lines = sorted(n_in - 1 - p for p in range(n_in) if (term >> p) & 1)
    return tuple(_multi_controlled_flip(lines, j, n_in, width))


def _mop_up(table: TruthTable, errs: tuple[int, ...]) -> list[Gate]:
    """Gates clearing every output line's error mask from its algebraic normal form.

    Each monomial's gates flip only line j, by the monomial, so the masks
    stay put and nothing needs simulating; this always completes.
    """
    n_in, width = table.n_in, table.n_in + table.n_out
    gates: list[Gate] = []
    for j, err in enumerate(errs, n_in):
        for term in _anf_monomials(err, n_in):
            gates += _monomial_gates(term, n_in, j, width)
    return gates


def plan_cascades(
    fit: LinearFit, table: TruthTable, allow_negative_controls: bool = True
) -> CascadePlan:
    """Repair plan for everything the linear stage left wrong; no gate is run.

    The linear stage leaves each output line wrong on exactly its fit's
    mismatches. The greedy repair (_greedy) clears what it can; the ANF
    mop-up (_mop_up) emits the rest.
    """
    errs = tuple(sum(1 << x for x in bit.mismatches) for bit in fit.bits)
    steps, errs = _greedy(table, errs, allow_negative_controls)
    return CascadePlan((*steps, *_mop_up(table, errs)))


def synthesize(table: TruthTable, *, allow_negative_controls: bool = True) -> Circuit:
    """Verified circuit for the table; negative controls only if allowed.

    Raises ValueError for more than 6 input or output bits, and for a
    single-output table on 3 or more inputs whose output column has an odd
    number of ones. Every circuit built here maps each basis state (x, y)
    of its lines to (x, y XOR f(x)); for such a table that map swaps an odd
    number of state pairs, an odd permutation, while a NOT, CNOT or Toffoli
    gate on 4 or more lines is an even one.

    Raises SynthesisError if the circuit fails its own verification.
    """
    check_register_widths(table.n_in, table.n_out)
    if table.n_out == 1 and table.n_in >= 3 and sum(table.rows) % 2:
        raise ValueError(
            f"y ^= f(x) for a single-output table with an odd number of ones ({sum(table.rows)}) is an odd "
            f"permutation of its {table.n_in + 1} lines; NOT, CNOT and Toffoli gates build only even ones there"
        )
    fit = fit_linear(table)
    plan = plan_cascades(fit, table, allow_negative_controls)
    circ = Circuit(
        table.n_in + table.n_out,
        tuple(range(table.n_in)),
        tuple(range(table.n_in, table.n_in + table.n_out)),
        tuple(_emit_linear(fit, allow_negative_controls)) + plan.steps,
    )
    bad = verify(circ, table)
    if bad:
        raise SynthesisError(f"internal planning error, first mismatch at x={bad[0].x}")
    return circ
