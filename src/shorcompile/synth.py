"""Two-stage reversible synthesis from truth tables.

Stage one fits each output bit with the best affine XOR form over the input
bits and emits it as CNOT copies. Stage two repairs the remaining wrong
entries greedily. A candidate is a target line and up to two control
factors, each the XOR of one or two lines with a polarity (a two-line
Toffoli factor is an input-line pair borrowed in place and restored). Its
shape does not depend on the line values, so _candidates is enumerated once
per (n_in, width, polarity setting), over every target line, into one int16
catalogue sorted by the tie-break key. Each round packs every line (at most
64 rows) into a uint64 and scores the whole catalogue in one numpy popcount
pass against each target's error mask; the first best score is the winner,
and gates are built only for it. Chaining gate outputs into later controls
is where Toffoli cascades come from. Whatever the greedy pass cannot clear
is finished off from the algebraic normal form of the residual, so
synthesis always terminates, and exactly one circuit comes out per table
and polarity setting; nothing searches for a cheaper one. A circuit that
fails its own verification raises SynthesisError, a fault of this module;
the command line exits 3 on it.

Throughout, boolean functions over the 2**n_in inputs are packed into int
bitmasks (bit x = value at input x) by the helpers in circuit.py, and gates
act on them through circuit.apply_packed; only the greedy scorer copies
them into uint64 arrays.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache
from itertools import chain

import numpy as np

from .circuit import (
    Circuit,
    Gate,
    apply_packed,
    cnot,
    input_vectors,
    not_gate,
    output_vectors,
    toffoli,
    verify,
)
from .modexp import TruthTable, check_register_widths

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


@dataclass(frozen=True)
class AffineForm:
    """XOR of the input lines in mask, plus an optional constant 1."""

    mask: int
    const: bool

    def terms(self) -> int:
        return self.mask.bit_count() + int(self.const)


@dataclass(frozen=True)
class BitFit:
    form: AffineForm
    mismatches: frozenset[int]


@dataclass(frozen=True)
class LinearFit:
    """Per output line (most significant first): chosen form and mismatch set."""

    n_in: int
    bits: tuple[BitFit, ...]

    def total_mismatches(self) -> int:
        return sum(len(b.mismatches) for b in self.bits)


@dataclass(frozen=True)
class CascadePlan:
    """The repair steps, after the linear stage's gates the plan started from."""

    steps: tuple[Gate, ...]
    linear: tuple[Gate, ...] = ()


class SynthesisError(RuntimeError):
    """The synthesized circuit does not realize its table: a fault here, not in the input."""


def fit_linear(table: TruthTable) -> LinearFit:
    """Best affine GF(2) form per output bit, by exhaustive scoring.

    Selection key: fewest mismatches, then fewest terms, then lexicographic
    (mask, const). Constant-0 bits therefore get the empty form. Raises
    ValueError for more than 6 input or output bits.
    """
    check_register_widths(table.n_in, table.n_out)
    n = table.n_in
    full = (1 << (1 << n)) - 1
    span = [0]  # span[mask]: XOR of the input lines whose bit is set in mask
    for vec in input_vectors(n):
        span += [v ^ vec for v in span]
    bits = []
    for target in output_vectors(table):
        _, _, mask, const = min(
            ((v ^ (full * const) ^ target).bit_count(), mask.bit_count() + const, mask, const)
            for mask, v in enumerate(span)
            for const in (0, 1)
        )
        miss = span[mask] ^ (full * const) ^ target
        mism = frozenset(x for x in range(1 << n) if (miss >> x) & 1)
        bits.append(BitFit(AffineForm(mask, bool(const)), mism))
    return LinearFit(n, tuple(bits))


def _emit_linear(fit: LinearFit, n_in: int, allow_neg: bool = True) -> list[Gate]:
    """CNOT copies realizing the fitted forms."""
    gates: list[Gate] = []
    for out_line, bit in enumerate(fit.bits):
        j = n_in + out_line
        sources = [ln for ln in range(n_in) if (bit.form.mask >> ln) & 1]
        if bit.form.const and (not sources or not allow_neg):
            gates.append(not_gate(j))
        for pos, src in enumerate(sources):
            neg = bool(allow_neg) and bit.form.const and pos == 0  # fold the constant in
            gates.append(cnot(src, j, neg=neg))
    return gates


def _candidates(n_in: int, width: int, j: int, allow_neg: bool) -> Iterator[tuple[tuple, int]]:
    """Every greedy repair candidate for target line j, as plain data.

    A candidate (factors, qcost) flips line j on the rows where every one of
    its zero, one or two factors holds. A factor (lines, neg) is the XOR of
    one or two lines, complemented when neg. Lone factors are every other
    line, then every line pair; Toffoli factor pairs draw from the borrowed
    input-line pairs, then the single lines. qcost is that of the gates
    _realize would build. No candidate depends on the line values.
    """
    polarities = (False, True) if allow_neg else (False,)
    borrowed = [(a, b) for a in range(n_in) for b in range(a + 1, n_in)]
    singles = [(c,) for c in range(width) if c != j]
    pairs = [(a, b) for a in range(width) for b in range(a + 1, width) if j not in (a, b)]
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
        return [not_gate(j)]
    if len(factors) == 1:
        ((lines, neg),) = factors
        return [cnot(c, j, neg=neg and k == 0) for k, c in enumerate(lines)]
    borrow, controls = [], []
    for (lines, neg), (other, _) in zip(factors, factors[::-1]):
        host = lines[-1]
        if len(lines) == 2:
            host, src = (lines[0], host) if host in other else (host, lines[0])
            borrow.append(cnot(src, host))
        controls.append((host, neg))
    (c1, n1), (c2, n2) = sorted(controls)
    return borrow + [toffoli(c1, c2, j, neg1=n1, neg2=n2)] + borrow[::-1]


@cache
def _slot_lines(width: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray, np.ndarray]:
    """The lines of every factor slot (each line, then each line pair) and
    index arrays sa, sb: slot s holds line sa[s] XOR line sb[s], where a
    lone line's sb is width, a zero line appended after the last."""
    slots = tuple((c,) for c in range(width)) + tuple(
        (a, b) for a in range(width) for b in range(a + 1, width)
    )
    sa = np.array([ln[0] for ln in slots], dtype=np.intp)
    sb = np.array([ln[1] if len(ln) == 2 else width for ln in slots], dtype=np.intp)
    return slots, sa, sb


@cache
def _catalogue(n_in: int, width: int, allow_neg: bool) -> np.ndarray:
    """Every _candidates shape for every target line as int16 rows (i1, i2, j).

    i1 and i2 index a round's factor table (see _best_candidate): entry s is
    the value of slot s of _slot_lines, s + len(slots) its complement and
    2*len(slots) all ones, where a lone factor's i2 and both of a NOT's
    indices point. Columns are sorted by the greedy key after score:
    (qcost, negative controls, factor count, j, lines, polarities), then
    enumeration order. With n_in, n_out <= 6 there are at most 72 keys,
    each holding at most about 52 kB.
    """
    slots, _, _ = _slot_lines(width)
    index = {lines: s for s, lines in enumerate(slots)}
    n, ones = len(slots), 2 * len(slots)

    def columns(j: int, factors: tuple, qcost: int) -> Iterator[int]:
        # i1, i2, then the sort key padded to fixed width: shorter line
        # tuples sort first, as -1 sorts before any line
        refs = [index[lines] + n * neg for lines, neg in factors] + [ones, ones]
        lines = [ln for f, _ in factors for ln in f] + [-1] * 4
        pols = [neg for _, neg in factors] + [0, 0]
        yield from (refs[0], refs[1], qcost, sum(pols), len(factors), j, *lines[:4], *pols[:2])

    flat = chain.from_iterable(
        columns(j, f, q) for j in range(n_in, width) for f, q in _candidates(n_in, width, j, allow_neg)
    )
    rows = np.fromiter(flat, dtype=np.int16).reshape(-1, 12).T
    order = np.lexsort(rows[:1:-1])  # primary key last; stable, so ties keep enumeration order
    # pick the three rows before reordering columns: indexing both axes at
    # once (np.ix_) more than doubles the build's peak memory
    cat = rows[[0, 1, 5]].take(order, axis=1)
    cat.flags.writeable = False
    return cat


def _best_candidate(
    n_in: int, vecs: list[int], errs: dict[int, int], allow_neg: bool, full: int
) -> tuple[int, tuple] | None:
    """The greedy winner (j, factors) among every candidate, or None.

    A candidate's score is the wrong entries of its target line j it fixes
    minus the right ones it breaks; only positive scores qualify, so the
    candidates of a line absent from errs (error mask 0) never do. The key
    is (-score, qcost, negative controls, factor count, j, lines,
    polarities); the catalogue is already in key order after score, so the
    first argmax is the winner. Line values pack at most 64 rows
    (n_in <= 6), one uint64 each.
    """
    slots, sa, sb = _slot_lines(len(vecs))
    n, ones = len(slots), 2 * len(slots)
    v = np.array(vecs + [0], dtype=np.uint64)
    held = v[sa] ^ v[sb]
    all_ones = np.array([full], dtype=np.uint64)
    tab = np.concatenate((held, held ^ all_ones, all_ones))
    err = np.array([errs.get(ln, 0) for ln in range(len(vecs))], dtype=np.uint64)
    i1, i2, j = _catalogue(n_in, len(vecs), allow_neg)
    act = tab[i1] & tab[i2]
    # each active row is fixed where it was wrong and broken elsewhere
    fixed = np.bitwise_count(act & err[j]).astype(np.int16)
    score = 2 * fixed - np.bitwise_count(act)
    k = int(np.argmax(score))
    if score[k] <= 0:
        return None
    return int(j[k]), tuple((slots[i % n], bool(i >= n)) for i in (int(i1[k]), int(i2[k])) if i != ones)


def _anf_monomials(err: int, n_in: int) -> list[int]:
    """Monomials (bit masks over input bit positions) of the residual's ANF."""
    size = 1 << n_in
    coef = [(err >> x) & 1 for x in range(size)]
    step = 1
    while step < size:  # Moebius transform, in place
        for x in range(size):
            if x & step:
                coef[x] ^= coef[x ^ step]
        step <<= 1
    return [t for t in range(size) if coef[t]]


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
        return [not_gate(j)]
    if deg == 1:
        return [cnot(controls[0], j)]
    if deg == 2:
        return [toffoli(controls[0], controls[1], j)]
    spare = [ln for ln in range(width) if ln != j and ln not in controls]
    spare.sort(key=lambda ln: (ln < n_in, ln))  # prefer output lines as dirty
    if not spare:
        raise SynthesisError(f"no spare line for a degree-{deg} flip")
    d = spare[0]
    head = toffoli(controls[0], controls[1], d)
    inner = _multi_controlled_flip([d] + controls[2:], j, n_in, width)
    return [head] + inner + [head] + inner


def _monomial_gates(term: int, n_in: int, j: int, width: int) -> list[Gate]:
    """Gates flipping line j exactly on the monomial's support."""
    lines = sorted(n_in - 1 - p for p in range(n_in) if (term >> p) & 1)
    return _multi_controlled_flip(lines, j, n_in, width)


def plan_cascades(
    fit: LinearFit, table: TruthTable, allow_negative_controls: bool = True
) -> CascadePlan:
    """Repair plan for everything the linear stage left wrong.

    Greedy phase: among all candidates, pick the one fixing the most wrong
    entries net of newly broken ones; ties go to cheaper gates, fewer
    negative controls, fewer factors, then the lowest target line, factor
    lines and polarities. When no candidate has a
    positive net score, the remaining residual is emitted from its algebraic
    normal form, which always completes. The plan also carries the linear
    stage's gates it started from, so synthesize emits them once.
    """
    n_in, n_out = table.n_in, table.n_out
    width = n_in + n_out
    full = (1 << (1 << n_in)) - 1
    vecs = input_vectors(n_in) + [0] * n_out
    linear = _emit_linear(fit, n_in, allow_negative_controls)
    for g in linear:
        apply_packed(vecs, g, full)
    targets = output_vectors(table)
    steps: list[Gate] = []

    def errors() -> dict[int, int]:
        e = {}
        for ol in range(n_out):
            j = n_in + ol
            diff = vecs[j] ^ targets[ol]
            if diff:
                e[j] = diff
        return e

    def record(gates: list[Gate]):
        for g in gates:
            apply_packed(vecs, g, full)
            steps.append(g)

    while True:
        errs = errors()
        if not errs:
            break
        best = _best_candidate(n_in, vecs, errs, allow_negative_controls, full)
        if best is None:
            for j in sorted(errs):
                for term in _anf_monomials(errs[j], n_in):
                    record(_monomial_gates(term, n_in, j, width))
            break
        record(_realize(*best))
    return CascadePlan(tuple(steps), tuple(linear))


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
    plan = plan_cascades(fit_linear(table), table, allow_negative_controls)
    circ = Circuit(
        table.n_in + table.n_out,
        tuple(range(table.n_in)),
        tuple(range(table.n_in, table.n_in + table.n_out)),
        plan.linear + plan.steps,
    )
    bad = verify(circ, table)
    if bad:
        raise SynthesisError(f"internal planning error, first mismatch at x={bad[0].x}")
    return circ
