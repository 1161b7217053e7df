"""Two-stage reversible synthesis from truth tables.

Stage one fits each output bit with the best affine XOR form over the input
bits and emits it as CNOT copies. Stage two repairs the remaining wrong
entries with greedily chosen Toffoli gates, allowing derived controls
(an XOR of two input lines, borrowed in place and restored) and chaining
gate outputs into later controls, which is where Toffoli cascades come from.
Whatever the greedy pass cannot clear is finished off from the algebraic
normal form of the residual, so synthesis always terminates with a verified
circuit; an optional iterative-deepening fallback covers tight budgets on
tiny tables.

Throughout, boolean functions over the 2**n_in inputs are packed into int
bitmasks (bit x = value at input x) by the helpers in circuit.py, and gates
act on them through circuit.apply_packed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import (
    Circuit,
    Gate,
    apply_packed,
    cnot,
    compare_cost,
    cost,
    input_vectors,
    not_gate,
    output_vectors,
    toffoli,
    verify,
)
from .modexp import TruthTable

__all__ = [
    "AffineForm",
    "BitFit",
    "LinearFit",
    "PlanStep",
    "CascadePlan",
    "SynthesisBudget",
    "SynthesisError",
    "fit_linear",
    "plan_cascades",
    "synthesize",
    "compare_cost",
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
    rank: int

    def total_mismatches(self) -> int:
        return sum(len(b.mismatches) for b in self.bits)


@dataclass(frozen=True)
class PlanStep:
    gate: Gate
    flips: frozenset[int]  # input values whose target-line bit this gate flips


@dataclass(frozen=True)
class CascadePlan:
    steps: tuple[PlanStep, ...]
    cascades: tuple[tuple[int, ...], ...]  # indices into steps, per chain


@dataclass(frozen=True)
class SynthesisBudget:
    max_quantum_cost: int = 1_000_000
    max_gates: int = 1_000_000
    allow_negative_controls: bool = True
    exhaustive_fallback: bool = False

    def __post_init__(self) -> None:
        if self.max_quantum_cost < 1 or self.max_gates < 1:
            raise ValueError("budget bounds must be positive")


class SynthesisError(RuntimeError):
    def __init__(self, message: str, quantum_cost: int, mismatches: int):
        super().__init__(message)
        self.quantum_cost = quantum_cost
        self.mismatches = mismatches


# The iterative-deepening fallback never deepens past this total quantum cost.
FALLBACK_COST_CAP = 64


def _gf2_rank(masks: list[int]) -> int:
    rank = 0
    basis: list[int] = []
    for m in masks:
        for b in basis:
            m = min(m, m ^ b)
        if m:
            basis.append(m)
            basis.sort(reverse=True)
            rank += 1
    return rank


def fit_linear(table: TruthTable) -> LinearFit:
    """Best affine GF(2) form per output bit, by exhaustive scoring.

    Selection key: fewest mismatches, then fewest terms, then lexicographic
    (mask, const). Constant-0 bits therefore get the empty form.
    """
    if table.n_in > 8:
        raise ValueError("linear fitting supports at most 8 input bits")
    n = table.n_in
    full = (1 << (1 << n)) - 1
    span = [0]  # span[mask]: XOR of the input lines whose bit is set in mask
    for vec in input_vectors(n):
        span += [v ^ vec for v in span]
    bits = []
    for target in output_vectors(table):
        best: tuple[tuple[int, int, int, int], AffineForm, int] | None = None
        for mask, v in enumerate(span):
            for const in (0, 1):
                vv = v ^ (full if const else 0)
                miss = vv ^ target
                form = AffineForm(mask, bool(const))
                key = (miss.bit_count(), form.terms(), mask, const)
                if best is None or key < best[0]:
                    best = (key, form, miss)
        assert best is not None
        _, form, miss = best
        mism = frozenset(x for x in range(1 << n) if (miss >> x) & 1)
        bits.append(BitFit(form, mism))
    rank = _gf2_rank([b.form.mask for b in bits])
    return LinearFit(n, tuple(bits), rank)


def _emit_linear(fit: LinearFit, n_in: int, allow_neg: bool = True) -> list[Gate]:
    """CNOT copies realizing the fitted forms."""
    gates: list[Gate] = []
    for out_line, bit in enumerate(fit.bits):
        j = n_in + out_line
        sources = [ln for ln in range(n_in) if (bit.form.mask >> ln) & 1]
        if bit.form.const and (not sources or not allow_neg):
            gates.append(not_gate(j))
        for pos, src in enumerate(sources):
            neg = allow_neg and bit.form.const and pos == 0  # fold the constant in
            gates.append(cnot(src, j, neg=neg))
    return gates


def _xor_hosts(p1: tuple[int, int], p2: tuple[int, int]) -> tuple[int, int] | None:
    """Host line for each borrowed XOR pair such that sources stay pristine."""
    shared = set(p1) & set(p2)
    if len(shared) == 2:
        return None
    if len(shared) == 1:
        s = shared.pop()
        return (p1[0] if p1[1] == s else p1[1], p2[0] if p2[1] == s else p2[1])
    return (p1[1], p2[1])


@dataclass(frozen=True)
class _Candidate:
    order_key: tuple
    gates: tuple[Gate, ...]
    target: int
    activation: int
    qcost: int


def _candidates(
    n_in: int, vecs: list[int], errors: dict[int, int], allow_neg: bool, full: int
) -> list[_Candidate]:
    width = len(vecs)
    polarities = (False, True) if allow_neg else (False,)
    out: list[_Candidate] = []

    def add(kind_rank: int, desc: tuple, gates: tuple[Gate, ...], j: int, act: int, qc: int):
        out.append(_Candidate((kind_rank, j, desc), gates, j, act, qc))

    for j in errors:
        # plain NOT
        add(0, (), (not_gate(j),), j, full, 1)
        # single CNOT from any other line
        for c in range(width):
            if c == j:
                continue
            for neg in polarities:
                act = vecs[c] ^ (full if neg else 0)
                add(1, (c, neg), (cnot(c, j, neg=neg),), j, act, 1)
        # two CNOTs adding the XOR of two lines
        for a in range(width):
            for b in range(a + 1, width):
                if j in (a, b):
                    continue
                for neg in polarities:
                    act = vecs[a] ^ vecs[b] ^ (full if neg else 0)
                    gates = (cnot(a, j, neg=neg), cnot(b, j))
                    add(2, (a, b, neg), gates, j, act, 2)
        # Toffoli over two existing lines
        for a in range(width):
            for b in range(a + 1, width):
                if j in (a, b):
                    continue
                for na in polarities:
                    for nb in polarities:
                        act = (vecs[a] ^ (full if na else 0)) & (
                            vecs[b] ^ (full if nb else 0)
                        )
                        gates = (toffoli(a, b, j, neg1=na, neg2=nb),)
                        add(3, (a, b, na, nb), gates, j, act, 6)
        # Toffoli with one control borrowed as an input-line XOR
        for a in range(n_in):
            for b in range(a + 1, n_in):
                for c in range(width):
                    if c == j:
                        continue
                    if c in (a, b):
                        host, src = (b, a) if c == a else (a, b)
                    else:
                        host, src = b, a
                    w_vec = vecs[a] ^ vecs[b]
                    for nw in polarities:
                        for nc in polarities:
                            act = (w_vec ^ (full if nw else 0)) & (
                                vecs[c] ^ (full if nc else 0)
                            )
                            lo, hi = sorted((host, c))
                            n_lo, n_hi = (nw, nc) if lo == host else (nc, nw)
                            gates = (
                                cnot(src, host),
                                toffoli(lo, hi, j, neg1=n_lo, neg2=n_hi),
                                cnot(src, host),
                            )
                            add(4, (a, b, c, nw, nc), gates, j, act, 8)
        # Toffoli with both controls borrowed XOR pairs
        pairs = [(a, b) for a in range(n_in) for b in range(a + 1, n_in)]
        for i1, p1 in enumerate(pairs):
            for p2 in pairs[i1 + 1 :]:
                hosts = _xor_hosts(p1, p2)
                if hosts is None:
                    continue
                h1, h2 = hosts
                s1 = p1[0] if p1[1] == h1 else p1[1]
                s2 = p2[0] if p2[1] == h2 else p2[1]
                v1 = vecs[p1[0]] ^ vecs[p1[1]]
                v2 = vecs[p2[0]] ^ vecs[p2[1]]
                for n1 in polarities:
                    for n2 in polarities:
                        act = (v1 ^ (full if n1 else 0)) & (v2 ^ (full if n2 else 0))
                        lo, hi = sorted((h1, h2))
                        n_lo, n_hi = (n1, n2) if lo == h1 else (n2, n1)
                        gates = (
                            cnot(s1, h1),
                            cnot(s2, h2),
                            toffoli(lo, hi, j, neg1=n_lo, neg2=n_hi),
                            cnot(s2, h2),
                            cnot(s1, h1),
                        )
                        add(5, (p1, p2, n1, n2), gates, j, act, 10)
    return out


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
    effect. Each level needs one free line, available whenever n_out >= 2.
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
        raise SynthesisError(f"no spare line for a degree-{deg} flip", 0, 1)
    d = spare[0]
    head = toffoli(controls[0], controls[1], d)
    inner = _multi_controlled_flip([d] + controls[2:], j, n_in, width)
    return [head] + inner + [head] + inner


def _monomial_gates(term: int, n_in: int, j: int, width: int) -> list[Gate]:
    """Gates flipping line j exactly on the monomial's support."""
    lines = sorted(n_in - 1 - p for p in range(n_in) if (term >> p) & 1)
    return _multi_controlled_flip(lines, j, n_in, width)


def _find_cascades(steps: list[PlanStep], n_in: int) -> tuple[tuple[int, ...], ...]:
    """Chains where a Toffoli's target feeds a later Toffoli's control and
    the flip count halves at each link, starting from 2**(n_in - 2) flips."""
    toffs = [i for i, s in enumerate(steps) if len(s.gate.controls) == 2]
    used: set[int] = set()
    chains: list[tuple[int, ...]] = []
    for i in toffs:
        if i in used or len(steps[i].flips) != 1 << max(0, n_in - 2):
            continue
        chain = [i]
        cur = i
        while len(chain) < n_in - 1:
            nxt = None
            for k in toffs:
                if k <= cur or k in used or k in chain:
                    continue
                ctrl_lines = {c.line for c in steps[k].gate.controls}
                if steps[cur].gate.target in ctrl_lines and 2 * len(
                    steps[k].flips
                ) == len(steps[cur].flips):
                    nxt = k
                    break
            if nxt is None:
                break
            chain.append(nxt)
            cur = nxt
        if len(chain) > 1:
            chains.append(tuple(chain))
            used.update(chain)
    return tuple(chains)


def plan_cascades(
    fit: LinearFit, table: TruthTable, allow_negative_controls: bool = True
) -> CascadePlan:
    """Repair plan for everything the linear stage left wrong.

    Greedy phase: among all candidate gates, pick the one fixing the most
    wrong entries net of newly broken ones; ties go to cheaper gates, fewer
    negative controls, then lexicographic order. When no candidate has a
    positive net score, the remaining residual is emitted from its algebraic
    normal form, which always completes.
    """
    n_in, n_out = table.n_in, table.n_out
    width = n_in + n_out
    full = (1 << (1 << n_in)) - 1
    vecs = input_vectors(n_in) + [0] * n_out
    for g in _emit_linear(fit, n_in, allow_negative_controls):
        apply_packed(vecs, g, full)
    targets = output_vectors(table)
    steps: list[PlanStep] = []

    def errors() -> dict[int, int]:
        e = {}
        for ol in range(n_out):
            j = n_in + ol
            diff = vecs[j] ^ targets[ol]
            if diff:
                e[j] = diff
        return e

    def record(gates: list[Gate] | tuple[Gate, ...]):
        for g in gates:
            flips = apply_packed(vecs, g, full)
            steps.append(
                PlanStep(g, frozenset(x for x in range(1 << n_in) if (flips >> x) & 1))
            )

    while True:
        errs = errors()
        if not errs:
            break
        best: tuple[tuple, _Candidate] | None = None
        for cand in _candidates(n_in, vecs, errs, allow_negative_controls, full):
            err = errs[cand.target]
            score = (cand.activation & err).bit_count() - (
                cand.activation & ~err & full
            ).bit_count()
            if score <= 0:
                continue
            negs = sum(c.neg for g in cand.gates for c in g.controls)
            key = (-score, cand.qcost, negs, cand.order_key)
            if best is None or key < best[0]:
                best = (key, cand)
        if best is None:
            for j in sorted(errs):
                for term in _anf_monomials(errs[j], n_in):
                    record(_monomial_gates(term, n_in, j, width))
            break
        record(best[1].gates)
    return CascadePlan(tuple(steps), _find_cascades(steps, n_in))


def _iddfs(table: TruthTable, budget: SynthesisBudget) -> Circuit | None:
    """Cost-bounded iterative deepening over raw gate sequences."""
    n_in, n_out = table.n_in, table.n_out
    width = n_in + n_out
    full = (1 << (1 << n_in)) - 1
    targets = tuple(output_vectors(table))
    start = tuple(input_vectors(n_in)) + (0,) * n_out
    polarities = (False, True) if budget.allow_negative_controls else (False,)

    moves: list[tuple[Gate, int]] = []
    for j in range(n_in, width):
        moves.append((not_gate(j), 1))
        for c in range(width):
            if c == j:
                continue
            for neg in polarities:
                moves.append((cnot(c, j, neg=neg), 1))
        for a in range(width):
            for b in range(a + 1, width):
                if j in (a, b):
                    continue
                for na in polarities:
                    for nb in polarities:
                        moves.append((toffoli(a, b, j, neg1=na, neg2=nb), 6))

    cap = min(budget.max_quantum_cost, FALLBACK_COST_CAP)

    def dfs(vecs: tuple[int, ...], left: int, acc: list[Gate]) -> list[Gate] | None:
        if all(vecs[n_in + ol] == targets[ol] for ol in range(n_out)):
            return list(acc)
        if left <= 0 or len(acc) >= budget.max_gates:
            return None
        for gate, gc in moves:
            if gc > left:
                continue
            if acc and acc[-1] == gate:  # self-inverse, pointless
                continue
            nxt = list(vecs)
            apply_packed(nxt, gate, full)
            acc.append(gate)
            found = dfs(tuple(nxt), left - gc, acc)
            if found is not None:
                return found
            acc.pop()
        return None

    for limit in range(1, cap + 1):
        found = dfs(start, limit, [])
        if found is not None:
            return Circuit(
                width,
                tuple(range(n_in)),
                tuple(range(n_in, width)),
                tuple(found),
            )
    return None


def synthesize(table: TruthTable, budget: SynthesisBudget | None = None) -> Circuit:
    """Verified circuit for the table, within the budget.

    Raises SynthesisError carrying cost and residual diagnostics when the
    budget is exhausted (after trying the exhaustive fallback if enabled).
    """
    if budget is None:
        budget = SynthesisBudget()
    if table.n_in > 6 or table.n_out > 6:
        raise ValueError("synthesis supports at most 6 input and 6 output bits")
    allow_neg = budget.allow_negative_controls
    fit = fit_linear(table)
    lin_gates = _emit_linear(fit, table.n_in, allow_neg)
    plan = plan_cascades(fit, table, allow_neg)
    circ = Circuit(
        table.n_in + table.n_out,
        tuple(range(table.n_in)),
        tuple(range(table.n_in, table.n_in + table.n_out)),
        tuple(lin_gates) + tuple(s.gate for s in plan.steps),
    )
    report = cost(circ)
    if (
        report.quantum_cost <= budget.max_quantum_cost
        and len(circ.gates) <= budget.max_gates
    ):
        bad = verify(circ, table)
        if bad:
            raise SynthesisError(
                f"internal planning error, first mismatch at x={bad[0].x}",
                report.quantum_cost,
                len(bad),
            )
        return circ
    if budget.exhaustive_fallback:
        found = _iddfs(table, budget)
        if found is not None and not verify(found, table):
            return found
    raise SynthesisError(
        "synthesis budget exhausted", report.quantum_cost, 0
    )
