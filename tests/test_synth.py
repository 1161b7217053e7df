"""Synthesis: linear fitting, greedy repair, ANF mop-up, per-stage costs, width refusals."""

import hashlib
import itertools
import json
import math
import random

import numpy as np
import pytest
from sweep import odd_semiprimes_below as _odd_semiprimes_below
from test_properties import reference_circuit_dict

from shorcompile import synth
from shorcompile.circuit import Circuit, circuit_from_json, circuit_to_json, cost, render_gates, verify
from shorcompile.library import FIGURE_IDS, LIBRARY
from shorcompile.modexp import GKind, TruthTable, compile_modexp, full_compile
from shorcompile.synth import (
    _candidates,
    _catalogue,
    _cnot,
    _emit_linear,
    _greedy,
    _monomial_gates,
    _mop_up,
    _not,
    _toffoli,
    fit_linear,
    plan_cascades,
    synthesize,
)

RNG = random.Random(90210)


def test_fit_linear_exact_on_linear_table():
    fit = fit_linear(LIBRARY["f2_15_full"].table)  # identity map, purely linear
    assert sum(len(bf.mismatches) for bf in fit.bits) == 0
    assert all(not bf.mismatches for bf in fit.bits)


def test_fit_linear_uncompiled_f4_21():
    fit = fit_linear(LIBRARY["f4_21"].table)
    got = [(bf.form.mask, int(bf.form.const), sorted(bf.mismatches)) for bf in fit.bits]
    assert got == [
        (0b000, 0, [2, 5]),   # 16-valued bit: too sparse, constant-zero fit
        (0b000, 0, []),       # 8-valued bit never fires
        (0b111, 0, [2]),      # 4-valued bit is parity up to one row
        (0b000, 0, []),       # 2-valued bit never fires
        (0b111, 1, [5]),      # units bit is complemented parity up to one row
    ]
    assert sum(len(bf.mismatches) for bf in fit.bits) == 4


def test_fit_linear_compiled_f4_21():
    fit = fit_linear(LIBRARY["f4_21_partial"].table)
    got = [(bf.form.mask, int(bf.form.const), sorted(bf.mismatches)) for bf in fit.bits]
    assert got == [(0b000, 0, [2, 5]), (0b111, 0, [2])]


def test_fit_linear_rejects_wide_tables():
    with pytest.raises(ValueError):
        fit_linear(TruthTable(9, 1, tuple([0] * 512)))


def test_plan_cascades_detects_chain():
    t = LIBRARY["f4_21_partial"].table
    plan = plan_cascades(fit_linear(t), t)
    assert plan.steps  # greedy produced at least one repair gate


def test_synthesize_bundled_tables_verified_within_2x():
    for name in FIGURE_IDS:
        entry = LIBRARY[name]
        circ = synthesize(entry.table)
        assert verify(circ, entry.table) == [], name
        ref = cost(entry.circuit).quantum_cost
        got = cost(circ).quantum_cost
        assert got <= 2 * ref, (name, got, ref)


def test_synthesize_pure_linear_needs_no_toffoli():
    for name in ("f2_15_full", "f4_15", "f4_15_full"):
        circ = synthesize(LIBRARY[name].table)
        assert cost(circ).n_toffoli == 0, name


def test_synthesize_deterministic():
    t = LIBRARY["f4_33_full"].table
    assert synthesize(t).gates == synthesize(t).gates


def test_synthesize_random_periodic_tables():
    for _ in range(120):
        n_in = RNG.randint(1, 4)
        p = RNG.randint(1, 1 << n_in)
        n_out = RNG.randint(max(1, (p - 1).bit_length()), 4)
        vals = RNG.sample(range(1 << n_out), p)
        rows = tuple(vals[x % p] for x in range(1 << n_in))
        table = TruthTable(n_in, n_out, rows)
        circ = synthesize(table)
        assert verify(circ, table) == [], rows


def test_synthesize_without_negative_controls():
    for name in ("f4_21", "f4_21_partial", "f4_33_full"):
        table = LIBRARY[name].table
        circ = synthesize(table, allow_negative_controls=False)
        assert verify(circ, table) == [], name
        assert all(not c.neg for g in circ.gates for c in g.controls), name


@pytest.mark.parametrize("allow", [0, 1, False, True])
def test_synthesized_polarities_are_bools_and_round_trip(allow):
    """A non-bool setting must not leak into a polarity: circuit_from_json
    refuses "neg": 0."""
    circ = synthesize(full_compile(2, 21).table, allow_negative_controls=allow)
    assert all(type(c.neg) is bool for g in circ.gates for c in g.controls)
    assert circuit_from_json(circuit_to_json(circ)) == circ


def test_synthesize_rejects_wide_tables():
    with pytest.raises(ValueError):
        synthesize(TruthTable(7, 1, tuple([0] * 128)))


def test_degree_three_residual_uses_a_dirty_line():
    # the high output bit is the AND of all three inputs; flipping it needs
    # a borrowed line, and the unused low output line provides one
    rows = tuple(((x == 7) << 1) | 0 for x in range(8))
    table = TruthTable(3, 2, rows)
    circ = synthesize(table)
    assert verify(circ, table) == []


def test_impossible_without_spare_line():
    # AND of all n >= 3 inputs onto the only output line is an odd
    # permutation of the n + 1 lines; every gate there is an even one, so
    # synthesize refuses the table up front as invalid input
    for n in range(3, 7):
        table = TruthTable(n, 1, (0,) * ((1 << n) - 1) + (1,))
        with pytest.raises(ValueError, match="odd number of ones"):
            synthesize(table)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_even_weight_single_output_synthesizes(n):
    # two ones: the degree-n monomials cancel, so no flip needs a spare line
    table = TruthTable(n, 1, (0,) * ((1 << n) - 3) + (1, 0, 1))
    assert verify(synthesize(table), table) == []


# Quantum cost and sha256 of render_gates(synthesize(table)) per table and
# allow_negative_controls, recorded before candidates became plain data.
# Together these circuits use every candidate shape the greedy pass picks:
# one- and two-line CNOT factors and Toffolis with zero, one or two
# borrowed pairs, each with positive and negative controls.
PINNED_CIRCUITS = {
    ("f2_15", True): (12, "ab6cc4500fee8b38d5bce9b2067dd110c435ef99fb173c927a128c8131b72902"),
    ("f2_15", False): (19, "5db403d55956c487805f0e2b46216947338d2d514b34ecec2b343e75bae398bb"),
    ("f2_15_full", True): (2, "513ed3948a0d49714c104669a83f7b7e2366bbe4b768ff7458603a683cc60f41"),
    ("f2_15_full", False): (2, "513ed3948a0d49714c104669a83f7b7e2366bbe4b768ff7458603a683cc60f41"),
    ("f4_15", True): (2, "528959a411ff16e4049546b7a38c05160f89c727842192f6dbb7ef3e89498bbf"),
    ("f4_15", False): (3, "f5eb67e8845284e4799e39d14b51c097a6e0ace8c69cc96094593aa67b23af5e"),
    ("f4_15_full", True): (1, "bd6a4193629f22c727f0882d7743f80e7a2a330bc7062c01b7c728c4b19611d7"),
    ("f4_15_full", False): (1, "bd6a4193629f22c727f0882d7743f80e7a2a330bc7062c01b7c728c4b19611d7"),
    ("f4_21", True): (28, "5d27b8c78f20e87190dcd49334ec986970e667b809b52f5cfc0603e75f80c0c4"),
    ("f4_21", False): (29, "81a954426721069cd90474a23c489cccc81b90d672ada7f1b5f87848404d37e1"),
    ("f4_21_full", True): (12, "4f1609dcb1382e5893509d9d10634eee22343723d218a565933f921f87b4d4e0"),
    ("f4_21_full", False): (16, "35a612727816d75b4ba6d086c1e15a6a345d43bcb6d2d3cb04b572098593171d"),
    ("f4_21_partial", True): (19, "69ce228f8deec7b8d9aac99904ce486148f8cfbbefbb6acfe7e07df718f0d7a1"),
    ("f4_21_partial", False): (19, "69ce228f8deec7b8d9aac99904ce486148f8cfbbefbb6acfe7e07df718f0d7a1"),
    ("f4_33_full", True): (46, "9d5aebf0ff0a840ff56bc24722b122b8204242c5711d81bb2d61596c795b77a6"),
    ("f4_33_full", False): (50, "28370b3c4bad12e8f352f974656b1d3984ff1f4e65a29eb769958b8ac516f298"),
    ((2, 21), True): (25, "9cabdb27e906de6d124a5fc02755c1e796d8cac33b41656e58c2fe19d00b4ada"),
    ((2, 21), False): (25, "9cabdb27e906de6d124a5fc02755c1e796d8cac33b41656e58c2fe19d00b4ada"),
    ((7, 33), True): (304, "0792de2b0c404839f3bf54f8debb353ea56b1f851a2c6995e1b57428e4e0e96c"),
    ((7, 33), False): (320, "dddbf02d58f03644c3fa7b8c9c2fcc0e1f056fa3c57ed4db1c55456486e5aa7c"),
    ((2, 39), True): (508, "aa2810c2bb4d5812717bc14571f8a8e0ec6b81c10d1ef346035b5f6fb718ef24"),
    ((2, 39), False): (492, "b89e7d4620478891cb9415405d00d77ed58c493fa16ea1993e5537f26546fd71"),
    ((16, 33), True): (26, "b18f912a0da08999a916395833737766aaa299f73f79d7086ee7df01758014e0"),
    ((16, 33), False): (26, "b18f912a0da08999a916395833737766aaa299f73f79d7086ee7df01758014e0"),
}


@pytest.mark.parametrize(
    "source, allow_neg",
    list(PINNED_CIRCUITS),
    ids=[f"{s if isinstance(s, str) else 'full_%d_%d' % s}-{n}" for s, n in PINNED_CIRCUITS],
)
def test_synthesized_circuits_are_pinned(source, allow_neg):
    table = LIBRARY[source].table if isinstance(source, str) else full_compile(*source).table
    circ = synthesize(table, allow_negative_controls=allow_neg)
    digest = hashlib.sha256(render_gates(circ).encode()).hexdigest()
    assert (cost(circ).quantum_cost, digest) == PINNED_CIRCUITS[source, allow_neg]


def test_every_small_full_compile_synthesizes_or_hits_the_width_cap():
    """Every coprime (a, N), N an odd semiprime below 90: the fully compiled
    table either synthesizes to a verified circuit or is refused by the
    documented 6-bit cap. Each circuit's template JSON encoding equals the
    reference encoding."""
    done = capped = 0
    for n in _odd_semiprimes_below(90):
        for a in range(2, n):
            if math.gcd(a, n) != 1:
                continue
            table = full_compile(a, n).table
            if max(table.n_in, table.n_out) > 6:
                with pytest.raises(ValueError, match="at most 6 input and 6 output bits"):
                    synthesize(table)
                capped += 1
                continue
            circ = synthesize(table)
            assert verify(circ, table) == [], (a, n)
            assert circuit_to_json(circ) == json.dumps(reference_circuit_dict(circ)), (a, n)
            done += 1
    assert (done, capped) == (341, 114)


# sha256 over every sweep synthesis below, recorded before the greedy scorer
# became incremental.
SWEEP_DIGEST = "9c44907da21ba01817488c2732a5058c3857080cc15dfa52e25361a59f58783f"


def test_sweep_circuits_are_pinned():
    """Every coprime (a, N), N an odd semiprime below 90, compiled fully and
    not at all, synthesized with and without negative controls: one digest
    over each circuit's render_gates and each refusal's message, so a
    tie-break drift on any sweep table shows."""
    digest = hashlib.sha256()
    for n in _odd_semiprimes_below(90):
        for a in range(2, n):
            if math.gcd(a, n) != 1:
                continue
            for strategy in ("full", "none"):
                for allow_neg in (True, False):
                    try:
                        compiled = full_compile(a, n) if strategy == "full" else compile_modexp(a, n, None, GKind.NONE)
                        text = render_gates(synthesize(compiled.table, allow_negative_controls=allow_neg))
                    except ValueError as exc:
                        text = f"refused: {exc}"
                    digest.update(f"{a} {n} {strategy} {allow_neg}\n{text}\n".encode())
    assert digest.hexdigest() == SWEEP_DIGEST


def test_sweep_cost_splits_by_stage():
    """The 341 sweep tables that synthesize, folded stage by stage: the linear
    fit's gates, then _greedy from the fit's error masks, then _mop_up from
    greedy's. Together they are synthesize's circuit; the pins are each
    stage's total qcost and Toffoli count."""
    totals = {"linear": [0, 0], "greedy": [0, 0], "mop-up": [0, 0]}
    for n in _odd_semiprimes_below(90):
        for a in range(2, n):
            if math.gcd(a, n) != 1:
                continue
            table = full_compile(a, n).table
            if max(table.n_in, table.n_out) > 6:
                continue
            fit = fit_linear(table)
            errs = tuple(sum(1 << x for x in bit.mismatches) for bit in fit.bits)
            greedy, errs = _greedy(table, errs, True)
            stages = {"linear": _emit_linear(fit), "greedy": greedy, "mop-up": _mop_up(table, errs)}
            width = table.n_in + table.n_out
            assert [g for gates in stages.values() for g in gates] == list(synthesize(table).gates), (a, n)
            for name, gates in stages.items():
                report = cost(Circuit(width, (), (), tuple(gates)))
                totals[name][0] += report.quantum_cost
                totals[name][1] += report.n_toffoli
    assert totals == {"linear": [2099, 0], "greedy": [11342, 1627], "mop-up": [176762, 29359]}


def test_an_exact_linear_fit_builds_no_greedy_state(monkeypatch):
    """A table the affine fit realizes exactly plans no repair and never reaches the catalogue."""
    table = LIBRARY["f2_15_full"].table

    def refuse(*args):
        raise AssertionError("catalogue built for an exact fit")

    monkeypatch.setattr(synth, "_catalogue", refuse)
    assert plan_cascades(fit_linear(table), table).steps == ()
    assert _greedy(table, (0,) * table.n_out, True) == ([], (0,) * table.n_out)


def test_interned_builders_return_one_object_per_typed_argument_tuple():
    assert _not(3) is _not(3)
    assert _cnot(0, 2, True) is _cnot(0, 2, True)
    assert _toffoli(0, 1, 2, False, True) is _toffoli(0, 1, 2, False, True)
    # equal but differently typed arguments are separate entries: with the
    # equal valid gate cached first, a non-int line or non-bool polarity
    # still reaches the Gate and Control checks
    for build, good, bad in (
        (_not, (1,), (1.0,)),
        (_not, (1,), (True,)),
        (_cnot, (0, 2, False), (0, 2, 0)),
        (_toffoli, (0, 1, 2, True, False), (0, 1, 2, 1, False)),
    ):
        build(*good)
        with pytest.raises(ValueError):
            build(*bad)


def test_interned_gate_caches_stay_within_their_bounds():
    """On at most 12 lines: 12 NOTs, 12*11*2 CNOTs, 12*11*10*4 Toffolis."""
    for fn in (_not, _cnot, _toffoli, _monomial_gates):
        fn.cache_clear()
    for n in _odd_semiprimes_below(90):
        for a in range(2, n):
            if math.gcd(a, n) != 1:
                continue
            table = full_compile(a, n).table
            if max(table.n_in, table.n_out) > 6:
                continue
            for allow_neg in (True, False):
                synthesize(table, allow_negative_controls=allow_neg)
    sizes = [fn.cache_info().currsize for fn in (_not, _cnot, _toffoli)]
    assert all(0 < size <= bound for size, bound in zip(sizes, (12, 264, 5280))), sizes


@pytest.mark.parametrize("allow_neg", [True, False])
def test_widest_catalogue_is_read_only_int16_and_smaller_than_three_rows(allow_neg):
    """The (cell, pairs) catalogue must not outgrow the 3 x C int16 rows
    (i1, i2, j) it replaced, C being the candidate count; the slot index
    arrays sa and sb cached with it are read-only too, and so is the int16
    readers array: per output line, the factor-table entries of the slots
    that read it, then their complements."""
    slots, sa, sb, cell, pairs, readers = _catalogue(6, 12, allow_neg)
    count = sum(1 for j in range(6, 12) for _ in _candidates(6, 12, j, allow_neg))
    assert cell.shape == (count,) and pairs.shape[0] == 2
    assert len(slots) == sa.shape[0] == sb.shape[0] == 12 + 12 * 11 // 2
    assert not sa.flags.writeable and not sb.flags.writeable
    for arr in (cell, pairs, readers):
        assert arr.dtype == np.int16 and not arr.flags.writeable
    assert cell.nbytes + pairs.nbytes <= 3 * 2 * count
    n = len(slots)
    for j, row in enumerate(readers.tolist(), 6):
        mine = [s for s, lines in enumerate(slots) if j in lines]
        assert row == mine + [s + n for s in mine], j


def _greedy_key(candidate):
    """The full greedy tie-break key after score, written out."""
    j, factors, qcost = candidate
    pols = tuple(neg for _, neg in factors)
    lines = tuple(ln for f, _ in factors for ln in f)
    return qcost, sum(pols), len(factors), j, lines, pols


def test_catalogue_order_is_the_full_tie_break_key():
    """_catalogue sorts by cost class alone, so below the class its order is
    _candidates' enumeration order: that must be the rest of the greedy key,
    on all 72 shapes under the 6-bit cap."""
    for n_in, n_out, allow_neg in itertools.product(range(1, 7), range(1, 7), (True, False)):
        width = n_in + n_out
        slots, _, _, cell, pairs, _ = _catalogue(n_in, width, allow_neg)
        index, ones = {lines: s for s, lines in enumerate(slots)}, 2 * len(slots)
        every = [(j, f, q) for j in range(n_in, width) for f, q in _candidates(n_in, width, j, allow_neg)]
        want = []
        for j, factors, _ in sorted(every, key=_greedy_key):
            refs = [index[lines] + len(slots) * neg for lines, neg in factors] + [ones, ones]
            want.append([refs[0], refs[1], j - n_in])
        n_pairs = pairs.shape[1]
        got = np.vstack((pairs[:, cell % n_pairs], cell // n_pairs)).T.tolist()
        assert got == want, (n_in, n_out, allow_neg)


def _reads(factors, line):
    return any(line in lines for lines, _ in factors)


def test_catalogue_pairs_are_the_target_free_enumeration():
    """_catalogue enumerates _candidates once, with j=None. On all 72 shapes
    under the 6-bit cap, j's candidates must be the j=None shapes whose
    factors do not read j, in order; pairs must hold each pair some
    candidate uses exactly once, and no other; line j's cells must decode
    to exactly the pairs whose factors do not read line j."""
    for n_in, n_out, allow_neg in itertools.product(range(1, 7), range(1, 7), (True, False)):
        width, shape = n_in + n_out, (n_in, n_out, allow_neg)
        slots, _, _, cell, pairs, _ = _catalogue(n_in, width, allow_neg)
        index, ones = {lines: s for s, lines in enumerate(slots)}, 2 * len(slots)

        def ref(factors):
            refs = [index[lines] + len(slots) * neg for lines, neg in factors] + [ones, ones]
            return refs[0], refs[1]

        every = list(_candidates(n_in, width, None, allow_neg))
        used = set()
        for j in range(n_in, width):
            mine = list(_candidates(n_in, width, j, allow_neg))
            assert mine == [c for c in every if not _reads(c[0], j)], (shape, j)
            used.update(ref(factors) for factors, _ in mine)
        got = [tuple(p) for p in pairs.T.tolist()]
        assert len(got) == len(set(got)) and set(got) == used, shape
        factors_of = {ref(factors): factors for factors, _ in every}
        out_line, pair = np.divmod(cell, len(got))
        for j in range(n_in, width):
            want = [p for p, key in enumerate(got) if not _reads(factors_of[key], j)]
            assert sorted(pair[out_line == j - n_in].tolist()) == want, (shape, j)
