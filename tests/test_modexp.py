"""Truth tables and the classical compile layer."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sweep import sweep_pairs as _sweep_pairs

from shorcompile.modexp import (
    CompileLevel,
    GDescriptor,
    GKind,
    TruthTable,
    _affine_descriptor,
    compile_modexp,
    full_compile,
)
from shorcompile.numtheory import multiplicative_order


def test_truth_table_validation():
    TruthTable(2, 4, (1, 2, 4, 8))
    with pytest.raises(ValueError):
        TruthTable(2, 4, (1, 2, 4))  # wrong row count
    with pytest.raises(ValueError):
        TruthTable(2, 2, (1, 2, 4, 0))  # 4 needs 3 bits
    with pytest.raises(ValueError):
        TruthTable(0, 1, ())


@pytest.mark.parametrize(
    "args",
    [(1, 1, (0, True)), (1, 1, (0.0, 1.0)), (True, 1, (0, 1))],
    ids=["bool-row", "float-rows", "bool-width"],
)
def test_truth_table_refuses_non_int_numbers(args):
    """A bool or float would construct, and to_json would write true or 1.0,
    which from_json refuses."""
    with pytest.raises(ValueError, match="JSON integers"):
        TruthTable(*args)


@pytest.mark.parametrize(
    ("args", "message"),
    [
        ((10**12, 1, (0, 1)), r"row count must equal 2\*\*n_in"),
        ((1, 10**14, (0, -1)), "output -1 at x=1 does not fit in 100000000000000 bits"),
    ],
    ids=["huge-n_in", "huge-n_out"],
)
def test_truth_table_checks_rows_without_allocating_by_its_widths(args, message):
    """1 << 10**12 and 1 << 10**14 would not fit in memory."""
    with pytest.raises(ValueError, match=message):
        TruthTable(*args)


def test_truth_table_json_roundtrip():
    t = TruthTable(3, 5, (1, 4, 16, 1, 4, 16, 1, 4))
    again = TruthTable.from_json(t.to_json())
    assert again == t
    doc = json.loads(t.to_json())
    assert doc == {"n_in": 3, "n_out": 5, "rows": [1, 4, 16, 1, 4, 16, 1, 4]}


@pytest.mark.parametrize(
    "doc",
    [
        '{"n_in": 1.9, "n_out": 1, "rows": [0.7, 1.2]}',
        '{"n_in": 1, "n_out": 1, "rows": [0, "1"]}',
        '{"n_in": true, "n_out": 1, "rows": [0, 1]}',
        '{"n_in": 1, "n_out": 1, "rows": "01"}',
    ],
)
def test_truth_table_json_rejects_non_integers(doc):
    with pytest.raises(ValueError, match="JSON integers"):
        TruthTable.from_json(doc)


def test_build_modexp_table_matches_pow():
    for a, n in [(2, 15), (4, 15), (4, 21), (2, 21), (4, 33), (5, 33)]:
        for n_in in (1, 2, 3):
            t = compile_modexp(a, n, n_in, GKind.NONE).table
            assert t.n_out == (n - 1).bit_length()
            assert t.rows == tuple(pow(a, x, n) for x in range(1 << n_in))


def test_build_modexp_table_rejects_bad_base():
    with pytest.raises(ValueError):
        compile_modexp(6, 15, 2, GKind.NONE)  # shares a factor
    with pytest.raises(ValueError):
        compile_modexp(1, 15, 2, GKind.NONE)


def test_gdescriptor_roundtrips():
    log = GDescriptor(GKind.LOG, base=4)
    assert log.apply(16) == 2 and log.invert(2) == 16
    aff = GDescriptor(GKind.AFFINE, c=1, d=3)
    assert aff.apply(10) == 3 and aff.invert(3) == 10
    rank = GDescriptor(GKind.RANK, sorted_outputs=(1, 4, 16))
    assert rank.apply(16) == 2 and rank.invert(2) == 16
    none = GDescriptor(GKind.NONE)
    assert none.apply(5) == 5 and none.invert(5) == 5


@pytest.mark.parametrize(
    ("g", "message"),
    [
        (GDescriptor(GKind.LOG, base=4), "5 is not an integer power of 4"),
        # _int_log's base < 2 guard: without it v *= 1 would loop forever
        (GDescriptor(GKind.LOG, base=1), "5 is not an integer power of 1"),
        (GDescriptor(GKind.AFFINE, c=1, d=3), r"\(y - 1\) / 3 is not a nonneg integer for y=5"),
        (GDescriptor(GKind.RANK, sorted_outputs=(1, 4)), r"5 is not one of the realized outputs \(1, 4\)"),
    ],
    ids=("log", "log-base-1", "affine", "rank"),
)
def test_gdescriptor_refuses_a_value_outside_its_map(g, message):
    with pytest.raises(ValueError, match=message):
        g.apply(5)


def test_uncompiled_known_tables():
    assert compile_modexp(2, 15, 2, GKind.NONE).table.rows == (1, 2, 4, 8)
    assert compile_modexp(4, 15, 1, GKind.NONE).table.rows == (1, 4)
    assert compile_modexp(4, 21, 3, GKind.NONE).table.rows == (1, 4, 16, 1, 4, 16, 1, 4)
    cf = compile_modexp(2, 15, 2, GKind.NONE)
    assert cf.level is CompileLevel.UNCOMPILED
    assert cf.g.kind is GKind.NONE


def test_classical_compile_log():
    base = compile_modexp(4, 21, 3, GKind.NONE).table
    cf = compile_modexp(4, 21, 3, GKind.LOG)
    assert cf.level is CompileLevel.PARTIAL
    assert cf.table.rows == (0, 1, 2, 0, 1, 2, 0, 1)
    assert cf.table.n_out == 2
    # g must invert losslessly back to the raw outputs
    assert tuple(cf.g.invert(v) for v in cf.table.rows) == base.rows


def test_classical_compile_log_rejected_when_not_powers():
    with pytest.raises(ValueError):
        compile_modexp(2, 21, 3, GKind.LOG)  # hits 11, not a power of 2


def test_classical_compile_affine():
    base = compile_modexp(2, 21, 3, GKind.NONE).table
    cf = compile_modexp(2, 21, 3, GKind.AFFINE)
    assert tuple(cf.g.invert(v) for v in cf.table.rows) == base.rows
    assert max(cf.table.rows).bit_length() == cf.table.n_out


def test_classical_compile_rank_always_works():
    for a, n in [(2, 15), (4, 21), (5, 33), (2, 33)]:
        base = compile_modexp(a, n, 3, GKind.NONE).table
        cf = compile_modexp(a, n, 3, GKind.RANK)
        assert tuple(cf.g.invert(v) for v in cf.table.rows) == base.rows


def test_full_compile_known_cases():
    cases = {
        (2, 15): ((0, 1, 2, 3), GKind.LOG, 4),
        (4, 15): ((0, 1), GKind.LOG, 2),
        (4, 21): ((0, 1, 2, 0), GKind.LOG, 3),
        (4, 33): ((0, 1, 5, 10, 8, 0, 1, 5), GKind.AFFINE, 5),
    }
    for (a, n), (rows, kind, period) in cases.items():
        cf = full_compile(a, n)
        assert cf.table.rows == rows, (a, n)
        assert cf.g.kind is kind
        assert cf.period == period
        assert cf.level is CompileLevel.FULL


def test_full_compile_wraps_mod_period():
    # inputs continue past one period by wrapping x mod r before mapping
    cf = full_compile(2, 33)  # r = 10, so n_in = 4 and rows wrap at 10
    assert cf.period == 10
    assert cf.table.n_in == 4
    for x in range(16):
        assert cf.table.rows[x] == cf.table.rows[x % 10]
    assert tuple(cf.g.invert(cf.table.rows[x]) for x in range(10)) == tuple(
        pow(2, x, 33) for x in range(10)
    )


def test_full_compile_input_width_is_minimal():
    assert full_compile(4, 15).table.n_in == 1  # r = 2
    assert full_compile(4, 21).table.n_in == 2  # r = 3
    assert full_compile(2, 15).table.n_in == 2  # r = 4
    assert full_compile(4, 33).table.n_in == 3  # r = 5


def test_full_compile_prefers_log_then_affine():
    assert full_compile(2, 15).g.kind is GKind.LOG
    assert full_compile(4, 33).g.kind is GKind.AFFINE


def test_compiled_tables_are_pinned():
    """One digest over full_compile and every kind at n_in 1..3 on the sweep pairs.

    Each case contributes its rows, n_out, g fields, level and period, or
    the ValueError text when the family is refused.
    """
    digest, picks = hashlib.sha256(), {}
    for a, n in _sweep_pairs():
        cases = [(("full", a, n), lambda: full_compile(a, n))]
        cases += [
            ((kind.value, a, n, n_in), lambda kind=kind, n_in=n_in: compile_modexp(a, n, n_in, kind))
            for kind in GKind
            for n_in in (1, 2, 3)
        ]
        for key, compile_case in cases:
            try:
                cf = compile_case()
            except ValueError as exc:
                record, pick = (key, str(exc)), "refused"
            else:
                record = (key, cf.table.rows, cf.table.n_out, tuple(cf.g), cf.level.value, cf.period)
                pick = cf.g.kind.value
            digest.update((repr(record) + "\n").encode())
            picks[key[0], pick] = picks.get((key[0], pick), 0) + 1
    assert picks == {
        ("full", "log"): 43,
        ("full", "affine"): 412,
        ("none", "none"): 1365,
        ("log", "log"): 562,
        ("log", "refused"): 803,
        ("affine", "affine"): 1365,
        ("rank", "rank"): 1365,
    }
    assert digest.hexdigest() == "1ebd3cc9e1a5a938e648c994eabf743a19bcbafd39b3c9765e9248f15afc5222"


def reference_affine_descriptor(outputs: tuple[int, ...], n: int) -> GDescriptor | None:
    """Every (c, d) with d in 1..n and c in 0..d, best by (max mapped value, d, c)."""
    ys = sorted(set(outputs))
    best_key = None
    for d in range(1, n + 1):
        for c in range(0, d + 1):
            if any(y < c or (y - c) % d for y in ys):
                continue
            key = ((ys[-1] - c) // d, d, c)
            if best_key is None or key < best_key:
                best_key = key
    if best_key is None:
        return None
    _, d, c = best_key
    return GDescriptor(GKind.AFFINE, c=c, d=d)


def test_affine_descriptor_matches_brute_force_on_every_small_full_compile():
    """The raw outputs of each coprime (a, N), N an odd semiprime below 90."""
    checked = 0
    for a, n in _sweep_pairs():
        r = multiplicative_order(a, n)
        raw = tuple(pow(a, x % r, n) for x in range(1 << max(1, (r - 1).bit_length())))
        assert _affine_descriptor(raw, n) == reference_affine_descriptor(raw, n), (a, n)
        checked += 1
    assert checked == 455


@st.composite
def output_sets(draw) -> tuple[int, ...]:
    """Arbitrary outputs, or outputs sharing a residue mod a drawn step."""
    if draw(st.booleans()):
        return tuple(draw(st.lists(st.integers(0, 200), min_size=1, max_size=10)))
    y0, step = draw(st.integers(0, 60)), draw(st.integers(1, 15))
    ks = draw(st.lists(st.integers(0, 12), min_size=1, max_size=10))
    return tuple(y0 + step * k for k in ks)


@settings(max_examples=200)
@given(output_sets(), st.integers(1, 80))
def test_affine_descriptor_matches_brute_force(outputs, n):
    """d = 1, c = 0 fits every output set, so the family always fits."""
    got = _affine_descriptor(outputs, n)
    assert got is not None and got == reference_affine_descriptor(outputs, n)

