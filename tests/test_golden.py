"""diff-golden against edited goldens: pinned reports, and a reference comparator.

``reference_diff`` is the comparator ``cli._diff`` once was: it reads and
parses the golden CSV on every call and converts each golden cell as it
compares it, raising on a cell that is not a finite number. For a golden
whose every cell it can read, ``cli._diff`` must return exactly its problem
list.
"""

import csv
import functools
import io
import itertools
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shorcompile import cli
from shorcompile.cli import EXIT_MISMATCH, EXIT_OK, entrypoint

_TOL_SLACK = 1e-9


def _cell(value):
    return f"{value:.6f}" if isinstance(value, float) else value


def _named(names, cells):
    return " ".join(
        f"{name}={c!r}" if isinstance(c, str) and not c.isprintable() else f"{name}={_cell(c)}"
        for name, c in zip(names, cells)
    )


def _finite(cell):
    number = float(cell)
    if not math.isfinite(number):
        raise ValueError(f"golden cell {cell!r} is not finite")
    return number


def reference_diff(table, directory, dists):
    """``table``'s problems against ``<directory>/<stem>.csv``, parsed on this call."""
    text = Path(directory, f"{table.stem}.csv").read_text(encoding="utf-8")
    header, *golden = csv.reader(io.StringIO(text, newline=""))
    if header != [*table.header, "tolerance"]:
        return [f"{table.stem}: golden columns {','.join(header)}, expected {','.join(table.header)},tolerance"]
    key, names = table.key, table.header
    computed = {tuple([str(c) for c in row[:key]]): row[key:] for row in table.rows(dists)}
    problems = []
    for row in golden:
        name, want = tuple(row[:key]), row[key:-1]
        got = computed.pop(name, None)
        if got is None:
            problems.append(f"{table.stem} {_named(names, name)}: golden row missing")
            continue
        tol = _finite(row[-1]) + _TOL_SLACK
        for w, g in zip(want, got):
            if g != w if isinstance(g, str) else abs(g - _finite(w)) > tol:
                problems.append(
                    f"{table.stem} {_named(names, name)}: "
                    f"golden {_named(names[key:], want)}, computed {_named(names[key:], got)}"
                )
                break
    problems.extend(f"{table.stem} {_named(names, name)}: extra computed row" for name in computed)
    return problems


_TABLES = {table.stem: (label, table) for label, table in cli._GOLDENS}


def _bundled_rows(stem):
    text = cli._GOLDEN_DIR.joinpath(f"{stem}.csv").read_text(encoding="utf-8")
    return list(csv.reader(io.StringIO(text, newline="")))


def _write_golden(directory, stem, rows):
    # with both line-break characters in its terminator, the writer quotes a cell
    # holding either one on every Python version, so each cell reads back as written
    with open(Path(directory, f"{stem}.csv"), "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\r\n").writerows(rows)


def _diff_golden_with(tmp_path, monkeypatch, capsys, stem, edits):
    """diff-golden's exit code and stdout, with cells of a copy of the bundled goldens edited.

    ``edits`` maps (row, column) of ``<stem>.csv``, header row 0, to the new cell text.
    """
    shutil.copytree(cli._GOLDEN_DIR, tmp_path, dirs_exist_ok=True)
    rows = _bundled_rows(stem)
    for (row, column), text in edits.items():
        rows[row][column] = text
    _write_golden(tmp_path, stem, rows)
    monkeypatch.setattr(cli, "_GOLDEN_DIR", tmp_path)
    code = entrypoint(["diff-golden"])
    return code, capsys.readouterr().out


def _section(out, label):
    """The lines diff-golden prints for one golden: its label line and its problems."""
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"{label}: "))
    end = next((i for i in range(start + 1, len(lines)) if not lines[i].startswith("  ")), len(lines))
    return lines[start:end]


@pytest.mark.parametrize("text", ["02", " 2"], ids=["leading-zero", "leading-space"])
def test_a_key_cell_matches_only_as_written(tmp_path, monkeypatch, capsys, text):
    # orders_n21's first row is a=2; a key cell that is not the canonical decimal matches no computed row
    code, out = _diff_golden_with(tmp_path, monkeypatch, capsys, "orders_n21", {(1, 0): text})
    assert code == EXIT_MISMATCH
    assert out.count(": FAIL") == 1
    assert _section(out, "orders N=21") == [
        "orders N=21: FAIL",
        f"  orders_n21 a={text}: golden row missing",
        "  orders_n21 a=2: extra computed row",
    ]


@pytest.mark.parametrize(
    "stem, edits, problem",
    [
        # a=2 has r=6: a golden r=7 is 1 away, past a tolerance of 0.999 and within one of 1
        ("orders_n21", {(1, 1): "7", (1, 2): "0.999"}, "orders_n21 a=2: golden r=7, computed r=6"),
        ("orders_n21", {(1, 1): "7", (1, 2): "1"}, None),
        # p=3 has S=0.23828125, against a tolerance of 0.001
        ("separability_m3k3", {(3, 1): "0.2372"}, "separability_m3k3 p=3: golden S=0.2372, computed S=0.238281"),
        ("separability_m3k3", {(3, 1): "0.2373"}, None),
        # a cell written quoted over two lines reads with its line break, shown by its repr, and
        # moves every later row down a line: a report quotes its own row's cells, not the line the
        # row's index names
        ("orders_n21", {(1, 1): "4\n"}, "orders_n21 a=2: golden r='4\\n', computed r=6"),
        ("orders_n21", {(1, 1): "6\n", (3, 1): "99"}, "orders_n21 a=5: golden r=99, computed r=6"),
        # a text cell is compared as written, its trailing line break included
        (
            "allowed_periods_max90",
            {(1, 4): "2;4\n"},
            "allowed_periods_max90 N=15: golden p=3 q=5 lambda=4 periods='2;4\\n', "
            "computed p=3 q=5 lambda=4 periods=2;4",
        ),
        # a form feed, which csv.writer leaves unquoted, ends no CSV line: one cell, one mismatch
        (
            "allowed_periods_max90",
            {(1, 4): "2\x0c4"},
            "allowed_periods_max90 N=15: golden p=3 q=5 lambda=4 periods='2\\x0c4', "
            "computed p=3 q=5 lambda=4 periods=2;4",
        ),
    ],
)
def test_a_value_is_checked_against_its_tolerance(tmp_path, monkeypatch, capsys, stem, edits, problem):
    code, out = _diff_golden_with(tmp_path, monkeypatch, capsys, stem, edits)
    label, _ = _TABLES[stem]
    if problem is None:
        assert code == EXIT_OK and ": FAIL" not in out
    else:
        assert code == EXIT_MISMATCH
        assert out.count(": FAIL") == 1
        assert _section(out, label) == [f"{label}: FAIL", f"  {problem}"]


@pytest.mark.parametrize(
    "stem, edits, problem",
    [
        ("orders_n33", {(3, 1): "x"}, "orders_n33 a=5: golden r 'x' is not a number"),
        ("rho_p3", {(5, 4): "tol"}, "rho_p3 row=0 col=4: golden tolerance 'tol' is not a number"),
        ("probabilities_m3k3", {(2, 2): ""}, "probabilities_m3k3 p=1 k=1: golden probability '' is not a number"),
        # a nan value would match any computed value, and a nan or inf tolerance accept one
        ("separability_m3k3", {(3, 1): "nan"}, "separability_m3k3 p=3: golden S 'nan' is not a number"),
        ("separability_m3k3", {(3, 2): "nan"}, "separability_m3k3 p=3: golden tolerance 'nan' is not a number"),
        ("separability_m3k3", {(3, 2): "inf"}, "separability_m3k3 p=3: golden tolerance 'inf' is not a number"),
    ],
)
def test_a_malformed_cell_is_one_fail_line(tmp_path, monkeypatch, capsys, stem, edits, problem):
    code, out = _diff_golden_with(tmp_path, monkeypatch, capsys, stem, edits)
    label, _ = _TABLES[stem]
    assert code == EXIT_MISMATCH
    assert out.count(": FAIL") == 1
    assert _section(out, label) == [f"{label}: FAIL", f"  {problem}"]


@pytest.mark.parametrize(
    "stem, old, new, problem",
    [
        # zip would pair the tolerance with S and drop the value
        ("separability_m3k3", "\n3,0.238,0.001\n", "\n3,0.001\n", "separability_m3k3 line 4: 2 cells, header has 3"),
        # the last of five cells would be read as the tolerance
        ("orders_n21", "\n4,3,0\n", "\n4,3,0,9,9\n", "orders_n21 line 3: 5 cells, header has 3"),
        # a problem line names the line its row starts on: row a=2 now fills lines 2 and 3
        ("orders_n21", "\n2,6,0\n4,3,0\n", '\n2,"6\n",0\n4,3\n', "orders_n21 line 4: 2 cells, header has 3"),
        # a blank line is a row of no cells, not a golden row with an empty key
        ("orders_n21", "tolerance\n", "tolerance\n\n", "orders_n21 line 2: 0 cells, header has 3"),
        # an empty file has no header to unpack
        ("orders_n33", None, "", "orders_n33 line 1: no header"),
    ],
    ids=["short", "long", "after-a-two-line-cell", "blank", "empty"],
)
def test_a_row_of_the_wrong_width_is_one_fail_line(tmp_path, monkeypatch, capsys, stem, old, new, problem):
    """A golden row is as wide as its header; ``old`` None replaces the whole file with ``new``."""
    shutil.copytree(cli._GOLDEN_DIR, tmp_path, dirs_exist_ok=True)
    path = tmp_path / f"{stem}.csv"
    text = path.read_text(encoding="utf-8")
    assert old is None or text.count(old) == 1
    path.write_text(new if old is None else text.replace(old, new), encoding="utf-8")
    monkeypatch.setattr(cli, "_GOLDEN_DIR", tmp_path)
    code = entrypoint(["diff-golden"])
    out = capsys.readouterr().out
    label, _ = _TABLES[stem]
    assert code == EXIT_MISMATCH
    assert out.count(": FAIL") == 1
    assert _section(out, label) == [f"{label}: FAIL", f"  {problem}"]


def test_each_golden_is_parsed_once_per_directory(tmp_path, monkeypatch, capsys):
    first, second = tmp_path / "first", tmp_path / "second"
    for directory in (first, second):
        shutil.copytree(cli._GOLDEN_DIR, directory)
    parsed = []
    reader = csv.reader

    def counting(lines, *args, **kwargs):
        parsed.append(lines)
        return reader(lines, *args, **kwargs)

    monkeypatch.setattr(csv, "reader", counting)
    counts = []
    for directory in (first, first, second, second, first):
        monkeypatch.setattr(cli, "_GOLDEN_DIR", directory)
        assert entrypoint(["diff-golden"]) == EXIT_OK
        counts.append(len(parsed))
        parsed.clear()
    assert counts == [len(cli._GOLDENS), 0, len(cli._GOLDENS), 0, 0]
    assert ": FAIL" not in capsys.readouterr().out


# ------------------------------------------------- equivalence with the reference

_DISTS = functools.cache(cli._distributions)
_DIRECTORIES = itertools.count()

# cell texts near the ones the goldens hold: other numbers, other spellings of them, and garbage
_CELL_TEXT = st.one_of(
    st.integers(-300, 300).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "x", "tol", "nan", "inf", "-0", "+2", "02", " 2", "2 ", "1e-3", "1_0", "2;4", "0x10"]),
    # printable ASCII, the line breaks, which the writer quotes into a cell spanning lines, and
    # characters str.splitlines also breaks on, which the writer leaves unquoted
    st.text(st.characters(min_codepoint=32, max_codepoint=126) | st.sampled_from("\n\r\x0c\u2028"), max_size=6),
)


@st.composite
def _edits(draw):
    stem = draw(st.sampled_from(sorted(_TABLES)))
    rows = _bundled_rows(stem)
    row = draw(st.integers(0, len(rows) - 1))
    column = draw(st.integers(0, len(rows[row]) - 1))
    keep = rows[row][column]
    text = draw(st.one_of(_CELL_TEXT, st.sampled_from(["0" + keep, " " + keep, keep + " ", keep + "0"])))
    return stem, row, column, text


@settings(max_examples=300)
@given(_edits())
@example(("orders_n21", 1, 0, "02"))
@example(("orders_n21", 1, 0, " 2"))
@example(("orders_n33", 3, 1, "x"))
@example(("rho_p3", 5, 4, "tol"))
@example(("allowed_periods_max90", 2, 4, "6"))
@example(("allowed_periods_max90", 2, 3, "2;3;6"))
@example(("separability_m3k3", 2, 1, "nan"))
@example(("separability_m3k3", 2, 2, "nan"))
def test_diff_matches_the_parse_per_call_reference(edit):
    stem, row, column, text = edit
    _, table = _TABLES[stem]
    rows = _bundled_rows(stem)
    rows[row][column] = text
    with tempfile.TemporaryDirectory() as root:
        # a directory no earlier example used, so no golden parsed for another edit is found
        directory = Path(root, str(next(_DIRECTORIES)))
        directory.mkdir()
        _write_golden(directory, stem, rows)
        try:
            want = reference_diff(table, directory, _DISTS)
        except ValueError:
            return  # a cell the reference cannot read as a number: it raised, so there is no list to match
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_GOLDEN_DIR", directory)
            assert cli._diff(table, _DISTS) == want
