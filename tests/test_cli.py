"""CLI surface: formats, manifests, exit codes, golden diffing."""

import argparse
import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shorcompile import cli, modexp, numtheory, synth
from shorcompile.circuit import Mismatch, circuit_from_json, circuit_to_json
from shorcompile.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_SYNTHESIS,
    EXIT_USAGE,
    entrypoint,
)
from shorcompile.library import LIBRARY


def run(capsys, *argv):
    code = entrypoint(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tables_orders_csv(capsys):
    code, out, _ = run(capsys, "tables", "orders", "--N", "21", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "a,r"
    assert lines[1] == "2,6"
    assert len(lines) == 12  # header plus 11 coprime bases


def test_tables_orders_rejects_bad_modulus(capsys):
    code, _, err = run(capsys, "tables", "orders", "--N", "16")
    assert code == EXIT_USAGE
    assert "error" in err


def test_tables_allowed_periods_row_count(capsys):
    code, out, _ = run(capsys, "tables", "allowed-periods", "--format", "csv")
    assert code == EXIT_OK
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 13
    assert rows[0] == "15,3,5,4,2;4"
    assert rows[-1] == "87,3,29,28,2;4;7;14;28"


def test_tables_allowed_periods_validates_each_semiprime_once(capsys, monkeypatch):
    validated = []
    check = numtheory.Semiprime.__new__

    def counting(cls, n, p, q):
        validated.append(n)
        return check(cls, n, p, q)

    monkeypatch.setattr(numtheory.Semiprime, "__new__", counting)
    code, out, _ = run(capsys, "tables", "allowed-periods", "--format", "csv")
    assert code == EXIT_OK
    ns = [int(row.split(",")[0]) for row in out.strip().splitlines()[1:]]
    assert validated == ns and len(ns) == 13


def test_tables_json_carries_manifest(capsys):
    code, out, _ = run(capsys, "tables", "separability", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    man = doc["manifest"]
    assert man["command"] == "tables"
    assert man["params"]["kind"] == "separability"
    assert len(man["checksums"]["csv"]) == 64
    assert len(doc["rows"]) == 8


def test_tables_out_writes_files(tmp_path, capsys):
    code, out, _ = run(
        capsys, "tables", "orders", "--N", "33", "--out", str(tmp_path)
    )
    assert code == EXIT_OK
    csv_file = tmp_path / "orders_n33.csv"
    json_file = tmp_path / "orders_n33.json"
    assert csv_file.exists() and json_file.exists()
    doc = json.loads(json_file.read_text())
    assert len(doc["rows"]) == 19


def test_tables_options_in_any_order_write_the_same_bytes(tmp_path, capsys):
    """The manifest's params follow the kind's declared options, not argv:
    ``--k=2`` goes to the whole parser, the other two are read off the table."""
    orders = (("--k", "2", "--m", "3"), ("--m", "3", "--k", "2"), ("--k=2", "--m", "3"))
    printed, written = set(), set()
    for i, options in enumerate(orders):
        code, out, _ = run(capsys, "tables", "separability", *options, "--format", "json")
        assert code == EXIT_OK
        printed.add(out)
        assert run(capsys, "tables", "separability", *options, "--out", str(tmp_path / str(i)))[0] == EXIT_OK
        written.add(tuple((tmp_path / str(i) / f"separability_m3k2.{ext}").read_bytes() for ext in ("csv", "json")))
    assert len(printed) == 1 and len(written) == 1
    assert json.loads(printed.pop())["manifest"]["params"] == {"kind": "separability", "m": 3, "k": 2}


def test_diff_golden_runs_every_check(capsys):
    code, out, _ = run(capsys, "diff-golden")
    assert code == EXIT_OK
    for label in ("orders N=21", "orders N=33", "allowed periods",
                  "probabilities", "separability", "reduced density", "figure circuits"):
        assert f"{label}" in out
    assert "FAIL" not in out


def test_diff_golden_reports_a_figure_circuit_that_fails_its_table_and_caption(monkeypatch, capsys):
    real = cli.library_entry

    def short_f4_21(name):  # f4_21 less its last gate, a CNOT
        entry = real(name)
        if name != "f4_21":
            return entry
        return entry._replace(circuit=entry.circuit._replace(gates=entry.circuit.gates[:-1]))

    monkeypatch.setattr(cli, "library_entry", short_f4_21)
    code, out, _ = run(capsys, "diff-golden")
    assert code == EXIT_MISMATCH
    assert out.splitlines()[-3:] == [
        "figure circuits: FAIL",
        "  f4_21: 4 mismatching rows, first at x=4",
        "  f4_21: counts T=2 CN=11, caption T=2 CN=12",
    ]


def test_golden_registry_covers_every_bundled_file():
    bundled = {f.name[: -len(".csv")] for f in cli._GOLDEN_DIR.iterdir() if f.name.endswith(".csv")}
    assert {table.stem for _, table in cli._GOLDENS} == bundled


def _edit_golden(rows, key, edit):
    """One edited copy of a golden CSV's rows, and the report diff-golden must give for it."""
    header, first, *rest = rows
    if edit == "perturbed":
        *cells, value, tol = first
        try:
            value = repr(float(value) + float(tol) + 0.5)
        except ValueError:
            value += ";1"
        return [header, [*cells, value, tol], *rest], ": golden "
    if edit == "removed":
        return [header, *rest], "extra computed row"
    if edit == "renamed":
        return [[header[0] + "_", *header[1:]], first, *rest], "golden columns"
    return [*rows, ["999"] * key + first[key:]], "golden row missing"


@pytest.mark.parametrize("edit", ["perturbed", "removed", "added", "renamed"])
@pytest.mark.parametrize("label, table", cli._GOLDENS, ids=[t.stem for _, t in cli._GOLDENS])
def test_diff_golden_reports_each_edit(tmp_path, monkeypatch, capsys, label, table, edit):
    shutil.copytree(cli._GOLDEN_DIR, tmp_path, dirs_exist_ok=True)
    target = tmp_path / f"{table.stem}.csv"
    rows = list(csv.reader(io.StringIO(target.read_text(encoding="utf-8"), newline="")))
    rows, message = _edit_golden(rows, table.key, edit)
    with open(target, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    monkeypatch.setattr(cli, "_GOLDEN_DIR", tmp_path)
    code, out, _ = run(capsys, "diff-golden")
    assert code == EXIT_MISMATCH
    assert f"{label}: FAIL" in out
    assert out.count(": FAIL") == 1
    assert f"  {table.stem}" in out and message in out


def test_diff_golden_recomputes_on_every_call(monkeypatch, capsys):
    """Only the golden files outlive a call: each call rebuilds every table, state and circuit check."""
    calls = dict.fromkeys(
        ("uniform_input_state", "period_map_stack", "reduce_to_input", "verify", "coprime_order_table"), 0
    )
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(cli, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(cli, name, counted)
    assert run(capsys, "diff-golden")[0] == EXIT_OK
    once = dict(calls)
    # the eight m=3 periods are mapped once, in one stack, and the p=3 density reuses its state
    assert once == {"uniform_input_state": 1, "period_map_stack": 1, "reduce_to_input": 1,
                    "verify": 8, "coprime_order_table": 2}
    assert run(capsys, "diff-golden")[0] == EXIT_OK
    assert calls == {name: 2 * count for name, count in once.items()}


def test_diff_golden_reads_the_golden_directory_of_each_call(tmp_path, monkeypatch, capsys):
    shutil.copytree(cli._GOLDEN_DIR, tmp_path, dirs_exist_ok=True)
    target = tmp_path / "orders_n21.csv"
    target.write_text(target.read_text(encoding="utf-8").replace("\n2,6,", "\n2,7,", 1), encoding="utf-8")
    real = cli._GOLDEN_DIR
    outcomes = []
    for directory in (real, tmp_path, real):
        monkeypatch.setattr(cli, "_GOLDEN_DIR", directory)
        code, out, _ = run(capsys, "diff-golden")
        outcomes.append((code, "orders N=21: FAIL" in out))
    assert outcomes == [(EXIT_OK, False), (EXIT_MISMATCH, True), (EXIT_OK, False)]


def test_diff_golden_refuses_a_golden_directory_that_lacks_a_registered_file(tmp_path, monkeypatch, capsys):
    shutil.copytree(cli._GOLDEN_DIR, tmp_path, dirs_exist_ok=True)
    (tmp_path / "rho_p3.csv").unlink()
    monkeypatch.setattr(cli, "_GOLDEN_DIR", tmp_path)
    code, out, err = run(capsys, "diff-golden")
    assert code == EXIT_USAGE
    assert cli._GOLDENS[-1][1].stem == "rho_p3"
    assert out.splitlines() == [f"{label}: ok" for label, _ in cli._GOLDENS[:-1]]
    assert err == "error: no bundled golden table rho_p3\n"


def test_circuit_cost_line(capsys):
    code, out, _ = run(capsys, "circuit", "cost", "--id", "f4_21")
    assert code == EXIT_OK
    assert out.strip() == "N_T=2 N_CN=12 qcost=24"


def test_circuit_verify_bundled(capsys):
    code, out, _ = run(capsys, "circuit", "verify", "--id", "f4_33_full")
    assert code == EXIT_OK
    assert "ok" in out


def test_circuit_verify_detects_mismatch(tmp_path, capsys):
    # a one-gate circuit cannot realize the two-gate table
    circ_doc = {
        "width": 4,
        "input_lines": [0, 1],
        "output_lines": [2, 3],
        "gates": [{"kind": "cnot", "controls": [{"line": 0, "neg": False}], "target": 2}],
    }
    table_doc = {"n_in": 2, "n_out": 2, "rows": [0, 1, 2, 3]}
    cpath = tmp_path / "c.json"
    tpath = tmp_path / "t.json"
    cpath.write_text(json.dumps(circ_doc))
    tpath.write_text(json.dumps(table_doc))
    code, out, _ = run(capsys, "circuit", "verify", "--file", str(cpath), "--table", str(tpath))
    assert code == EXIT_MISMATCH
    assert "mismatch" in out


def test_circuit_verify_lists_sixteen_mismatches_then_counts_the_rest(tmp_path, capsys):
    # no gates: the output line stays 0 on all 32 rows of an all-ones table
    circ_doc = {"width": 6, "input_lines": [0, 1, 2, 3, 4], "output_lines": [5], "gates": []}
    (tmp_path / "c.json").write_text(json.dumps(circ_doc))
    (tmp_path / "t.json").write_text(json.dumps({"n_in": 5, "n_out": 1, "rows": [1] * 32}))
    code, out, _ = run(capsys, "circuit", "verify", "--file", str(tmp_path / "c.json"), "--table", str(tmp_path / "t.json"))
    assert code == EXIT_MISMATCH
    lines = out.splitlines()
    assert len(lines) == 18 and all(line.startswith("mismatch at x=") for line in lines[:16])
    assert lines[16:] == ["... 16 more", "FAIL: 32 of 32 rows differ"]


@pytest.mark.parametrize("doc", ['{"n_in": 1, "rows": [0, 1]}', "[1, 2]"])
def test_circuit_verify_rejects_malformed_table(tmp_path, capsys, doc):
    tpath = tmp_path / "t.json"
    tpath.write_text(doc)
    code, _, err = run(capsys, "circuit", "verify", "--id", "f4_21_full", "--table", str(tpath))
    assert code == EXIT_USAGE
    assert err.startswith("error:")


@pytest.mark.parametrize("neg", ["false", "true", 0, 1, None])
def test_circuit_rejects_non_boolean_polarity(tmp_path, capsys, neg):
    circ_doc = {
        "width": 2,
        "input_lines": [0],
        "output_lines": [1],
        "gates": [{"kind": "cnot", "controls": [{"line": 0, "neg": neg}], "target": 1}],
    }
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(circ_doc))
    code, _, err = run(capsys, "circuit", "show", "--file", str(cpath))
    assert code == EXIT_USAGE
    assert "polarity" in err


@pytest.mark.parametrize(
    "path, value",
    [
        (("width",), 3.5),
        (("input_lines", 1), 1.0),
        (("output_lines", 0), "2"),
        (("gates", 0, "target"), "2"),
        (("gates", 0, "controls", 0, "line"), True),
    ],
)
def test_circuit_rejects_non_integer_numbers(tmp_path, capsys, path, value):
    circ_doc = {
        "width": 3,
        "input_lines": [0, 1],
        "output_lines": [2],
        "gates": [{"kind": "cnot", "controls": [{"line": 1, "neg": False}], "target": 2}],
    }
    node = circ_doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(circ_doc))
    code, _, err = run(capsys, "circuit", "show", "--file", str(cpath))
    assert code == EXIT_USAGE
    assert "integers" in err


_DEEP = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize("flag", ["--file", "--table"])
def test_circuit_refuses_deeply_nested_documents(tmp_path, capsys, flag):
    """json.loads raises RecursionError on this; the loaders refuse it as malformed."""
    deep = tmp_path / "deep.json"
    deep.write_text(_DEEP)
    source = ("--file", str(deep)) if flag == "--file" else ("--id", "f4_21_full", "--table", str(deep))
    code, out, err = run(capsys, "circuit", "verify", *source)
    assert code == EXIT_USAGE
    assert err.startswith("error: malformed") and err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize(
    "width, top",
    [
        pytest.param(10**20, 1, id=str(10**20)),
        pytest.param(2**62, 1, id=str(2**62)),
        # a gate target and the output register far above the input line: both
        # the width and the lines differ from a small document
        pytest.param(2**63, 2**62, id="2**63-line-2**62"),
        pytest.param(2**63, 10**9, id="2**63-line-10**9"),
        pytest.param(2**63, 2**31, id="2**63-line-2**31"),
    ],
)
def test_circuit_verify_allocates_by_the_lines_used_not_the_declared_width(tmp_path, capsys, width, top):
    circ_doc = {
        "width": width,
        "input_lines": [0],
        "output_lines": [top],
        "gates": [{"kind": "cnot", "controls": [{"line": 0, "neg": False}], "target": top}],
    }
    cpath, tpath = tmp_path / "c.json", tmp_path / "t.json"
    cpath.write_text(json.dumps(circ_doc))
    tpath.write_text('{"n_in": 1, "n_out": 1, "rows": [0, 1]}')
    start = time.perf_counter()
    code, out, _ = run(capsys, "circuit", "verify", "--file", str(cpath), "--table", str(tpath))
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_OK
    assert out.startswith("ok:")


def _node_paths(node, prefix=()):
    """The path to every node below the root, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _node_paths(child, prefix + (key,))


_FUZZ_DOCS = {
    "circuit": json.loads(circuit_to_json(LIBRARY["f4_21_full"].circuit)),
    "table": json.loads(LIBRARY["f4_21_full"].table.to_json()),
}
# one node of one document, or () for the whole document
_FUZZ_TARGETS = [(name, path) for name, doc in _FUZZ_DOCS.items() for path in ((), *_node_paths(doc))]
# JSON text, or "deep" for _DEEP, which is too long to print in a failure
# report. The large integers are lines and widths that a loader sizing a list
# by them could not allocate.
_HOSTILE_JSON = st.sampled_from(
    ["1.5", "true", '"2"', "null", "-1", str(2**31), str(10**9), str(2**62), str(2**64), "deep"]
)
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
).map(json.dumps)


@settings(max_examples=200)
@given(
    target=st.sampled_from(_FUZZ_TARGETS),
    value=_HOSTILE_JSON | _ANY_JSON,
    action=st.sampled_from(["show", "cost", "verify"]),
    with_table=st.booleans(),
)
@example(target=("circuit", ("width",)), value=str(2**62), action="verify", with_table=True)
@example(target=("table", ("n_in",)), value=str(2**62), action="verify", with_table=True)
@example(target=("circuit", ()), value="deep", action="show", with_table=False)
def test_circuit_commands_exit_cleanly_on_hostile_documents(target, value, action, with_table):
    """A valid circuit or table document with one node replaced, or a whole
    document replaced: every run exits 0, 1 or 2, and 2 with one error line."""
    name, path = target
    value = _DEEP if value == "deep" else value
    texts = {key: json.dumps(doc) for key, doc in _FUZZ_DOCS.items()}
    texts[name] = value
    if path:
        doc = node = copy.deepcopy(_FUZZ_DOCS[name])
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = "@hostile@"
        texts[name] = json.dumps(doc).replace('"@hostile@"', value)
    out, err = io.StringIO(), io.StringIO()
    # hypothesis refuses function-scoped fixtures such as tmp_path
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["circuit", action]
        for flag, key in (("--file", "circuit"), ("--table", "table")):
            if key == "circuit" or with_table:
                path_on_disk = os.path.join(tmp, f"{key}.json")
                with open(path_on_disk, "w", encoding="utf-8") as fh:
                    fh.write(texts[key])
                argv += [flag, path_on_disk]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = entrypoint(argv)
    assert code in (EXIT_OK, EXIT_MISMATCH, EXIT_USAGE)
    if code == EXIT_USAGE:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_circuit_unknown_id(capsys):
    code, _, err = run(capsys, "circuit", "show", "--id", "nope")
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--p", "3", "--shots", "5", "--seed", "-1"),
        ("factor", "--N", "15", "--seed", "-1"),
        ("simulate", "--p", "3", "--seed", "-1"),  # draws nothing without --shots
        ("factor", "--N", "15", "--a", "3", "--seed", "-1"),  # gcd(3, 15) factors 15 without a draw
    ],
    ids=["simulate", "factor", "simulate-no-shots", "factor-gcd"],
)
def test_negative_seed_is_refused_by_name(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert err == "error: seed must be a non-negative integer, got -1\n"
    assert out == ""


@pytest.mark.parametrize(
    "shots, message",
    [("0", "shots must be at least 1"), ("2000000", "shots must be at most 2**20, got 2000000")],
)
def test_factor_checks_shots_before_the_gcd_shortcut(capsys, shots, message):
    # gcd(3, 15) factors 15 without order finding, so no shot is drawn
    code, out, err = run(capsys, "factor", "--N", "15", "--a", "3", "--shots", shots)
    assert code == EXIT_USAGE
    assert err == f"error: {message}\n"
    assert out == ""


def test_synth_text_output_compares_to_library(capsys):
    code, out, _ = run(capsys, "synth", "--a", "4", "--N", "21", "--compile", "full")
    assert code == EXIT_OK
    assert "level=full" in out
    assert "library f4_21_full" in out


def test_synth_text_notes_the_f4_33_erratum(capsys):
    code, out, _ = run(capsys, "synth", "--a", "4", "--N", "33")
    assert code == EXIT_OK
    assert "note: bundled f4_33_full realizes a different table for this triple\n" in out


def test_synth_json_document(tmp_path, capsys):
    out_file = tmp_path / "circ.json"
    code, out, _ = run(
        capsys, "synth", "--a", "2", "--N", "15", "--compile", "full", "--out", str(out_file)
    )
    assert code == EXIT_OK
    doc = json.loads(out_file.read_text())
    assert doc["manifest"]["command"] == "synth"
    assert doc["table"]["rows"] == [0, 1, 2, 3]
    assert doc["cost"]["quantum_cost"] >= 1
    assert doc["comparison"]["library"] == "f2_15_full"


def test_synth_circuit_failing_its_own_verification_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(synth, "verify", lambda circ, table: [Mismatch(1, 1, 0, 1)])
    code, out, err = run(capsys, "synth", "--a", "4", "--N", "21", "--compile", "full")
    assert code == EXIT_SYNTHESIS
    assert "internal planning error" in err
    assert out == ""


def test_synth_refuses_n_in_with_full_compile(monkeypatch, capsys):
    monkeypatch.setattr(cli, "full_compile", _refuse)
    code, out, err = run(capsys, "synth", "--a", "4", "--N", "21", "--compile", "full", "--n-in", "5")
    assert code == EXIT_USAGE
    assert "--n-in does not apply to --compile full" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("synth", "--a", "4", "--N", "21", "--max-cost", "5"),
        ("synth", "--a", "4", "--N", "21", "--max-gates", "5"),
        ("simulate", "--p", "3", "--inverse-qft"),
        ("tables", "orders", "--N", "21", "--diff-golden"),
        ("tables", "allowed-periods", "--diff-golden"),
        ("tables", "probabilities", "--diff-golden"),
        ("tables", "separability", "--diff-golden"),
    ],
)
def test_deleted_options_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        entrypoint(list(argv))
    assert exc.value.code == EXIT_USAGE
    # each argv ends with its deleted option, then that option's value if it took one
    deleted = max(i for i, token in enumerate(argv) if token.startswith("--"))
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.endswith("unrecognized arguments: " + " ".join(argv[deleted:]))


def _leaf_parsers(parser, path=()):
    """Every parser that takes no further subcommand, as (subcommand path, parser)."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, path + (name,))


_LEAVES = list(_leaf_parsers(cli.build_parser()))
_EXTREMES = [
    sign * (2**e + d)
    for e in (4, 8, 10, 16, 20, 31, 32, 40, 62, 63, 64)
    for d in (-1, 0, 1)
    for sign in (1, -1)
]
_INT_ARGS = (st.integers(-3, 100) | st.sampled_from(_EXTREMES)).map(str)
_NUMBER_ARGS = _INT_ARGS | (st.floats() | st.sampled_from([math.nan, math.inf, -math.inf])).map(repr)


@st.composite
def _argvs(draw):
    """A subcommand path, then its positional and a draw of its options, each
    with a value of the option's type or a choice it lists; required options
    are always present."""
    path, parser = draw(st.sampled_from(_LEAVES))
    argv = list(path)
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue  # -h prints help and exits 0 before it reads the rest
        if action.choices is not None:
            value = st.sampled_from(list(action.choices))
        else:
            value = _INT_ARGS if action.type is int else _NUMBER_ARGS
        if not action.option_strings:
            argv.append(draw(value))
        elif action.required or draw(st.booleans()):
            argv.append(draw(st.sampled_from(action.option_strings)))
            if action.nargs != 0:
                argv.append(draw(value))
    return argv


# values a leaf may refuse: outside an option's type or choices, negative, or empty
_ROUGH_ARGS = st.sampled_from(["", "-1", "-7", "-0.5", "-inf", "x", "2.5", "1e3", "show", "json"])


@st.composite
def _rough_argvs(draw):
    """A subcommand path, then its options and positional in any order, each
    dropped (required ones too), given once, or repeated, and each value
    either well formed or drawn from ``_ROUGH_ARGS``."""
    path, parser = draw(st.sampled_from(_LEAVES))
    groups = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if action.choices is not None:
            value = st.sampled_from(list(action.choices))
        else:
            value = _INT_ARGS if action.type is int else _NUMBER_ARGS
        for _ in range(draw(st.integers(0, 2))):
            group = [draw(st.sampled_from(action.option_strings))] if action.option_strings else []
            if action.nargs != 0:
                group.append(draw(value | _ROUGH_ARGS))
            groups.append(group)
    return [*path, *(token for group in draw(st.permutations(groups)) for token in group)]


@settings(max_examples=300)
@given(argv=_argvs())
@example(argv=["simulate", "--p", "3", "--shots", str(2**64)])
@example(argv=["tables", "probabilities", "--m", "10", "--k", "10"])
@example(argv=["tables", "allowed-periods", "--max-N", str(2**64)])
def test_cli_exits_cleanly_on_drawn_arguments(argv):
    """Any argv the parser's own subcommands and options spell: every run exits
    0, 1 or 2, and 2 with one error line; argparse's usage errors are
    SystemExit(2). Exit 3, a synthesized circuit failing its own check, is a fault."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    # --out writes files; each run writes into a directory of its own
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = entrypoint(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
    assert code in (EXIT_OK, EXIT_MISMATCH, EXIT_USAGE), (argv, err.getvalue())
    if code == EXIT_USAGE:
        errors = [line for line in err.getvalue().splitlines() if "error:" in line]
        assert len(errors) == 1, (argv, err.getvalue())


def _parsed(parse, argv):
    """The values ``parse(argv)`` returns, in order, each as its repr, or the code
    it exits with, and what it prints. A repr tells 1 from 1.0 and matches nan to
    nan; the order is what a command that reads ``vars(args)`` writes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = [(name, repr(value)) for name, value in vars(parse(list(argv))).items()]
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=300)
@given(argv=_argvs() | _rough_argvs())
@example(argv=["factor", "--N", "15", "--a", "2", "--bogus", "1"])  # unknown option after a command
@example(argv=["circuit", "--id", "f4_21", "show"])  # the positional after an option
@example(argv=["circuit", "show", "show"])  # a second positional
@example(argv=["simulate", "--p", "3", "--rho", "5"])  # a value after a flag
@example(argv=["synth", "--a", "2", "--a", "4", "--N", "15"])  # a repeated option: the last one wins
@example(argv=["simulate", "--p", "3", "--epsilon", ""])
@example(argv=["simulate", "--p", "3", "--epsilon", "-inf"])  # argparse reads -inf as an option
@example(argv=["simulate", "--epsilon", "0.5"])  # a required option dropped
@example(argv=["circuit", "cost", "--id", "f4_21", "extra"])  # unread positional
@example(argv=["factor", "--", "--N", "15"])
@example(argv=["factor", "-h"])
@example(argv=["tables", "orders", "--help"])
@example(argv=["factor", "--N", "15", "--sh", "5"])  # abbreviated option
@example(argv=["factor", "--N=15"])
@example(argv=["factor", "--vers"])  # the whole parser's option after a command
@example(argv=["factor", "--N", "15", "--vers"])
@example(argv=["factor", "--N", "15", "--=x"])  # an ambiguous prefix of --help and --version
@example(argv=["factor", "--N", "x"])
@example(argv=["factor", "--N", "15", "--seed", "-1"])
@example(argv=["synth", "--a", "4", "--N", "21", "--compile", "bogus"])
@example(argv=["tables"])
@example(argv=["tables", "--format", "csv", "orders", "--N", "21"])
@example(argv=["tables", "bogus"])
@example(argv=[])
@example(argv=["bogus"])
@example(argv=["--version"])
@example(argv=["-h"])
def test_routed_parse_matches_the_whole_parser(argv):
    """``entrypoint``'s parse returns an equal Namespace, or exits with the same
    code, and prints the same bytes as ``build_parser().parse_args``."""
    assert _parsed(cli._parse, argv) == _parsed(cli.build_parser().parse_args, argv), argv


def test_synth_rejects_bad_base(capsys):
    code, _, err = run(capsys, "synth", "--a", "6", "--N", "15", "--compile", "full")
    assert code == EXIT_USAGE


def test_simulate_theoretical_only(capsys):
    code, out, _ = run(capsys, "simulate", "--p", "3", "--epsilon", "1", "--shots", "0")
    assert code == EXIT_OK
    assert "theoretical: 0.343750" in out
    assert "S_theory=0.238281" in out
    assert "empirical" not in out


def test_simulate_estimates_epsilon(capsys):
    code, out, _ = run(
        capsys, "simulate", "--p", "4", "--epsilon", "0.5",
        "--shots", "100000", "--seed", "7",
    )
    assert code == EXIT_OK
    line = next(ln for ln in out.splitlines() if ln.startswith("epsilon_estimate="))
    assert abs(float(line.split("=")[1]) - 0.5) < 0.05


def test_simulate_floor_case_has_no_estimate(capsys):
    code, out, _ = run(capsys, "simulate", "--p", "8", "--epsilon", "0.3", "--shots", "500")
    assert code == EXIT_OK
    assert "n/a" in out


def test_simulate_json_manifest_and_rho(capsys):
    code, out, _ = run(
        capsys, "simulate", "--p", "3", "--shots", "100", "--seed", "3",
        "--rho", "--format", "json",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["manifest"]["seed"] == 3
    assert len(doc["rho"]["entries"]) == 8
    assert doc["s_theory"] == pytest.approx(0.238281, abs=1e-6)


def test_simulate_deterministic_output(capsys):
    argv = ("simulate", "--p", "5", "--epsilon", "0.7", "--shots", "2000", "--seed", "9")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_factor_15(capsys):
    code, out, _ = run(capsys, "factor", "--N", "15", "--a", "2", "--shots", "64", "--seed", "11")
    assert code == EXIT_OK
    assert "factors: 3 5" in out


def test_factor_scan_without_base(capsys):
    code, out, _ = run(capsys, "factor", "--N", "21", "--shots", "200", "--seed", "5")
    assert code == EXIT_OK
    assert "factors: 3 7" in out


def test_factor_minus_one_branch(capsys):
    code, out, _ = run(capsys, "factor", "--N", "33", "--a", "4", "--shots", "200", "--seed", "3")
    assert code == EXIT_MISMATCH
    assert "minus-one-congruence" in out
    assert "no factors" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_factor_reports_an_order_not_recovered(capsys, fmt):
    code, out, _ = run(capsys, "factor", "--N", "15", "--a", "2", "--shots", "1", "--seed", "0", "--format", fmt)
    assert code == EXIT_MISMATCH
    if fmt == "text":
        assert out.splitlines() == [
            "a=2: shots=1 M=256 recovered_order=None status=order-not-recovered",
            "no factors recovered",
        ]
    else:
        doc = json.loads(out)
        assert doc["attempts"] == [{"a": 2, "recovered_order": None, "m": 8, "status": "order-not-recovered"}]
        assert doc["factors"] is None


def test_factor_rejects_prime_power(capsys):
    code, _, err = run(capsys, "factor", "--N", "27", "--shots", "10")
    assert code == EXIT_USAGE
    assert "prime power" in err


def test_factor_rejects_prime(capsys):
    code, _, err = run(capsys, "factor", "--N", "13", "--shots", "10")
    assert code == EXIT_USAGE
    assert err == "error: N=13 is prime\n"


def test_factor_rejects_even(capsys):
    code, _, err = run(capsys, "factor", "--N", "20", "--shots", "10")
    assert code == EXIT_USAGE


def test_factor_gcd_shortcut(capsys):
    code, out, _ = run(capsys, "factor", "--N", "15", "--a", "6", "--shots", "10")
    assert code == EXIT_OK
    assert "factors: 3 5" in out


@pytest.mark.parametrize("a", [-2, 0, 1, 15, 16, 17])
def test_factor_rejects_base_outside_range(capsys, a):
    code, out, err = run(capsys, "factor", "--N", "15", "--a", str(a), "--shots", "10")
    assert code == EXIT_USAGE
    assert "1 < a < N=15" in err
    assert out == ""


def test_factor_json_document(capsys):
    code, out, _ = run(
        capsys, "factor", "--N", "15", "--a", "2", "--shots", "64",
        "--seed", "11", "--format", "json",
    )
    assert code == EXIT_OK
    start = out.index("{")
    doc = json.loads(out[start:out.rindex("}") + 1])
    assert doc["factors"] == [3, 5]
    assert doc["attempts"][0]["recovered_order"] == 4
    assert doc["manifest"]["params"]["N"] == 15


@pytest.mark.parametrize(
    "argv, code, factors, n_attempts",
    [
        (("--N", "15", "--a", "2", "--shots", "64", "--seed", "11"), EXIT_OK, [3, 5], 1),
        (("--N", "33", "--a", "4", "--shots", "200", "--seed", "3"), EXIT_MISMATCH, None, 1),
        (("--N", "15", "--a", "6"), EXIT_OK, [3, 5], 0),  # gcd shortcut, no order finding
    ],
)
def test_factor_json_output_is_one_document(capsys, argv, code, factors, n_attempts):
    got, out, _ = run(capsys, "factor", *argv, "--format", "json")
    assert got == code
    doc = json.loads(out)
    assert doc["factors"] == factors
    assert len(doc["attempts"]) == n_attempts


@pytest.mark.parametrize(
    "argv, bound",
    [
        (("factor", "--N", str(2**61 - 1), "--a", "2"), "2**40"),  # prime: trial division
        (("synth", "--a", "2", "--N", "1000000007"), "2**20"),  # order walk
    ],
)
def test_numtheory_bounds_fail_fast_with_usage_exit(capsys, argv, bound):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE
    assert bound in err
    assert out == ""


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (("simulate", "--p", "3", "--m", "52", "--k", "4"), "register sizes 52+4 out of range"),
        (("tables", "probabilities", "--m", "52", "--k", "4"), "register sizes 52+4 out of range"),
        (("tables", "probabilities", "--m", "-1", "--k", "2"), "register sizes -1+2 out of range"),
    ],
    ids=("simulate", "probabilities", "probabilities-negative-m"),
)
def test_oversize_registers_exit_with_usage_before_allocating(capsys, argv, message):
    # 2**56 complex amplitudes would take 1 EiB; the sizes are refused first
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert message in err
    assert out == ""


@pytest.mark.parametrize("shots", [str(2**64), "-1"])
def test_simulate_and_factor_share_one_shot_rule(capsys, shots):
    errors = []
    for argv in (("simulate", "--p", "3"), ("factor", "--N", "15", "--a", "2")):
        code, out, err = run(capsys, *argv, "--shots", shots)
        assert code == EXIT_USAGE and out == ""
        errors.append(err)
    assert errors[0] == errors[1] and errors[0].startswith("error: shots must be")


@pytest.mark.parametrize(
    ("argv", "patched", "message"),
    [
        (("orders", "--N", "8193"), "coprime_order_table", "--N must be at most 8192, got 8193"),
        (("allowed-periods", "--max-N", "16385"), "factor_semiprime", "--max-N must be at most 16384, got 16385"),
        (("allowed-periods", "--max-N", str(2**64)), "factor_semiprime", f"at most 16384, got {2**64}"),
        # 1024 states of 2**20 amplitudes: 16 GiB
        (("probabilities", "--m", "10", "--k", "10"), "period_map_stack", "at most 262144, got 1073741824"),
        (("separability", "--m", "7", "--k", "7"), "period_map_stack", "at most 262144, got 2097152"),
    ],
    ids=("orders", "allowed-periods", "allowed-periods-huge", "probabilities", "separability"),
)
def test_tables_refuse_work_past_their_bound_before_the_first_row(monkeypatch, capsys, argv, patched, message):
    monkeypatch.setattr(cli, patched, _refuse)
    code, out, err = run(capsys, "tables", *argv)
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.endswith(f"{message}\n") and err.count("\n") == 1
    assert out == ""


def test_tables_refuse_too_many_amplitudes_before_building_a_state(capsys):
    # the 2**20-amplitude start state alone would be 16 MiB
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "tables", "probabilities", "--m", "10", "--k", "10")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_USAGE and out == ""
    assert err == "error: the amplitudes of min(2**m, 2**k) states of 2**(m+k) must be at most 262144, got 1073741824\n"
    assert peak < 1 << 20


def test_tables_accept_the_most_amplitudes_they_allow(capsys):
    # 64 periods of 2**12 amplitudes: 2**18 in all
    code, out, _ = run(capsys, "tables", "separability", "--m", "6", "--k", "6", "--format", "csv")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 1 + 64


def _peak_bytes(capsys, argv):
    tracemalloc.start()
    try:
        code = entrypoint(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == EXIT_OK
    return peak


def test_tables_text_keeps_no_second_copy_of_the_cells(capsys):
    # the text table pads the formatted cells as it joins each row, as the CSV
    # writer reads them: no second copy of the table is kept
    argv = ("tables", "probabilities", "--m", "12", "--k", "0", "--format")
    run(capsys, *argv, "text")  # one-time allocations count in neither peak
    text, csv_ = (_peak_bytes(capsys, (*argv, fmt)) for fmt in ("text", "csv"))
    assert text <= 1.1 * csv_


_CAP_MESSAGE = "synthesis supports at most 6 input and 6 output bits"


def _refuse(*_):
    raise AssertionError("built a table past the 6-bit cap")


def _refuse_rows(monkeypatch):
    # modexp computes each row a**(x mod r) mod N with the builtin pow
    monkeypatch.setattr(modexp, "pow", _refuse, raising=False)


@pytest.mark.parametrize("strategy", ["none", "log"])
def test_synth_refuses_a_wide_input_before_building_its_table(monkeypatch, capsys, strategy):
    _refuse_rows(monkeypatch)
    code, out, err = run(capsys, "synth", "--a", "2", "--N", "15", "--compile", strategy, "--n-in", "7")
    assert code == EXIT_USAGE
    assert _CAP_MESSAGE in err
    assert out == ""


def test_synth_refuses_a_wide_full_compile_quickly(monkeypatch, capsys):
    # the order of 2 mod 1048571 is 1048570: a 20-bit input register
    _refuse_rows(monkeypatch)
    start = time.perf_counter()
    code, out, err = run(capsys, "synth", "--a", "2", "--N", "1048571")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE
    assert _CAP_MESSAGE in err
    assert out == ""


def test_synth_refuses_a_nonpositive_input_width(capsys):
    code, out, err = run(capsys, "synth", "--a", "2", "--N", "15", "--compile", "none", "--n-in", "0")
    assert code == EXIT_USAGE
    assert err == "error: n_in must be positive\n"
    assert out == ""


@pytest.mark.parametrize("strategy", ["none", "full"])
def test_one_synth_op_computes_the_order_once(monkeypatch, capsys, strategy):
    calls = []

    def counted(a, n):
        calls.append((a, n))
        return numtheory.multiplicative_order(a, n)

    for module in (cli, modexp):
        if hasattr(module, "multiplicative_order"):
            monkeypatch.setattr(module, "multiplicative_order", counted)
    code, out, _ = run(capsys, "synth", "--a", "2", "--N", "21", "--compile", strategy)
    assert code == EXIT_OK
    assert out.startswith("f(x) = 2**x mod 21, r=6,")
    assert calls == [(2, 21)]


def test_simulate_clamp_warning_is_one_plain_line_on_every_call(capsys):
    argv = ("simulate", "--p", "7", "--m", "3", "--k", "3", "--epsilon", "0.7", "--shots", "300", "--seed", "2")
    for fmt in ("text", "json"):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == EXIT_OK
        assert out
        assert err.startswith("warning: observed S=")
        assert err.endswith(", clamping\n")
        assert err.count("\n") == 1
        assert "UserWarning" not in err and ".py:" not in err


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# Checksums as released; each must also follow from the printed document.
_PINNED_CHECKSUMS = [
    (
        ("synth", "--a", "7", "--N", "15"),
        "circuit",
        "14cd866741b1e7f3a4f1b437ff88e63325faf47368302e3057f5cc9528c5f1c5",
        lambda doc: circuit_to_json(circuit_from_json(json.dumps(doc["circuit"]))),
    ),
    (
        ("simulate", "--p", "3", "--shots", "256", "--seed", "1", "--rho"),
        "payload",
        "132ef6abbae014f9670f22c0690a1de298f77723a7b433decc526f5b9c8ffe8e",
        lambda doc: json.dumps({k: v for k, v in doc.items() if k != "manifest"}, sort_keys=True),
    ),
    (
        ("factor", "--N", "15", "--a", "2", "--seed", "1"),
        "payload",
        "82d5e14140682d11665a67c858bdecc5a51b780a1e5763d4f7eb8d3ad09f0290",
        lambda doc: json.dumps(doc["attempts"], sort_keys=True),
    ),
]


@pytest.mark.parametrize("argv, name, digest, hashed", _PINNED_CHECKSUMS)
def test_manifest_checksums_are_pinned(capsys, argv, name, digest, hashed):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["manifest"]["checksums"] == {name: digest}
    assert _sha256(hashed(doc)) == digest


_JSON_CALLS = [
    ("tables", "orders", "--N", "21"),
    ("tables", "allowed-periods"),
    ("tables", "probabilities"),
    ("tables", "separability"),
    ("synth", "--a", "7", "--N", "15"),
    ("simulate", "--p", "3"),
    ("simulate", "--p", "3", "--epsilon", "0.8", "--shots", "256", "--seed", "1", "--rho"),
    ("simulate", "--m", "5", "--k", "4", "--p", "7", "--epsilon", "0.5", "--shots", "1000", "--rho"),
    ("factor", "--N", "15", "--a", "2", "--shots", "64", "--seed", "11"),
    ("factor", "--N", "33", "--a", "4", "--shots", "200", "--seed", "3"),  # minus-one failure
    ("factor", "--N", "15", "--a", "6"),  # gcd shortcut
]


def _assert_one_json_line(text):
    assert text.endswith("\n")
    assert text.count("\n") == 1
    assert "manifest" in json.loads(text)


@pytest.mark.parametrize("argv", _JSON_CALLS)
def test_json_output_is_one_compact_line(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code in (EXIT_OK, EXIT_MISMATCH)
    _assert_one_json_line(out)
    # every member, hand-joined or written from an array, is what json.dumps writes
    assert out == json.dumps(json.loads(out)) + "\n"


def test_json_files_are_one_compact_line(tmp_path, capsys):
    synth_file = tmp_path / "circ.json"
    assert run(capsys, "synth", "--a", "7", "--N", "15", "--out", str(synth_file))[0] == EXIT_OK
    _assert_one_json_line(synth_file.read_text(encoding="utf-8"))
    assert run(capsys, "tables", "separability", "--out", str(tmp_path))[0] == EXIT_OK
    _assert_one_json_line((tmp_path / "separability_m3k3.json").read_text(encoding="utf-8"))


def _shortest_argv(path, leaf):
    """The subcommand path plus each positional's first choice and each required option."""
    argv = list(path)
    for action in leaf._actions:
        if not action.option_strings:
            argv.append(next(iter(action.choices)))
        elif action.required:
            argv += [action.option_strings[0], "1"]
    return argv


def test_build_parser_returns_one_parser(monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    # entrypoint reads each command's options off its leaf parser's option
    # table without running argparse, falls back to the root parser for
    # anything else, and no call builds a parser
    parsed_by = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def spy(self, *args, **kwargs):
        parsed_by.append(self)
        return parse_known_args(self, *args, **kwargs)

    def refuse(*_, **__):
        raise AssertionError("built a parser")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    for path, leaf in _LEAVES:
        entrypoint(_shortest_argv(path, leaf))
        assert parsed_by == [], path
    with pytest.raises(SystemExit):
        entrypoint(["factor", "--N", "15", "--a", "2", "--bogus", "1"])
    assert parsed_by and parsed_by[0] is cli.build_parser()


# One call per subcommand, each printing to stdout; _REJECTED is one that
# argparse refuses after reading part of it.
_CALLS = (
    ("tables", "orders", "--N", "21"),
    ("tables", "probabilities"),
    ("synth", "--a", "4", "--N", "21"),
    ("simulate", "--p", "3", "--shots", "100", "--seed", "3", "--rho", "--format", "json"),
    ("factor", "--N", "15", "--a", "2", "--shots", "64", "--seed", "11", "--format", "json"),
    ("circuit", "cost", "--id", "f4_21"),
    ("diff-golden",),
)
_REJECTED = ("tables", "separability", "--m", "4", "--k")


def test_entrypoint_calls_do_not_leak_into_each_other(capsys):
    # Every rotation of the sequence runs in this one process, with the
    # rejected call after its second call, so that each call runs once at
    # every position; each result must equal the one it gave when first.
    results = {argv: {} for argv in _CALLS}
    for start in range(len(_CALLS)):
        for pos, argv in enumerate(_CALLS[start:] + _CALLS[:start]):
            results[argv][pos] = run(capsys, *argv)[:2]
            if pos == 1:
                with pytest.raises(SystemExit) as exc:
                    entrypoint(list(_REJECTED))
                assert exc.value.code == EXIT_USAGE
                capsys.readouterr()
    for argv, by_pos in results.items():
        code, out = by_pos[0]
        assert code == EXIT_OK and out, argv
        for pos, got in by_pos.items():
            assert got == (code, out), (argv, pos)


def _dense_path_calls():
    for m, k in ((3, 3), (4, 2), (2, 5), (5, 5)):
        for kind in ("probabilities", "separability"):
            for fmt in ("csv", "json", "text"):
                yield ("tables", kind, "--m", str(m), "--k", str(k), "--format", fmt)
    for p in range(1, 9):
        for fmt in ("text", "json"):
            yield ("simulate", "--p", str(p), "--epsilon", "0.7", "--shots", "500", "--seed", "3",
                   "--rho", "--format", fmt)
    yield ("diff-golden",)
    for e in LIBRARY.values():
        yield ("synth", "--a", str(e.base), "--N", str(e.modulus), "--compile", e.strategy, "--format", "json")


# sha256 over (argv, exit code, stdout, stderr) of every _dense_path_calls
# call: the statevector path behind tables, simulate and diff-golden, and the
# synth JSON document. Like PINNED_FACTOR_OUTPUTS in test_qsim, it must not change.
PINNED_DENSE_PATH_OUTPUTS = "a1ce882fefa89d7405be4c404fc4be8fbd4778c0973f0d7ad59179e195fedf22"


def test_dense_path_outputs_are_pinned(capsys):
    digest = hashlib.sha256()
    calls = 0
    for argv in _dense_path_calls():
        code, out, err = run(capsys, *argv)
        digest.update(f"{' '.join(argv)}\n{code}\n{out}\n{err}\n".encode())
        calls += 1
    assert calls == 24 + 16 + 1 + 8
    assert digest.hexdigest() == PINNED_DENSE_PATH_OUTPUTS


_TABLE_KINDS = (
    ("orders", "--N", "21"),
    ("allowed-periods",),
    ("probabilities", "--m", "3", "--k", "2"),
    ("separability",),
)

# A one-gate circuit and a two-gate table that it does not realize; see
# test_circuit_verify_detects_mismatch.
_CIRCUIT_INPUTS = {
    "c.json": {
        "width": 4,
        "input_lines": [0, 1],
        "output_lines": [2, 3],
        "gates": [{"kind": "cnot", "controls": [{"line": 0, "neg": False}], "target": 2}],
    },
    "t.json": {"n_in": 2, "n_out": 2, "rows": [0, 1, 2, 3]},
}


def _every_command_calls():
    """One call per command x format x ``--out`` combination; ``<tmp>`` is a scratch directory."""
    for kind in _TABLE_KINDS:
        for fmt in ("text", "csv", "json"):
            yield ("tables", *kind, "--format", fmt)
            yield ("tables", *kind, "--format", fmt, "--out", "<tmp>/out")
    yield ("tables", "orders", "--N", "16")
    for a, n, extra in (("7", "15", ()), ("4", "21", ()), ("4", "21", ("--compile", "log")),
                        ("32", "69", ("--no-negative-controls",))):
        for fmt in ("text", "json"):
            yield ("synth", "--a", a, "--N", n, *extra, "--format", fmt)
            yield ("synth", "--a", a, "--N", n, *extra, "--format", fmt, "--out", "<tmp>/out/s.json")
    yield ("synth", "--a", "7", "--N", "15", "--out", "<tmp>/missing/s.json")
    for argv in (("--p", "3"), ("--p", "3", "--epsilon", "0.8", "--shots", "256", "--seed", "1", "--rho"),
                 ("--p", "8", "--epsilon", "0.3", "--shots", "500"), ("--p", "1", "--shots", "64"),
                 ("--p", "7", "--epsilon", "0.7", "--shots", "300", "--seed", "2")):
        for fmt in ("text", "json"):
            yield ("simulate", *argv, "--format", fmt)
    for argv in (("--N", "15", "--a", "6"), ("--N", "15", "--a", "2", "--seed", "1"), ("--N", "15"),
                 ("--N", "33", "--shots", "8", "--seed", "1"), ("--N", "33", "--a", "4", "--shots", "200", "--seed", "3"),
                 ("--N", "91"), ("--N", "91", "--a", "2", "--shots", "10")):
        for fmt in ("text", "json"):
            yield ("factor", *argv, "--format", fmt)
    for action in ("show", "verify", "cost"):
        yield ("circuit", action, "--id", "f4_21")
        yield ("circuit", action, "--id", "f4_33_full")
        yield ("circuit", action, "--file", "<tmp>/in/c.json", "--table", "<tmp>/in/t.json")
    yield ("circuit", "verify", "--file", "<tmp>/in/c.json")


# sha256 over (argv, exit code, stdout, stderr, and the name and bytes of each
# file written under <tmp>/out) of every _every_command_calls call, with the
# scratch directory written as <tmp>. Recorded before the commands shared one
# document writer; it must not change. It was re-recorded once, when order
# finding left the 20-qubit bound on m + k: the four `factor --N 91` calls
# now factor N, and every other call kept its bytes.
PINNED_EVERY_COMMAND_OUTPUT = "abba27b4f8d39f1ff76145a59b608de35a818bddc9cfc08a9994d07e7f8bbadd"


def test_every_command_output_is_pinned(capsys):
    digest = hashlib.sha256()
    calls = 0
    with tempfile.TemporaryDirectory() as tmp:
        os.mkdir(os.path.join(tmp, "in"))
        for name, doc in _CIRCUIT_INPUTS.items():
            with open(os.path.join(tmp, "in", name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        out_dir = os.path.join(tmp, "out")
        for argv in _every_command_calls():
            os.mkdir(out_dir)
            code, out, err = run(capsys, *(a.replace("<tmp>", tmp) for a in argv))
            out, err = out.replace(tmp, "<tmp>"), err.replace(tmp, "<tmp>")
            digest.update(f"{' '.join(argv)}\n{code}\n{out}\n{err}\n".encode())
            for name in sorted(os.listdir(out_dir)):
                with open(os.path.join(out_dir, name), "rb") as fh:
                    digest.update(f"{name}\n".encode() + fh.read() + b"\n")
            shutil.rmtree(out_dir)
            calls += 1
    assert calls == 24 + 1 + 16 + 1 + 10 + 14 + 9 + 1
    assert digest.hexdigest() == PINNED_EVERY_COMMAND_OUTPUT


def _simulate_encoding_calls():
    for p in range(1, 9):
        for shots in ("0", "256"):
            for rho in ((), ("--rho",)):
                yield ("simulate", "--p", str(p), "--epsilon", "1.0", "--shots", shots, "--seed", "4", *rho)


# separability at the 1/2**m floor, so epsilon_estimate is null
_FLOOR_CALL = ("simulate", "--p", "8", "--epsilon", "0.3", "--shots", "500", "--rho")


@pytest.mark.parametrize("argv", [*_simulate_encoding_calls(), _FLOOR_CALL])
def test_simulate_checksum_hashes_the_printed_encoding(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert out == json.dumps(doc) + "\n"
    payload = {k: v for k, v in doc.items() if k != "manifest"}
    assert doc["manifest"]["checksums"] == {"payload": _sha256(json.dumps(payload, sort_keys=True))}
    if argv == _FLOOR_CALL:
        assert doc["epsilon_estimate"] is None


@pytest.mark.parametrize("a, n, compared", [(4, 21, True), (7, 15, False)])
def test_synth_checksum_hashes_the_printed_circuit(tmp_path, capsys, a, n, compared):
    argv = ("synth", "--a", str(a), "--N", str(n))
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert out == json.dumps(doc) + "\n"
    assert ("comparison" in doc) == compared
    circuit = circuit_from_json(json.dumps(doc["circuit"]))
    assert doc["manifest"]["checksums"] == {"circuit": _sha256(circuit_to_json(circuit))}
    out_file = tmp_path / "synth.json"
    assert run(capsys, *argv, "--out", str(out_file))[0] == EXIT_OK
    assert out_file.read_text(encoding="utf-8") == out


class _Reached(Exception):
    pass


def _reached(*_):
    raise _Reached


def test_simulate_rho_refuses_a_wide_input_register_before_building_the_state(monkeypatch, capsys):
    # a 2**20 x 2**20 complex matrix would take 16 TiB
    monkeypatch.setattr(cli, "uniform_input_state", _reached)
    monkeypatch.setattr(cli, "reduce_to_input", _reached)
    code, out, err = run(capsys, "simulate", "--m", "20", "--k", "0", "--p", "1", "--rho")
    assert code == EXIT_USAGE
    assert err == "error: --rho supports at most m=10 input qubits, got m=20\n"
    assert out == ""


def test_simulate_rho_accepts_the_widest_input_register(monkeypatch):
    monkeypatch.setattr(cli, "reduce_to_input", _reached)
    with pytest.raises(_Reached):
        entrypoint(["simulate", "--m", "10", "--k", "0", "--p", "1", "--rho"])
