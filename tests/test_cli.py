"""CLI surface: formats, manifests, exit codes, golden diffing."""

import csv
import hashlib
import json
import shutil
import time

import pytest

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


def test_tables_diff_golden_all_kinds(capsys):
    for argv in (
        ("tables", "orders", "--N", "21", "--diff-golden"),
        ("tables", "orders", "--N", "33", "--diff-golden"),
        ("tables", "allowed-periods", "--diff-golden"),
        ("tables", "probabilities", "--diff-golden"),
        ("tables", "separability", "--diff-golden"),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK, argv
        assert "ok" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("orders", "--N", "15"),
        ("probabilities", "--m", "2"),
        ("separability", "--k", "4"),
        ("allowed-periods", "--max-N", "50"),
    ],
    ids=lambda argv: argv[0],
)
def test_tables_diff_golden_rejects_uncovered_params(capsys, argv):
    code, _, err = run(capsys, "tables", *argv, "--diff-golden")
    assert code == EXIT_USAGE
    assert "golden" in err


def test_diff_golden_runs_every_check(capsys):
    code, out, _ = run(capsys, "diff-golden")
    assert code == EXIT_OK
    for label in ("orders N=21", "orders N=33", "allowed periods",
                  "probabilities", "separability", "reduced density", "figure circuits"):
        assert f"{label}" in out
    assert "FAIL" not in out


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
    rows = list(csv.reader(target.read_text(encoding="utf-8").splitlines()))
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
        ("uniform_input_state", "apply_period_map", "reduce_to_input", "verify", "coprime_order_table"), 0
    )
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(cli, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(cli, name, counted)
    assert run(capsys, "diff-golden")[0] == EXIT_OK
    once = dict(calls)
    # the eight m=3 periods are mapped once, and the p=3 density reuses its state
    assert once == {"uniform_input_state": 1, "apply_period_map": 8, "reduce_to_input": 1,
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


def test_circuit_unknown_id(capsys):
    code, _, err = run(capsys, "circuit", "show", "--id", "nope")
    assert code == EXIT_USAGE


def test_synth_text_output_compares_to_library(capsys):
    code, out, _ = run(capsys, "synth", "--a", "4", "--N", "21", "--compile", "full")
    assert code == EXIT_OK
    assert "level=full" in out
    assert "library f4_21_full" in out


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
    ],
)
def test_deleted_options_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        entrypoint(list(argv))
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


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


def test_factor_rejects_prime_power(capsys):
    code, _, err = run(capsys, "factor", "--N", "27", "--shots", "10")
    assert code == EXIT_USAGE
    assert "prime power" in err


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


def test_json_files_are_one_compact_line(tmp_path, capsys):
    synth_file = tmp_path / "circ.json"
    assert run(capsys, "synth", "--a", "7", "--N", "15", "--out", str(synth_file))[0] == EXIT_OK
    _assert_one_json_line(synth_file.read_text(encoding="utf-8"))
    assert run(capsys, "tables", "separability", "--out", str(tmp_path))[0] == EXIT_OK
    _assert_one_json_line((tmp_path / "separability_m3k3.json").read_text(encoding="utf-8"))


def test_build_parser_returns_one_parser():
    assert cli.build_parser() is cli.build_parser()


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
