"""Checks on the benchmark itself: the oracle rejects wrong outputs, inputs
repeat per seed, the deterministic metrics repeat exactly, and the reference
loop that gauges host speed leaves the garbage collector as it found it.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from shorcompile import circuit_to_json, cli, library_entry, synthesize  # noqa: E402
from shorcompile.modexp import TruthTable  # noqa: E402

PROGRAM = SimpleNamespace(cli=cli)


def _library_case(name: str):
    entry = library_entry(name)
    return json.loads(circuit_to_json(entry.circuit)), entry.table


@pytest.mark.parametrize("name", ["f2_15", "f4_21", "f4_21_full"])
def test_oracle_accepts_library_circuits(name):
    doc, table = _library_case(name)
    oracle.check_circuit(doc, table.n_in, table.n_out, list(table.rows))


@pytest.mark.parametrize("name", ["f2_15", "f4_21", "f4_21_full"])
def test_oracle_rejects_circuit_with_one_gate_dropped(name):
    doc, table = _library_case(name)
    for i in range(len(doc["gates"])):
        broken = dict(doc, gates=doc["gates"][:i] + doc["gates"][i + 1:])
        with pytest.raises(oracle.OracleError):
            oracle.check_circuit(broken, table.n_in, table.n_out, list(table.rows))


def test_oracle_rejects_synthesized_circuit_with_one_gate_dropped():
    rows = (5, 1, 6, 2, 7, 5, 1, 6)
    doc = json.loads(circuit_to_json(synthesize(TruthTable(3, 3, rows))))
    oracle.check_circuit(doc, 3, 3, list(rows))
    broken = dict(doc, gates=doc["gates"][1:])
    with pytest.raises(oracle.OracleError):
        oracle.check_circuit(broken, 3, 3, list(rows))


def test_oracle_rejects_input_clobbering():
    doc = {"width": 2, "input_lines": [0], "output_lines": [1],
           "gates": [{"kind": "cnot", "controls": [{"line": 0, "neg": False}], "target": 1},
                     {"kind": "not", "controls": [], "target": 0},
                     {"kind": "not", "controls": [], "target": 0},
                     {"kind": "cnot", "controls": [{"line": 1, "neg": False}], "target": 0}]}
    with pytest.raises(oracle.OracleError):
        oracle.check_circuit(doc, 1, 1, [0, 1])


def test_oracle_accepts_and_rejects_orders():
    res = workloads.run_op(workloads.Op("factor", (21, 2, 3)), PROGRAM)
    doc, rc = oracle.json_document(res.stdout), res.rc
    assert oracle.check_factor(doc, rc, 21, 2) == "factors"
    for wrong in (3, 12, None):
        bad = json.loads(json.dumps(doc))
        bad["attempts"][0]["recovered_order"] = wrong
        with pytest.raises(oracle.OracleError):
            oracle.check_factor(bad, rc, 21, 2)
    bad = json.loads(json.dumps(doc))
    bad["attempts"][0]["factors"] = bad["factors"] = [1, 21]
    with pytest.raises(oracle.OracleError):
        oracle.check_factor(bad, rc, 21, 2)


def test_oracle_rejects_non_periodic_table():
    table = {"n_in": 2, "n_out": 2, "rows": [0, 1, 2, 3]}  # 4**x mod 21 has order 3
    with pytest.raises(oracle.OracleError):
        oracle.check_modexp_table(table, 4, 21)
    oracle.check_modexp_table({"n_in": 2, "n_out": 2, "rows": [0, 1, 2, 0]}, 4, 21)


def test_oracle_checks_simulate_output():
    op = workloads.Op("simulate", (3, 0.5, 1024, 7))
    res = workloads.run_op(op, PROGRAM)
    doc = oracle.json_document(res.stdout)
    oracle.check_simulate(doc, 3, 3, 0.5, 1024)
    doc["theoretical"][0] += 1e-6
    with pytest.raises(oracle.OracleError):
        oracle.check_simulate(doc, 3, 3, 0.5, 1024)


def test_inputs_repeat_per_seed_and_factor_pairs_are_distinct():
    for name in workloads.WORKLOADS:
        assert workloads.build_ops(name, 4, 3) == workloads.build_ops(name, 4, 3)
        assert workloads.build_ops(name, 4, 3) != workloads.build_ops(name, 5, 3)
    full = workloads.build_ops("factor_scan", 1, 1000)
    assert len({op.params[:2] for op in full}) == len(full) == 455


def test_reference_loop_restores_the_collector():
    assert gc.isenabled()
    hostspeed.loop_s(100)
    assert gc.isenabled()
    gc.disable()
    try:
        hostspeed.loop_s(100)
        assert not gc.isenabled()
    finally:
        gc.enable()


def _summary(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    out = {ln.split()[0]: ln.split()[1] for ln in lines[:-1] if ln.startswith("  ")}
    out["attempted"] = json.loads(lines[-1])["attempted"]
    return out


@pytest.mark.parametrize("workload", ["synth_sweep", "factor_scan"])
def test_deterministic_metrics_repeat_exactly(workload):
    first, second = _summary(workload, 11), _summary(workload, 11)
    for key in ("attempted", "fail_share", "qcost_total", "factored_share", "delivered_share"):
        assert first[key] == second[key], key


def test_exits_nonzero_without_the_program():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
