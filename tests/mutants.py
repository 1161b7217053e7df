"""Sampled mutation testing of ``src/``, run by hand: ``python tests/mutants.py --seed S --count N``.

A mutant changes one site of one module under ``src/shorcompile``: one
comparison operator swapped, one arithmetic or bitwise operator swapped,
``and``/``or`` swapped, or one int constant plus 1. Annotations and f-strings
are left alone. Each mutant is written into a temporary copy of the checkout,
never into ``src/``, and ``pytest -x -q`` runs there, one process at a time,
with ``PYTHONPATH`` on the copy's ``src``. A failing run kills the mutant, and
so does a run past ``TIMEOUT_S`` seconds: a hang is noticed. Each survivor is
printed with its file, line, and source before and after.
"""

import argparse
import ast
import itertools
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 180.0  # a run past this counts as a hang, so the mutant is killed
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult, ast.Div: ast.Mult,
    ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr, ast.And: ast.Or, ast.Or: ast.And,
}


def _nodes(node):
    """``node`` and its descendants in a fixed order, skipping annotations and f-strings."""
    yield node
    for name, value in ast.iter_fields(node):
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST) and name not in ("annotation", "returns") and not isinstance(child, ast.JoinedStr):
                yield from _nodes(child)


def _sites(node):
    """The mutants ``node`` gives: the index of each swappable operator, or [0] for one site."""
    if isinstance(node, ast.Compare):
        return [i for i, op in enumerate(node.ops) if type(op) in SWAPS]
    if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
        return [0] if type(node.op) in SWAPS else []
    return [0] if isinstance(node, ast.Constant) and type(node.value) is int else []


def _mutate(node, i):
    if isinstance(node, ast.Compare):
        node.ops[i] = SWAPS[type(node.ops[i])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = SWAPS[type(node.op)]()


def _killed(copy: Path) -> bool:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}  # no stale .pyc
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    proc = subprocess.Popen(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        return proc.wait(TIMEOUT_S) != 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # pytest and any process it started
        proc.wait()
        return True


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    args = parser.parse_args()
    files = sorted((ROOT / "src").rglob("*.py"))
    sites = [(path, n, i) for path in files for n, node in enumerate(_nodes(ast.parse(path.read_text()))) for i in _sites(node)]
    sample = random.Random(args.seed).sample(sites, min(args.count, len(sites)))
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        if _killed(copy):
            sys.exit("the unmutated checkout fails its tests: no mutant can be scored")
        for path, n, i in sample:
            text = path.read_text()
            tree = ast.parse(text)
            node = next(itertools.islice(_nodes(tree), n, None))
            before = ast.unparse(node)
            _mutate(node, i)
            target = copy / path.relative_to(ROOT)
            target.write_text(ast.unparse(tree) + "\n")
            try:
                if not _killed(copy):
                    survivors += 1
                    line = text.splitlines()[node.lineno - 1].strip()
                    print(f"{path.relative_to(ROOT)}:{node.lineno}: {line}\n    {before}  ->  {ast.unparse(node)}", flush=True)
            finally:
                target.write_text(text)
    print(f"seed {args.seed}: {len(sample) - survivors} of {len(sample)} killed, {survivors} survived, "
          f"from {len(sites)} sites")


if __name__ == "__main__":
    main()
