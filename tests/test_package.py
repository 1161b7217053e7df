"""The package's public surface."""

import copy
import dataclasses
import hashlib
import pickle
from pathlib import Path

import numpy as np
import pytest

import shorcompile
from shorcompile import (
    Circuit,
    DensityMatrix,
    NoiseParams,
    ProbDist,
    Semiprime,
    StateVector,
    TruthTable,
    cnot,
)


def test_every_exported_name_resolves_once():
    names = shorcompile.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(shorcompile, name)]
    assert missing == []


def test_exported_names_are_pinned():
    """The 65 public names, a digest over them sorted; re-record it only on a deliberate API change."""
    names = sorted(shorcompile.__all__)
    assert len(names) == 65
    digest = hashlib.sha256("\n".join(names).encode()).hexdigest()
    assert digest == "462444a244456b15b8b44a799d50bfc118991ce7154c17119e038fc11ac02b16"


def _readme_python_block() -> str:
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## Python API in one minute", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_python_block_runs_and_gives_its_commented_values():
    ns: dict = {}
    exec(_readme_python_block(), ns)
    assert ns["job"].table.rows == (0, 1, 2, 0)
    assert ns["cost"](ns["circ"]).quantum_cost == 12
    s = ns["separability_index"](ns["input_probabilities"](ns["state"]))
    assert str(s).startswith("0.2382")
    assert ns["shor_postprocess"](15, 2, ns["run"].recovered_order).factors == (3, 5)


def test_the_only_exported_dataclasses_are_gate_and_control():
    """Every other record is a named tuple, which costs no code generation at import."""
    exported = {name for name in shorcompile.__all__ if dataclasses.is_dataclass(getattr(shorcompile, name))}
    assert exported == {"Control", "Gate"}


# One valid record of each checked type, a field edit its constructor refuses, and the refusal.
_CHECKED = [
    (Circuit(2, (0,), (1,), (cnot(0, 1),)), {"width": -5}, "register line out of range"),
    (TruthTable(1, 1, (0, 1)), {"n_out": 0}, "register widths must be positive"),
    (Semiprime(15, 3, 5), {"q": 7}, "3 * 7 != 15"),
    (StateVector(1, 1, np.full(4, 0.5, dtype=np.complex128)), {"k": 2}, "amplitude array length must be 2**(m+k)"),
    (DensityMatrix(2, np.eye(2) / 2), {"dim": 3}, "entry matrix shape must be (dim, dim)"),
    (ProbDist(np.array([0.25, 0.75])), {"probabilities": np.array([0.5, 0.6])}, "probabilities must sum to 1"),
    (NoiseParams(0.5), {"epsilon": 1.5}, "epsilon must lie in [0, 1]"),
]


def _same(a, b) -> bool:
    """Equal type and fields, an array field compared by value."""
    return type(a) is type(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in zip(a, b, strict=True)
    )


@pytest.mark.parametrize("record, edit, message", _CHECKED, ids=[type(r).__name__ for r, _, _ in _CHECKED])
def test_checked_records_validate_replace_and_round_trip(record, edit, message):
    """_replace builds through the constructor, so it refuses what the constructor refuses."""
    for build in (lambda: type(record)(**{**record._asdict(), **edit}), lambda: record._replace(**edit)):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message
    assert _same(record._replace(), record)
    assert _same(pickle.loads(pickle.dumps(record)), record)
    assert _same(copy.copy(record), record)
