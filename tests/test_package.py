"""The package's public surface."""

import hashlib
from pathlib import Path

import shorcompile


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
