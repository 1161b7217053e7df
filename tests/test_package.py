"""The package's public surface."""

import shorcompile


def test_every_exported_name_resolves_once():
    names = shorcompile.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(shorcompile, name)]
    assert missing == []
