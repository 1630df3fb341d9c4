"""The package namespace."""

import spinelab


def test_every_exported_name_resolves():
    missing = [name for name in spinelab.__all__ if not hasattr(spinelab, name)]
    assert not missing
