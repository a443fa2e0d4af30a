"""The public surface of the package."""

import pvilab


def test_all_names_resolve_without_duplicates():
    assert len(pvilab.__all__) == len(set(pvilab.__all__))
    missing = [name for name in pvilab.__all__ if not hasattr(pvilab, name)]
    assert missing == []
