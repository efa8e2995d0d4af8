"""The package's public names."""

import orbiform


def test_public_names_are_sorted_unique_and_resolve():
    names = orbiform.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(orbiform, n)] == []
