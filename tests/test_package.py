"""The package's export list."""

import swarmtrack


def test_all_is_sorted_unique_and_resolves():
    names = swarmtrack.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(swarmtrack, name), name
