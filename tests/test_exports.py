"""The package's public names."""

import lscat


def test_all_names_resolve_once():
    assert len(set(lscat.__all__)) == len(lscat.__all__)
    for name in lscat.__all__:
        assert hasattr(lscat, name), name
