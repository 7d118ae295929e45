"""The package's export list names each public object exactly once."""

import onebitcs


def test_all_names_resolve_once():
    names = onebitcs.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(onebitcs, name)]
    assert not missing


def test_star_import():
    namespace: dict = {}
    exec("from onebitcs import *", namespace)
    assert set(onebitcs.__all__) <= set(namespace)
