import importlib
from pathlib import Path

import enrlat
from enrlat._store import Store

from conftest import STORES


def test_store_drops_the_oldest_key_and_counts_lookups():
    store = Store(3)
    for k in "abc":
        assert store.keep(k, k.upper()) == k.upper()
    # a key kept again holds its place; a new key drops the oldest
    store.keep("a", "A2")
    store.keep("d", "D")
    assert list(store.items()) == [("b", "B"), ("c", "C"), ("d", "D")]
    assert [store.lookup(k) for k in "abd"] == [None, "B", "D"]
    assert (store.hits, store.misses) == (2, 1)
    assert store.get("a") is None and (store.hits, store.misses) == (2, 1)


def test_fixture_covers_every_store_of_the_package():
    found = set()
    for path in Path(enrlat.__file__).parent.glob("*.py"):
        if path.stem.startswith("__"):
            continue
        mod = importlib.import_module("enrlat." + path.stem)
        found |= {(mod, name) for name, obj in vars(mod).items() if isinstance(obj, Store)}
    assert found == set(STORES)
