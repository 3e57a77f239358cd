"""Shared fixtures."""

import importlib
from pathlib import Path

import pytest

import enrlat
from enrlat import _store


def package_stores():
    """Every bounded store of the package, as (module, attribute), found
    by scanning its modules."""
    found = []
    for path in sorted(Path(enrlat.__file__).parent.glob("*.py")):
        if path.stem.startswith("__"):
            continue
        mod = importlib.import_module("enrlat." + path.stem)
        found += [(mod, name) for name, obj in vars(mod).items() if isinstance(obj, _store.Store)]
    return tuple(found)


STORES = package_stores()


@pytest.fixture
def stores(monkeypatch):
    """Each store of STORES replaced by an empty one of the same bound with
    zero counts, by attribute name; the stores of before come back after
    the test."""
    out = {}
    for mod, name in STORES:
        out[name] = _store.Store(getattr(mod, name).bound)
        monkeypatch.setattr(mod, name, out[name])
    return out
