"""Shared fixtures."""

import pytest

from enrlat import _store, embeddings, fqf, nikulin

# every bounded store of the package, as (module, attribute)
STORES = ((fqf, "_SPLITS"), (embeddings, "_TUPLES"), (embeddings, "_PREPARED"),
          (nikulin, "_GLUED"))


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
