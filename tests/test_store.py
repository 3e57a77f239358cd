import ast
import dataclasses
from dataclasses import replace
from itertools import islice, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import enrlat
from enrlat import fqf
from enrlat._store import Store
from enrlat.cli import canonical_json
from enrlat.enriques import ambient
from enrlat.embeddings import (
    embedding_complement,
    embedding_for_label,
    iter_tuples_in_e82,
    realized_characters,
    vectors_of_norm,
)
from enrlat.errors import EnrLatError, NotFound
from enrlat.fqf import FiniteQuadraticForm, discriminant_form, is_isomorphic, milgram_signature
from enrlat.lattice import Lattice, standard_lattice
from enrlat.nikulin import (
    exists_even_lattice,
    find_embedding_datum,
    index_p_sublattice,
    transfer_datum_down,
    transfer_datum_up,
    verify_embedding_datum,
)

from conftest import package_stores


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


def test_fixture_covers_every_store_of_the_package(stores):
    found = package_stores()
    names = [name for _, name in found]
    assert sorted(names) == sorted(stores) and len(set(names)) == len(names)
    for mod, name in found:
        store = getattr(mod, name)
        assert store is stores[name] and not store and store.hits == store.misses == 0


# Caching has two rules: a result keyed by value lives in a Store, and data
# derived from one object stays in a slot on that object. A module-level
# dict, list or set that a function writes is a third way, and a cache no
# fixture can empty.
_CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_MUTATORS = {"append", "extend", "update", "add", "clear", "pop"}


def _written_after_import(source):
    """Names of the module-level dicts, lists and sets of a module's source
    that a function body writes: a subscript stored or deleted, or one of
    _MUTATORS called."""
    tree = ast.parse(source)
    containers = set()
    for node in tree.body:
        value = getattr(node, "value", None)
        if isinstance(node, ast.Assign) and (
                isinstance(value, _CONTAINERS)
                or isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id in ("dict", "list", "set", "defaultdict")):
            containers |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    written = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                target = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATORS:
                target = node.func.value
            else:
                continue
            if isinstance(target, ast.Name) and target.id in containers:
                written.add(target.id)
    return written


def test_no_module_level_container_is_written_after_import():
    written = {}
    for path in sorted(Path(enrlat.__file__).parent.glob("*.py")):
        names = _written_after_import(path.read_text())
        if names:
            written[path.stem] = sorted(names)
    assert written == {}


def test_the_guard_names_each_kind_of_write():
    source = """
_D = {}
_L = []
_S = set()
_T = (1, 2)
_K = Store(4)


def f(k):
    _D[k] = 1
    del _D[k]
    _L.append(k)
    _S.add(k)
    _K.keep(k, k)
    local = {}
    local[k] = 1
    return _D.get(k), _T[0]
"""
    assert _written_after_import(source) == {"_D", "_L", "_S"}
    assert _written_after_import("_D = {}\n_D['a'] = 1\n") == set()


# -- keys: two different inputs with equal keys give the same value --------

def _local(gram):
    return fqf._local(discriminant_form(Lattice(gram)))


# [[4, 0], [0, 4]] and [[4, 4], [4, 8]] have equal discriminant forms; a
# gram as lists and as tuples, and parameters as a list and as a tuple, are
# one key; [[-8, 2], [2, -4]] and [[-4, 2], [2, -8]] ask for the same two
# E8(2) shells in opposite orders
_EQUAL_KEYS = {
    "_LOCAL": (lambda: _local([[4, 0], [0, 4]]), lambda: _local([[4, 4], [4, 8]])),
    "_GLUED": (lambda: find_embedding_datum(Lattice([[4, 0], [0, 4]])),
               lambda: find_embedding_datum(Lattice([[4, 4], [4, 8]]))),
    "_TUPLES": (lambda: list(islice(iter_tuples_in_e82([[-8, 0], [0, -12]]), 5)),
                lambda: list(islice(iter_tuples_in_e82(((-8, 0), (0, -12))), 5))),
    "_PREPARED": (lambda: embedding_for_label(20, [1, 0, 1], (1, 0)),
                  lambda: embedding_for_label(20, (1, 0, 1), (1, 0))),
    "_E82_CACHE": (lambda: next(iter_tuples_in_e82([[-8, 2], [2, -4]])),
                   lambda: next(iter_tuples_in_e82([[-4, 2], [2, -8]]))),
}


def test_every_store_has_an_equal_key_case():
    assert set(_EQUAL_KEYS) == {name for _, name in package_stores()}


@pytest.mark.parametrize("name", sorted(_EQUAL_KEYS))
def test_equal_keys_give_equal_values_from_an_empty_store(name, stores):
    first, second = _EQUAL_KEYS[name]
    store = stores[name]
    kept = []
    for call in (first, second):
        for s in stores.values():
            s.clear()
        call()
        kept.append(dict(store))
    assert kept[0] and kept[0] == kept[1]
    # and the second input reads what the first kept
    store.clear()
    first()
    misses = store.misses
    second()
    assert store.misses == misses and dict(store) == kept[0]


# -- cold equals warm --------------------------------------------------------

# even nondegenerate grams of rank 1 and 2, two pairs of them with equal
# discriminant forms; [[2, 1], [1, -2]] has no gluing datum
_GRAMS = ([[4]], [[12]], [[2, 1], [1, -2]], [[4, 0], [0, 4]], [[4, 4], [4, 8]],
          [[4, 2], [2, 4]], [[4, -2], [-2, 4]], [[8, -2], [-2, 4]])
_TUPLE_GRAMS = ([[-4]], [[-8]], [[-12]], [[-16]], [[-8, 0], [0, -12]], [[-8, 2], [2, -4]],
                [[-4, 2], [2, -8]], [[-4, 0, -2], [0, -4, 0], [-2, 0, -8]])
# parameters per rank invariant; (1, 3, 1) at rho = 20 is refused
_PARAMS = {20: ((1, 0, 1), (2, 1, 3), (1, 3, 1)),
           19: ((-1, 3, 7, -1, -5, -5), (-1, 4, -8, -1, 6, -4)),
           18: ((-3, 8, -5), (-4, 6, -2)),
           17: ((1,), (2,))}
_SIGNATURES = ((0, 10), (2, 8), (1, 9), (0, 1), (3, 0))


def _other_images():
    """gram -> (its datum, the first four order-two elements of q_N with
    the q value of its one glued image), for the grams of _GRAMS whose
    datum glues one generator. The first is the datum's own image. Each
    fits as an image of that generator (Witt), and most of the last three
    give another graph quotient, so a store key that left out the image
    would show."""
    fn = discriminant_form(ambient())
    out = {}
    for gram in _GRAMS:
        try:
            datum = find_embedding_datum(Lattice(gram))
        except NotFound:
            continue
        if len(datum.gamma) == 1:
            out[tuple(map(tuple, gram))] = datum, [
                g for g in product(*[(0, d // 2) for d in fn.orders])
                if fn.q_num(g) == fn.q_num(datum.gamma[0])][:4]
    return out


_IMAGES = _other_images()


def _rows(gram, as_tuples):
    return tuple(map(tuple, gram)) if as_tuples else [list(r) for r in gram]


_CALL = st.one_of(
    st.sampled_from(sorted(_PARAMS)).flatmap(lambda rho: st.tuples(
        st.just("label"), st.just(rho), st.sampled_from(_PARAMS[rho]),
        st.tuples(*[st.integers(0, 1)] * (22 - rho)))),
    st.tuples(st.just("realized"), st.sampled_from(sorted(_PARAMS))).flatmap(
        lambda c: st.tuples(*map(st.just, c), st.sampled_from(_PARAMS[c[1]]))),
    st.tuples(st.just("tuples"), st.sampled_from(_TUPLE_GRAMS), st.booleans(),
              st.integers(1, 6)),
    st.tuples(st.just("datum"), st.sampled_from(_GRAMS), st.sampled_from((3, 5, 7))),
    st.tuples(st.just("image"), st.sampled_from(sorted(_IMAGES)), st.integers(1, 3)),
    st.tuples(st.just("iso"), st.sampled_from(_GRAMS), st.sampled_from(_GRAMS)),
    st.tuples(st.just("exists"), st.sampled_from(_SIGNATURES), st.sampled_from(_GRAMS)),
    st.tuples(st.just("milgram"), st.sampled_from(_GRAMS)),
    st.tuples(st.just("norm"), st.sampled_from(("E8", "E82", "U2")), st.sampled_from(_GRAMS),
              st.sampled_from((-8, -4, -2, 2, 4, 6, 12))),
)


def _plain(x):
    """x as JSON data: a lattice by gram, det and signature, a form by its
    presentation, a dataclass by its fields."""
    if isinstance(x, Lattice):
        return {"gram": _plain(x.gram), "det": x.det, "signature": list(x.signature)}
    if isinstance(x, FiniteQuadraticForm):
        return {"orders": list(x.orders), "den": x.den, "qmat": _plain(x.qmat)}
    if dataclasses.is_dataclass(x):
        return {f.name: _plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def _form(gram):
    return discriminant_form(Lattice(gram))


def _steps(call):
    """The results of one call, in order; every input is built afresh."""
    kind, *args = call
    if kind == "label":
        emb = embedding_for_label(*args)
        yield emb
        yield embedding_complement(emb)
    elif kind == "realized":
        yield realized_characters(*args)
    elif kind == "tuples":
        gram, as_tuples, n = args
        yield list(islice(iter_tuples_in_e82(_rows(gram, as_tuples)), n))
    elif kind == "datum":
        gram, p = args
        lat = Lattice(gram)
        datum = find_embedding_datum(lat)
        yield datum
        yield verify_embedding_datum(lat, datum)
        child, rows = index_p_sublattice(lat, p)
        down = transfer_datum_down(lat, child, datum, rows)
        yield down
        yield verify_embedding_datum(child, down)
        up = transfer_datum_up(lat, child, down, rows)
        yield up
        yield verify_embedding_datum(lat, up)
    elif kind == "image":
        gram, image = args
        datum, same = _IMAGES[gram]
        yield verify_embedding_datum(Lattice(gram), replace(datum, h_n=same[image:image + 1],
                                                              gamma=same[image:image + 1]))
    elif kind == "iso":
        yield is_isomorphic(_form(args[0]), _form(args[1]))
    elif kind == "exists":
        yield exists_even_lattice(args[0], _form(args[1]))
    elif kind == "milgram":
        yield milgram_signature(_form(args[0]))
    else:
        tag, gram, value = args
        for lat in (standard_lattice(tag), Lattice(gram)):
            try:
                yield vectors_of_norm(lat, value)
            except EnrLatError as exc:
                yield "%s: %s" % (type(exc).__name__, exc)


def _outcome(call):
    """Canonical JSON bytes of a call's results, the error that ended it
    last."""
    out = []
    try:
        for step in _steps(call):
            out.append(_plain(step))
    except EnrLatError as exc:
        out.append([type(exc).__name__, str(exc)])
    return canonical_json(out).encode()


def test_cold_calls_equal_warm_calls(stores):
    """A seeded list of calls gives the same bytes, errors included, with
    every call run from empty stores and with the stores kept from call to
    call: after another list has warmed them, and then once more in
    reverse order, so each pair of calls meets in both orders."""
    def cold(call):
        for store in stores.values():
            store.clear()
        return _outcome(call)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(calls=st.lists(_CALL, min_size=3, max_size=8),
           warmup=st.lists(_CALL, min_size=3, max_size=8))
    def check(calls, warmup):
        want = [cold(c) for c in calls]
        for c in warmup:
            _outcome(c)
        assert [_outcome(c) for c in calls] == want
        assert [_outcome(c) for c in reversed(calls)] == want[::-1]

    check()
