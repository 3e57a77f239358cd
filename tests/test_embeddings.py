import gc
import hashlib
import json
import math
import random
import sys
import time
from itertools import islice, product

import pytest
from hypothesis import given, settings, strategies as st

from enrlat import embeddings, intmat, lattice
from enrlat.acceptance import naive_vectors
from enrlat.embeddings import (
    character_upper_bound,
    embedding_complement,
    embedding_for_label,
    embedding_from_images,
    iter_tuples_in_e82,
    realized_characters,
    suggest_params,
    t_gram,
    vectors_of_norm,
)
from enrlat.enriques import ambient, is_twice_even
from enrlat.errors import (
    BadParams,
    BadShape,
    CapExceeded,
    GramMismatch,
    NotDefinite,
    NotFound,
    NotPrimitive,
    RankTooLarge,
)
from enrlat.lattice import Lattice, gram_of_rows, standard_lattice

from _oracles import sigma3, snf_diagonal_by_minor_gcds


def _pinned_key(v):
    # the pinned order: by L1 norm, then coordinates in descending order
    return sum(map(abs, v)), [-x for x in v]


def _rebased(lat, rng, steps=6):
    """(U, U G U^T) for U a product of `steps` elementary +-1 row operations."""
    u = [[int(i == j) for j in range(8)] for i in range(8)]
    for _ in range(steps):
        i, j = rng.sample(range(8), 2)
        s = rng.choice((-1, 1))
        u[i] = [a + s * b for a, b in zip(u[i], u[j])]
    return u, Lattice([[int(x) for x in row] for row in gram_of_rows(u, lat.gram)])


def test_enumeration_matches_box_oracle():
    rng = random.Random(127)
    for _ in range(8):
        while True:
            r = rng.randint(1, 3)
            rows = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)]
            g = [
                [-2 * sum(rows[i][k] * rows[j][k] for k in range(r)) for j in range(r)]
                for i in range(r)
            ]
            try:
                lat = Lattice(g)
                break
            except Exception:
                continue
        for value in (-2, -4, -6):
            got = {tuple(v) for v in vectors_of_norm(lat, value)}
            assert got == naive_vectors(g, value)


@st.composite
def definite_grams(draw):
    """A definite even gram of rank <= 4 in a possibly non-reduced basis.

    A diagonally dominant gram (even diagonal, off-diagonal entries of either
    parity) is conjugated by a few elementary unimodular steps, then given a
    random sign.
    """
    n = draw(st.integers(1, 4))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(st.integers(-3, 3))
    for i in range(n):
        spread = sum(abs(g[i][j]) for j in range(n) if j != i)
        g[i][i] = 2 * draw(st.integers(spread // 2 + 1, spread // 2 + 2))
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    if n > 1:
        for _ in range(draw(st.integers(0, 3))):
            i, j = draw(st.permutations(range(n)))[:2]
            s = draw(st.sampled_from((-1, 1)))
            u[i] = [a + s * b for a, b in zip(u[i], u[j])]
    sign = draw(st.sampled_from((-1, 1)))
    return [
        [sign * sum(u[i][r] * g[r][c] * u[j][c] for r in range(n) for c in range(n))
         for j in range(n)]
        for i in range(n)
    ]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(definite_grams(), st.integers(1, 6))
def test_enumeration_property_against_box_oracle(g, half):
    lat = Lattice(g)
    value = 2 * half if g[0][0] > 0 else -2 * half
    got = vectors_of_norm(lat, value)
    found = {tuple(v) for v in got}
    assert found == naive_vectors(g, value)
    assert len(found) == len(got)
    assert {tuple(-x for x in v) for v in found} == found
    assert got == sorted(got, key=_pinned_key)
    assert vectors_of_norm(lat, -value) == []


def test_cap_boundary_is_exact():
    e8 = standard_lattice("E8")
    assert len(vectors_of_norm(e8, -2, cap=241)) == 240
    assert len(vectors_of_norm(e8, -2, cap=240)) == 240
    with pytest.raises(CapExceeded, match="more than 239 vectors"):
        vectors_of_norm(e8, -2, cap=239)


@pytest.mark.parametrize("value", [2.0, 2.5, "2", True, None, 20.0])
def test_malformed_value_is_a_bad_shape(value):
    # checked before any work, whether or not the lattice takes the norm
    for lat in (Lattice([[2]]), Lattice([[-2]]), standard_lattice("E8")):
        with pytest.raises(BadShape, match="value: .* is not an integer"):
            vectors_of_norm(lat, value)
    # a table parameter or label entry is never rounded or cast to an int
    with pytest.raises(BadShape, match="params: .* is not an integer"):
        t_gram(20, (value, 0, 1))
    with pytest.raises(BadShape, match="params: .* is not an integer"):
        embedding_for_label(20, (value, 0, 1), (1, 0))
    with pytest.raises(BadShape, match="label: .* is not an integer"):
        embedding_for_label(20, (1, 0, 1), (value, 1))
    # nor a rank invariant or a count of parameter sets: 20.0 is no rho
    for call in (lambda: t_gram(value, (1, 0, 1)),
                 lambda: embedding_for_label(value, (1, 0, 1), (1, 0)),
                 lambda: suggest_params(value, 1)):
        with pytest.raises(BadShape, match="rho: .* is not an integer"):
            call()
    with pytest.raises(BadShape, match="count: .* is not an integer"):
        suggest_params(20, 1, count=value)
    for rho in (17, 20):
        with pytest.raises(BadShape, match="seed: .* is not an integer"):
            suggest_params(rho, value)
    # a negative count or length is no empty request
    with pytest.raises(BadShape, match="count: -2 is negative"):
        suggest_params(20, 1, count=-2)
    with pytest.raises(BadShape, match="count: -1 is negative"):
        suggest_params(17, 1, count=-1)


@pytest.mark.parametrize("cap", [-1, -240, 2.0, "2", True, None])
def test_malformed_cap_is_a_bad_shape(cap):
    # checked before any work, whether or not a vector of the norm exists
    for lat, value in ((Lattice([[2]]), 2), (Lattice([[2]]), 4), (standard_lattice("E8"), -2)):
        with pytest.raises(BadShape, match="cap: .* is not a nonnegative integer"):
            vectors_of_norm(lat, value, cap=cap)


def test_cap_stops_the_search_early():
    # E8 at -40 has 240 * sigma3(20) = 2,207,520 vectors; the cap ends the
    # walk after about a thousand of them
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="more than 1000 vectors"):
        vectors_of_norm(standard_lattice("E8"), -40, cap=1000)
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("gram, value", [
    ([[2, 1], [1, 2]], 10 ** 39),
    ([[-4 * (i == j) for j in range(30)] for i in range(30)], -4 * 10 ** 40),
])
def test_huge_value_stops_at_the_node_cap(gram, value):
    # the first range alone is past the cap, so nothing of it is walked
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="over its cap of %d" % lattice.ENUM_NODE_CAP):
        vectors_of_norm(Lattice(gram), value)
    assert time.perf_counter() - start < 1


def test_node_cap_counts_every_coordinate_tried(monkeypatch):
    # 240 roots of E8 under the real cap; the walk to them tries 250
    # coordinates, so a cap one below that stops it at its last range
    e8 = standard_lattice("E8")
    assert len(vectors_of_norm(e8, -2)) == 240
    monkeypatch.setattr(lattice, "ENUM_NODE_CAP", 249)
    with pytest.raises(CapExceeded, match="needs at least 250 nodes, over its cap of 249"):
        vectors_of_norm(e8, -2)
    monkeypatch.setattr(lattice, "ENUM_NODE_CAP", 250)
    assert len(vectors_of_norm(e8, -2)) == 240


# E8(2) at these norms tries exactly these many coordinates; the comment
# on ENUM_NODE_CAP takes its largest figure from the last one
E82_NODE_TOTALS = [(-4, 250), (-8, 1540), (-12, 4648), (-16, 10987), (-20, 21067),
                   (-24, 37834)]


@pytest.mark.parametrize("value, total", E82_NODE_TOTALS)
def test_e82_node_totals_are_pinned(monkeypatch, value, total):
    e82 = standard_lattice("E82")
    monkeypatch.setattr(lattice, "ENUM_NODE_CAP", total)
    assert len(vectors_of_norm(e82, value)) == 240 * sigma3(-value // 4)
    monkeypatch.setattr(lattice, "ENUM_NODE_CAP", total - 1)
    with pytest.raises(CapExceeded, match="needs at least %d nodes, over its cap of %d$"
                       % (total, total - 1)):
        vectors_of_norm(e82, value)


def _cartan_gram(n, edges):
    g = [[-2 * (i == j) for j in range(n)] for i in range(n)]
    for a, b in edges:
        g[a][b] = g[b][a] = 1
    return g


def _root_lattice_grams():
    """The negated root lattices A_2..A_8, D_4..D_8, E_6 and E_7."""
    e8 = standard_lattice("E8").gram
    out = [_cartan_gram(n, [(i, i + 1) for i in range(n - 1)]) for n in range(2, 9)]
    out += [_cartan_gram(n, [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)])
            for n in range(4, 9)]
    return out + [[row[:n] for row in e8[:n]] for n in (6, 7)]


def _random_definite(rng):
    """-2 R R^T for a lower-triangular R of rank 2..8: diagonal 1 or 2,
    entries below it -1, 0 or 1."""
    r = rng.randint(2, 8)
    rows = [[0] * r for _ in range(r)]
    for i in range(r):
        rows[i][i] = rng.choice((1, 1, 2))
        for j in range(i):
            rows[i][j] = rng.choice((-1, 0, 0, 1))
    return [[-2 * sum(p * q for p, q in zip(a, b)) for b in rows] for a in rows]


def _enumeration_cases():
    """(lattice, value) pairs shaped like the benchmark's enumerations."""
    e8, e82 = standard_lattice("E8"), standard_lattice("E82")
    cases = [(e8, v) for v in (-2, -4, -6)] + [(e82, v) for v in (-2, -4, -8, -12)]
    cases += [(Lattice(g), -2) for g in _root_lattice_grams()]
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for lat, value in ((e8, -2), (e82, -4)):
            cases += [(_rebased(lat, rng, 4)[1], value) for _ in range(15)]
        for _ in range(2):
            g = _random_definite(rng)
            for sign in (1, -1):
                lat = Lattice([[sign * x for x in row] for row in g])
                cases += [(lat, v) for v in (2, -2, 4, -4)]
    return cases


def _outcome(lat, value, **cap):
    try:
        return vectors_of_norm(lat, value, **cap)
    except CapExceeded as err:
        return str(err)


# sha256 of the canonical JSON of every outcome below: the vectors, in
# order, or the message of CapExceeded
ENUMERATION_DIGEST = "387dc7925636952e330ab6a8e68db59545d63ca2ec279cabc9070d71d9312b44"


def test_enumeration_outcomes_are_pinned(monkeypatch):
    cases = _enumeration_cases()
    assert len(cases) == 7 + 14 + 3 * (30 + 16)
    got = [_outcome(lat, value) for lat, value in cases]
    # E8, E8(2), A2, D4, E7, a rebased E8 and E8(2), a random gram
    capped = [cases[i] for i in (0, 4, 7, 14, 20, 21, 36, 52)]
    for cap in (0, 1, 2, 3, 50, 239, 240):
        got += [_outcome(lat, value, cap=cap) for lat, value in capped]
    for nodes in (0, 1, 7, 60, 249, 250, 1000):
        monkeypatch.setattr(lattice, "ENUM_NODE_CAP", nodes)
        got += [_outcome(lat, value) for lat, value in capped]
    blob = json.dumps(got, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == ENUMERATION_DIGEST


def test_enumeration_leaves_no_garbage_cycle():
    # the walk keeps its state in lists, not in closures that refer to
    # themselves, so reference counting frees all of it
    e8 = standard_lattice("E8")
    gc.collect()
    gc.disable()
    try:
        assert len(vectors_of_norm(e8, -6)) == 6720
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_rank_one_enumeration():
    assert vectors_of_norm(Lattice([[-8]]), -8) == [[1], [-1]]
    assert vectors_of_norm(Lattice([[-8]]), -2) == []
    assert vectors_of_norm(Lattice([[2]]), 8) == [[2], [-2]]
    assert vectors_of_norm(Lattice([[-8]]), -8, cap=2) == [[1], [-1]]
    with pytest.raises(CapExceeded):
        vectors_of_norm(Lattice([[-8]]), -8, cap=1)


@pytest.mark.parametrize("gram", [
    [[0, 1], [1, 0]], [[2, 3], [3, 2]], [[-2, 3], [3, -2]],
    # a positive first pivot and a later one that is not; the last has a
    # zero leading minor of order two, where the elimination swaps
    [[2, 1, 0], [1, 2, 0], [0, 0, -2]], [[-2, 1, 0], [1, -2, 0], [0, 0, 2]],
    [[2, 2, 0], [2, 2, 1], [0, 1, 2]],
])
@pytest.mark.parametrize("value", [0, 2, -2])
def test_indefinite_lattice_is_refused(gram, value):
    with pytest.raises(NotDefinite):
        vectors_of_norm(Lattice(gram), value)


def test_rebased_e8_keeps_theta_counts():
    rng = random.Random(411)
    for tag, scale in (("E8", 1), ("E82", 2)):
        lat = standard_lattice(tag)
        want = {k: {tuple(v) for v in vectors_of_norm(lat, -2 * scale * k)} for k in (1, 2)}
        for _ in range(3):
            u, rebased = _rebased(lat, rng)
            for k in (1, 2):
                got = vectors_of_norm(rebased, -2 * scale * k)
                assert len(got) == 240 * sigma3(k)
                assert got == sorted(got, key=_pinned_key)
                # x in the rebased basis is the vector x U of the original one
                mapped = {tuple(sum(x[r] * u[r][c] for r in range(8)) for c in range(8))
                          for x in got}
                assert mapped == want[k]


# sha256 of json.dumps of each whole list, so the full rank-8 order is pinned
# (the roots goldens hold only the first vectors; E8(2) at -12 is E8 at -6)
RANK_EIGHT_DIGESTS = [
    ("E8", -2, 240, "74feef94c24255d9141aff9727621544e2758587a1a5e4e18954a3234fbb0f49"),
    ("E8", -4, 2160, "8a8b1ea1ee8736b3049431f40e511bef6eb5c3749a143e70d77e6ee2534ca97d"),
    ("E8", -6, 6720, "e1d84abd09e86e7b798137e0253f6060f98b5b88a3bbecae8c67d5b735cf924a"),
    ("E82", -12, 6720, "e1d84abd09e86e7b798137e0253f6060f98b5b88a3bbecae8c67d5b735cf924a"),
    (2027, -4, 2160, "99b4bab0d91a73a6c18e3496999e520c2483b70d9548d3d0cc050b2ea3b89d24"),
]


@pytest.mark.parametrize("lattice, value, count, digest", RANK_EIGHT_DIGESTS,
                         ids=["E8-2", "E8-4", "E8-6", "E82-12", "rebased-E8-4"])
def test_rank_eight_enumeration_order_is_pinned(lattice, value, count, digest):
    if isinstance(lattice, int):
        lat = _rebased(standard_lattice("E8"), random.Random(lattice))[1]
    else:
        lat = standard_lattice(lattice)
    got = vectors_of_norm(lat, value)
    assert len(got) == count
    assert got == sorted(got, key=_pinned_key)
    assert hashlib.sha256(json.dumps(got).encode()).hexdigest() == digest


def test_e8_counts_follow_divisor_sums():
    e8 = standard_lattice("E8")
    for k in (1, 2, 3):
        assert len(vectors_of_norm(e8, -2 * k)) == 240 * sigma3(k)


def test_scaled_e8_has_no_roots():
    e82 = standard_lattice("E82")
    assert vectors_of_norm(e82, -2) == []
    assert len(vectors_of_norm(e82, -4)) == 240


def test_enumeration_output_is_sorted_and_without_zero():
    lat = Lattice([[-2, 0], [0, -2]])
    vecs = vectors_of_norm(lat, -2)
    assert (0, 0) not in {tuple(v) for v in vecs}
    assert len(vecs) == 4
    assert vecs == sorted(vecs, key=_pinned_key)


def test_positive_norm_request_is_empty_in_negative_definite():
    lat = Lattice([[-2]])
    assert vectors_of_norm(lat, 2) == []


@pytest.mark.parametrize("lat", [[[-2]], None, ((-2, 1), (1, -2)), 2])
def test_enumeration_refuses_what_is_not_a_lattice(lat):
    with pytest.raises(BadShape, match=r"lat: .* is not a Lattice"):
        vectors_of_norm(lat, -2)


def _root_basis(kind, n):
    """Simple roots of A_n in Z^(n+1) (e_i - e_(i+1)) or of D_n in Z^n
    (those of A_(n-1), then e_(n-1) + e_n), as rows."""
    width = n + 1 if kind == "A" else n
    rows = [[(j == i) - (j == i + 1) for j in range(width)] for i in range(n)]
    if kind == "D":
        rows[-1] = [int(j >= n - 2) for j in range(width)]
    return rows


@pytest.mark.parametrize("kind, count", [("A", lambda n: n * (n + 1)),
                                         ("D", lambda n: 2 * n * (n - 1))], ids=("A", "D"))
def test_root_lattices_across_the_segment_boundary(kind, count):
    # ranks 2 to 24, so walks of one segment and of two; x B in the
    # ambient Z^m must be the roots +-e_i -+ e_j (and +-(e_i + e_j) in D_n)
    for n in range(2, 25):
        basis = _root_basis(kind, n)
        gram = [[-sum(map(math.prod, zip(a, b))) for b in basis] for a in basis]
        got = vectors_of_norm(Lattice(gram), -2)
        assert len(got) == count(n)
        assert got == sorted(got, key=_pinned_key)
        width = len(basis[0])
        ambient_roots = {tuple(s * (c == i) + t * (c == j) for c in range(width))
                         for i in range(width) for j in range(i + 1, width)
                         for s in (1, -1) for t in (1, -1) if kind == "D" or s != t}
        assert {tuple(sum(x[r] * basis[r][c] for r in range(n)) for c in range(width))
                for x in got} == ambient_roots
        if n <= 7:
            assert {tuple(v) for v in got} == naive_vectors(gram, -2)


def test_walk_is_built_for_every_rank_up_to_forty(stores):
    # ranks 18 and up chain segments, 34 and up three of them
    for n in range(1, 41):
        lat = Lattice([[-2 * (i == j) for j in range(n)] for i in range(n)])
        units = [[int(i == j) for j in range(n)] for i in range(n)]
        assert vectors_of_norm(lat, -2) == units + [[-x for x in u] for u in reversed(units)]
        got = vectors_of_norm(lat, -4)
        assert len(got) == 2 * n * (n - 1) and got == sorted(got, key=_pinned_key)
    assert sorted(stores["_WALKS"]) == list(range(2, 41))


def test_find_tuple_frozen_single_vector():
    assert next(iter_tuples_in_e82([[-4]])) == ((1, 0, 0, 0, 0, 0, 0, 0),)


def test_find_tuple_respects_requested_gram():
    e82 = standard_lattice("E82")
    gram = [[-8, 0], [0, -12]]
    rows = next(iter_tuples_in_e82(gram))
    got = gram_of_rows([list(r) for r in rows], [list(r) for r in e82.gram])
    assert [[int(x) for x in row] for row in got] == gram


def test_embedding_from_images_checks_gram():
    source = Lattice([[4]])
    with pytest.raises(GramMismatch):
        embedding_from_images(source, [[0, 1] + [0] * 10])


def test_embedding_from_images_rejects_non_integer_entries():
    # images arrive from embedding files; the integer checks come first
    source = Lattice([[4]])
    for bad in ("a", 0.5, True):
        with pytest.raises(BadShape):
            embedding_from_images(source, [[1, bad] + [0] * 10])


def test_embedding_from_images_detects_imprimitive():
    source = Lattice([[16, 0], [0, 4]])
    images = [
        [2, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    ]
    with pytest.raises(NotPrimitive) as info:
        embedding_from_images(source, images)
    assert info.value.index == 2
    # v, w span a primitive sublattice with gram [[4,0],[0,4]]; images
    # c * (v, w) (2v and 3v + w, ...) have index |det c|, the product of
    # their Smith diagonal
    v = [1, 2] + [0] * 10
    w = [1, -2, 1, 2] + [0] * 8
    for c in ([[2, 0], [3, 1]], [[2, 0], [0, 1]], [[3, 1], [0, 4]], [[1, 0], [0, 6]]):
        rows = [[a * x + b * y for x, y in zip(v, w)] for a, b in c]
        with pytest.raises(NotPrimitive) as info:
            embedding_from_images(Lattice(gram_of_rows(rows, ambient().gram)), rows)
        assert info.value.index == math.prod(snf_diagonal_by_minor_gcds(rows))
        assert info.value.index == abs(c[0][0] * c[1][1] - c[0][1] * c[1][0])


def test_rho_17_sweep_leaves_no_tracked_objects(stores):
    # the store of E8(2) vectors holds thousands of them; kept as tuples of
    # ints they leave the cyclic collector's tracked set, so a full
    # collection does not walk them again. Empty stores make the sweep fill
    # them whatever ran before: kept tuples would skip the enumeration.
    gc.collect()
    before = len(gc.get_objects())
    for m in (1, 2, 3):
        for label in product((0, 1), repeat=5):
            if any(label):
                embedding_for_label(17, (m,), label)
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert grown < 100
    assert stores["_E82_CACHE"]


def test_frame_is_eight_orthogonal_vectors_of_norm_minus_four():
    e82 = standard_lattice("E82")
    frame = embeddings._FRAME
    assert len(frame) == 8
    assert [[e82.bilinear(a, b) for b in frame] for a in frame] == [
        [-4 * (i == j) for j in range(8)] for i in range(8)]
    # the first eight a depth-first search over the norm -4 shell picks
    roots = vectors_of_norm(e82, -4)
    picked = []

    def dfs():
        if len(picked) == 8:
            return True
        for cand in roots:
            if all(e82.bilinear(cand, c) == 0 for c in picked):
                picked.append(cand)
                if dfs():
                    return True
                picked.pop()
        return False

    assert dfs() and [tuple(v) for v in picked] == list(frame)


def test_rank_two_table_all_labels():
    for params in ((1, 0, 1), (2, 1, 3), (3, -2, 5)):
        for label in ((1, 0), (0, 1), (1, 1)):
            emb = embedding_for_label(20, params, label)
            assert emb.label == label
            _, comp = embedding_complement(emb)
            assert is_twice_even(comp.gram)
            assert comp.rank == 10


def test_rank_two_table_rejects_indefinite_params():
    with pytest.raises(BadParams):
        embedding_for_label(20, (1, 3, 1), (1, 0))


def test_wrong_parameter_count_is_refused():
    with pytest.raises(BadParams):
        embedding_for_label(20, (1, 0), (1, 0))
    with pytest.raises(BadParams):
        t_gram(17, (1, 2))
    with pytest.raises(BadParams):
        realized_characters(21, (1,))


def test_zero_label_is_refused():
    with pytest.raises(NotFound):
        embedding_for_label(20, (1, 0, 1), (0, 0))


def test_medium_rank_labels_spot_check():
    params = suggest_params(19, 11, count=1)[0]
    for label in ((1, 0, 0), (0, 1, 0), (1, 1, 1)):
        emb = embedding_for_label(19, params, label)
        assert emb.label == label
        _, comp = embedding_complement(emb)
        assert is_twice_even(comp.gram)


def test_u2_block_labels_spot_check():
    params = suggest_params(18, 12, count=1)[0]
    for label in ((1, 0, 0, 0), (0, 0, 1, 0), (1, 1, 1, 1)):
        emb = embedding_for_label(18, params, label)
        assert emb.label == label


@pytest.mark.parametrize("params", [(-4, 6, -2), (-4, 7, -3), (-4, 9, -4), (-4, 8, -3)])
def test_rho_18_label_0001_on_parameters_that_exhausted_the_tuple_search(params):
    # the primitive tuple search once spent its node budget under norm -16
    # vectors that are twice vectors of E8(2); it now prunes imprimitive
    # prefixes and finds a primitive tuple at once
    emb = embedding_for_label(18, params, (0, 0, 0, 1))
    images = [list(r) for r in emb.images]
    assert emb.label == (0, 0, 0, 1)
    assert gram_of_rows(images, ambient().gram) == [list(r) for r in t_gram(18, params)]
    assert snf_diagonal_by_minor_gcds(images) == [1, 1, 1, 1]


def test_rank_five_label_sweep_is_complete():
    got = set()
    for label in product((0, 1), repeat=5):
        if not any(label):
            continue
        emb = embedding_for_label(17, (1,), label)
        assert emb.label == label
        got.add(label)
    assert len(got) == 31


def test_rank_five_rejects_bad_multiplier():
    with pytest.raises(BadParams):
        embedding_for_label(17, (0,), (1, 0, 0, 0, 0))
    with pytest.raises(BadParams):
        embedding_for_label(17, (-2,), (1, 0, 0, 0, 0))


def test_character_bound_trivial_on_root_pair_shapes():
    for c in (3, 5, 7):
        assert character_upper_bound([[2, 0], [0, 2 * c]]) == [(0, 0)]


def test_character_bound_full_without_constraints():
    # every diagonal entry 0 mod 4 leaves nothing to cut the group down
    assert len(character_upper_bound([[4, 0], [0, 4]])) == 4
    assert len(character_upper_bound([[0, 2], [2, 0]])) == 4


def test_character_bound_rank_guard():
    with pytest.raises(RankTooLarge):
        character_upper_bound([[0] * 21 for _ in range(21)])


def test_realized_characters_inside_upper_bound():
    params = (1, 0, 1)
    realized = realized_characters(20, params)
    bound = character_upper_bound(t_gram(20, params))
    assert set(realized) <= set(bound)
    assert (0, 0) in realized


def test_suggested_params_validate():
    for rho, size in ((20, 3), (19, 6), (18, 3)):
        for params in suggest_params(rho, 99, count=2):
            assert len(params) == size
            g = t_gram(rho, params)
            assert all(g[i][i] % 2 == 0 for i in range(len(g)))


def test_suggested_params_are_pinned():
    # the sets drawn from each family's ranges, in draw order
    got = {"%d/%d/%d" % (rho, seed, count): suggest_params(rho, seed, count)
           for rho in (17, 18, 19, 20) for seed in range(20) for count in (1, 3, 40)}
    assert hashlib.sha256(json.dumps(got, sort_keys=True).encode()).hexdigest() == (
        "22833861f6f96cddea32d81d69f7f29569f56b5b4dba287f27227ed329ac5b22")


@pytest.mark.parametrize("rho, accepted", [
    # 4ac - b^2 > 0 on a, c in 1..6, b in -4..4
    (20, [(a, b, c) for a in range(1, 7) for b in range(-4, 5) for c in range(1, 7)
          if 4 * a * c - b * b > 0]),
    # b^2 > 4ac on a, c in -5..-1, b in 1..9
    (18, [(a, b, c) for a in range(-5, 0) for b in range(1, 10) for c in range(-5, 0)
          if b * b > 4 * a * c]),
])
def test_sampler_past_its_ranges_raises_cap_exceeded(rho, accepted):
    assert len(accepted) == {20: 300, 18: 98}[rho]
    assert sorted(suggest_params(rho, 0, len(accepted))) == accepted
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="spent 20000 draws and kept %d of the %d sets asked"
                       % (len(accepted), len(accepted) + 1)):
        suggest_params(rho, 0, len(accepted) + 1)
    assert time.perf_counter() - start < 5


# ------------------------------------------- kept tuples and parameters

def test_same_gram_twice_yields_the_same_tuples(stores):
    gram = [[-8, 0], [0, -12]]
    first = list(islice(iter_tuples_in_e82(gram), 4))
    assert len(first) == 4
    assert list(islice(iter_tuples_in_e82(gram), 4)) == first
    finished, kept = embeddings._TUPLES[((-8, 0), (0, -12))]
    assert not finished and kept == tuple(first)
    assert all(type(x) is int for rows in kept for row in rows for x in row)


def test_reading_past_the_kept_tuples_matches_a_fresh_search(stores):
    gram = [[-4, -2], [-2, -8]]
    fresh = list(islice(iter_tuples_in_e82(gram), 7))
    stores["_TUPLES"].clear()
    assert list(islice(iter_tuples_in_e82(gram), 2)) == fresh[:2]
    assert list(islice(iter_tuples_in_e82(gram), 7)) == fresh
    assert list(islice(iter_tuples_in_e82(gram), 3)) == fresh[:3]


def test_a_finished_search_is_replayed_whole(stores):
    gram = [[-4, -4], [-4, -4]]  # t1 = t0 spans no primitive rank-2 sublattice
    assert list(iter_tuples_in_e82(gram)) == []
    assert embeddings._TUPLES[((-4, -4), (-4, -4))] == (True, ())
    assert list(iter_tuples_in_e82(gram)) == []


def _label_tuple_grams(monkeypatch):
    """The tuple grams the label search asks for, in order: every nonzero
    rho = 17 label at m = 1, 2 and 3, and two rho = 18 labels whose frame
    tuples give no primitive embedding, so their search walks shells."""
    grams = []
    search = embeddings.iter_tuples_in_e82

    def recorded(gram):
        rows = [list(r) for r in gram]
        if rows not in grams:
            grams.append(rows)
        return search(gram)

    monkeypatch.setattr(embeddings, "iter_tuples_in_e82", recorded)
    for m in (1, 2, 3):
        for label in product((0, 1), repeat=5):
            if any(label):
                embedding_for_label(17, (m,), label)
    embedding_for_label(18, (-2, 7, -2), (0, 0, 0, 1))
    embedding_for_label(18, (-3, 7, -4), (0, 0, 0, 1))
    monkeypatch.setattr(embeddings, "iter_tuples_in_e82", search)
    return grams


# nodes the tuple search spends on each gram of _label_tuple_grams up to
# its ATTEMPT_CAP-th tuple, the most one label permutation reads, and the
# sha256 of those tuples
TUPLE_NODE_TOTALS = [1585, 561, 751, 374, 849, 790, 1496, 3159, 879, 973, 566, 746, 1909,
                     2442, 3471, 1232, 981, 741, 920, 2826, 3057, 3244, 6243]
TUPLE_DIGEST = "c4ed84ea8f04fa058ac846ffe1ea5d54d3077e2a0f904ea5ed43edb4923deacc"


def test_tuple_search_work_is_pinned(monkeypatch, stores):
    grams = _label_tuple_grams(monkeypatch)
    assert len(grams) == 3 * 7 + 2
    got = []
    for gram, total in zip(grams, TUPLE_NODE_TOTALS, strict=True):
        stores["_TUPLES"].clear()
        monkeypatch.setattr(embeddings, "TUPLE_NODE_CAP", total)
        tuples = list(islice(iter_tuples_in_e82(gram), embeddings.ATTEMPT_CAP))
        assert len(tuples) == embeddings.ATTEMPT_CAP
        got.append(tuples)
        stores["_TUPLES"].clear()
        monkeypatch.setattr(embeddings, "TUPLE_NODE_CAP", total - 1)
        with pytest.raises(CapExceeded, match="^tuple search spent %d nodes, over its cap of %d$"
                           % (total, total - 1)):
            list(islice(iter_tuples_in_e82(gram), embeddings.ATTEMPT_CAP))
    blob = json.dumps(got, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == TUPLE_DIGEST


def test_spent_tuple_search_raises_on_every_call(monkeypatch, stores):
    monkeypatch.setattr(embeddings, "TUPLE_NODE_CAP", 300)
    # the first tuples come within the cap and are kept; the search past
    # them runs out of nodes on every call
    gram = [[-4, -2], [-2, -4]]
    for _ in range(3):
        with pytest.raises(CapExceeded, match="spent 301 nodes"):
            list(iter_tuples_in_e82(gram))
    assert embeddings._TUPLES[((-4, -2), (-2, -4))][1]
    monkeypatch.setattr(embeddings, "TUPLE_NODE_CAP", 5)
    for _ in range(3):
        with pytest.raises(CapExceeded, match="spent 6 nodes"):
            list(iter_tuples_in_e82([[-4, -4], [-4, -4]]))


def test_the_store_keeps_what_one_label_permutation_reads(monkeypatch, stores):
    """A read past ATTEMPT_CAP + 1 tuples, stopped by the node cap or run to
    the end, keeps only those first tuples, unfinished; the next read
    yields the same sequence and ends the same way."""
    monkeypatch.setattr(embeddings, "TUPLE_NODE_CAP", 20_000)
    reads = []
    for _ in range(2):
        got = []
        with pytest.raises(CapExceeded, match="spent 20001 nodes"):
            got.extend(iter_tuples_in_e82([[-8, 0], [0, -4]]))
        reads.append(got)
    assert len(reads[0]) == 6972 and reads[1] == reads[0]
    finished, kept = embeddings._TUPLES[((-8, 0), (0, -4))]
    assert not finished and kept == tuple(reads[0][:embeddings.ATTEMPT_CAP + 1])
    monkeypatch.setattr(embeddings, "ATTEMPT_CAP", 2)
    whole = list(iter_tuples_in_e82([[-4]]))
    assert len(whole) > 3 and embeddings._TUPLES[((-4,),)] == (False, tuple(whole[:3]))
    assert list(iter_tuples_in_e82([[-4]])) == whole


def test_label_checks_hold_with_parameters_kept():
    embedding_for_label(20, (1, 0, 1), (1, 0))
    assert (20, (1, 0, 1)) in embeddings._PREPARED
    for _ in range(2):
        with pytest.raises(BadShape):
            embedding_for_label(20, (1, 0, 1), (1, 0, 0))
        with pytest.raises(NotFound):
            embedding_for_label(20, (1, 0, 1), (0, 0))
        assert embedding_for_label(20, (1, 0, 1), (0, 1)).label == (0, 1)


def test_bad_parameters_are_refused_on_every_call():
    for _ in range(2):
        with pytest.raises(BadParams):
            embedding_for_label(17, (0,), (1, 0, 0, 0, 0))
        with pytest.raises(BadParams):
            embedding_for_label(20, (1, 3, 1), (1, 0))
        with pytest.raises(BadParams):
            realized_characters(17, (0,))
    assert (17, (0,)) not in embeddings._PREPARED


def test_spent_label_search_raises_cap_exceeded(monkeypatch):
    monkeypatch.setattr(embeddings, "ATTEMPT_CAP", 0)
    # (1, 1) meets a template under both permutations; each draws one
    # candidate past the cap
    with pytest.raises(CapExceeded, match="drew 2 candidates, over its cap of 0"):
        embedding_for_label(20, (1, 0, 1), (1, 1))
    with pytest.raises(CapExceeded):
        embedding_for_label(17, (1,), (1, 0, 0, 0, 0))


def test_exhausted_label_search_raises_not_found(monkeypatch):
    # no tuple at all: every permutation runs out below the cap
    monkeypatch.setattr(embeddings, "iter_tuples_in_e82", lambda gram: iter(()))
    with pytest.raises(NotFound):
        embedding_for_label(17, (1,), (1, 0, 0, 0, 0))
    monkeypatch.setattr(embeddings, "ATTEMPT_CAP", 0)
    with pytest.raises(NotFound):
        embedding_for_label(17, (1,), (1, 0, 0, 0, 0))


def _label_ops():
    # every nonzero label of one parameter set per family, and a second
    # rho = 17 multiplier
    for rho, params in ((20, (2, 1, 3)), (19, (-2, 9, -5, -3, 9, -1)), (18, (-2, 9, -3)),
                        (17, (1,)), (17, (2,))):
        for label in product((0, 1), repeat=len(t_gram(rho, params))):
            if any(label):
                yield rho, params, label


def test_label_op_work_is_pinned(monkeypatch):
    # One label op, embedding_for_label then embedding_complement, on warm
    # tables takes two products against N's gram (the images' gram check
    # and the complement's gram), two Smith forms (the primitivity check
    # and the kernel) and no elimination: the complement reads S's det and
    # signature off the source and the kernel off the kept products. Each
    # product also hands back its rows' nonzero entries, which its gram
    # pairs with, so no pass of its own finds them. Each kernel is counted
    # under every name an enrlat module binds it to.
    for op in _label_ops():
        embedding_complement(embedding_for_label(*op))
    counts = dict.fromkeys(("eliminate_symmetric", "_products", "_smith"), 0)
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("enrlat.")]
    for name, home in (("eliminate_symmetric", lattice), ("_products", lattice),
                       ("_smith", intmat)):
        kernel = getattr(home, name)

        def counted(*args, _kernel=kernel, _name=name):
            counts[_name] += 1
            return _kernel(*args)

        for module in modules:
            if getattr(module, name, None) is kernel:
                monkeypatch.setattr(module, name, counted)
    ops = 0
    for op in _label_ops():
        embedding_complement(embedding_for_label(*op))
        ops += 1
    assert ops == 87
    assert counts == {"eliminate_symmetric": 0, "_products": 2 * ops, "_smith": 2 * ops}
