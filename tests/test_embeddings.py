import gc
import hashlib
import json
import math
import random
import time
from itertools import islice, product

import pytest
from hypothesis import given, settings, strategies as st

from enrlat import embeddings
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


def _rebased(lat, rng):
    """(U, U G U^T) for U a product of six elementary +-1 row operations."""
    u = [[int(i == j) for j in range(8)] for i in range(8)]
    for _ in range(6):
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


@pytest.mark.parametrize("value", [2.0, 2.5, "2", True, None])
def test_malformed_value_is_a_bad_shape(value):
    # checked before any work, whether or not the lattice takes the norm
    for lat in (Lattice([[2]]), Lattice([[-2]]), standard_lattice("E8")):
        with pytest.raises(BadShape, match="value: .* is not an integer"):
            vectors_of_norm(lat, value)


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


def test_rank_one_enumeration():
    assert vectors_of_norm(Lattice([[-8]]), -8) == [[1], [-1]]
    assert vectors_of_norm(Lattice([[-8]]), -2) == []
    assert vectors_of_norm(Lattice([[2]]), 8) == [[2], [-2]]
    assert vectors_of_norm(Lattice([[-8]]), -8, cap=2) == [[1], [-1]]
    with pytest.raises(CapExceeded):
        vectors_of_norm(Lattice([[-8]]), -8, cap=1)


@pytest.mark.parametrize("gram", [[[0, 1], [1, 0]], [[2, 3], [3, 2]], [[-2, 3], [3, -2]]])
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


def test_rho_17_sweep_leaves_no_tracked_objects(monkeypatch):
    # the E8(2) vector cache holds thousands of vectors; stored as tuples of
    # ints they leave the cyclic collector's tracked set, so a full
    # collection does not walk them again. Empty caches make the sweep fill
    # them whatever ran before: kept tuples would skip the enumeration.
    monkeypatch.setattr(embeddings, "_E82_CACHE", {})
    monkeypatch.setattr(embeddings, "_TUPLES", {})
    monkeypatch.setattr(embeddings, "_PREPARED", {})
    gc.collect()
    before = len(gc.get_objects())
    for m in (1, 2, 3):
        for label in product((0, 1), repeat=5):
            if any(label):
                embedding_for_label(17, (m,), label)
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert grown < 100
    assert embeddings._E82_CACHE


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


# ------------------------------------------- kept tuples and parameters

def test_same_gram_twice_yields_the_same_tuples(monkeypatch):
    monkeypatch.setattr(embeddings, "_TUPLES", {})
    gram = [[-8, 0], [0, -12]]
    first = list(islice(iter_tuples_in_e82(gram), 4))
    assert len(first) == 4
    assert list(islice(iter_tuples_in_e82(gram), 4)) == first
    finished, kept = embeddings._TUPLES[((-8, 0), (0, -12))]
    assert not finished and kept == tuple(first)
    assert all(type(x) is int for rows in kept for row in rows for x in row)


def test_reading_past_the_kept_tuples_matches_a_fresh_search(monkeypatch):
    gram = [[-4, -2], [-2, -8]]
    monkeypatch.setattr(embeddings, "_TUPLES", {})
    fresh = list(islice(iter_tuples_in_e82(gram), 7))
    monkeypatch.setattr(embeddings, "_TUPLES", {})
    assert list(islice(iter_tuples_in_e82(gram), 2)) == fresh[:2]
    assert list(islice(iter_tuples_in_e82(gram), 7)) == fresh
    assert list(islice(iter_tuples_in_e82(gram), 3)) == fresh[:3]


def test_a_finished_search_is_replayed_whole(monkeypatch):
    monkeypatch.setattr(embeddings, "_TUPLES", {})
    gram = [[-4, -4], [-4, -4]]  # t1 = t0 spans no primitive rank-2 sublattice
    assert list(iter_tuples_in_e82(gram)) == []
    assert embeddings._TUPLES[((-4, -4), (-4, -4))] == (True, ())
    assert list(iter_tuples_in_e82(gram)) == []


def test_spent_tuple_search_raises_on_every_call(monkeypatch):
    monkeypatch.setattr(embeddings, "_TUPLES", {})
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
