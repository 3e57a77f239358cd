import hashlib
import itertools
import math
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from enrlat import lattice
from enrlat.embeddings import (
    PrimitiveEmbedding,
    embedding_complement,
    embedding_for_label,
    embedding_from_images,
    suggest_params,
)
from enrlat.errors import (
    BadShape,
    Degenerate,
    EnrLatError,
    NotDefinite,
    NotEvenGram,
    UnknownTag,
    ZeroScale,
)
from enrlat.enriques import ambient
from enrlat.fqf import discriminant_form
from enrlat.lattice import (
    DegenerateQuadraticModule,
    Lattice,
    _TAGS,
    _restricted_gram,
    direct_sum,
    gram_of_rows,
    orthogonal_complement,
    rational_signature,
    rescale,
    standard_lattice,
    sublattice_from_gram_change,
    vectors_of_norm,
)
from enrlat.intmat import det_bareiss, hnf_rows, identity, snf_diagonal

from _oracles import maximal_minor_gcd, snf_diagonal_by_minor_gcds


def random_even_lattice(rng, max_rank=5, bound=8, det_cap=40000):
    while True:
        n = rng.randint(1, max_rank)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randint(-bound // 2, bound // 2)
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.randint(-bound, bound)
        try:
            lat = Lattice(g)
        except Degenerate:
            continue
        if abs(lat.det) <= det_cap:
            return lat


# frozen reference grams, byte for byte

U_GRAM = ((0, 1), (1, 0))
U2_GRAM = ((0, 2), (2, 0))
E8_GRAM = (
    (-2, 0, 1, 0, 0, 0, 0, 0),
    (0, -2, 0, 1, 0, 0, 0, 0),
    (1, 0, -2, 1, 0, 0, 0, 0),
    (0, 1, 1, -2, 1, 0, 0, 0),
    (0, 0, 0, 1, -2, 1, 0, 0),
    (0, 0, 0, 0, 1, -2, 1, 0),
    (0, 0, 0, 0, 0, 1, -2, 1),
    (0, 0, 0, 0, 0, 0, 1, -2),
)


def test_standard_tags_frozen():
    assert standard_lattice("U").gram == U_GRAM
    assert standard_lattice("U2").gram == U2_GRAM
    assert standard_lattice("E8").gram == E8_GRAM
    e82 = standard_lattice("E82")
    assert e82.gram == tuple(tuple(2 * x for x in row) for row in E8_GRAM)


def test_standard_tag_invariants():
    m = standard_lattice("M")
    n = standard_lattice("N")
    lam = standard_lattice("Lambda")
    assert m.rank == 10 and m.signature == (1, 9) and abs(m.det) == 1024
    assert n.rank == 12 and n.signature == (2, 10) and abs(n.det) == 1024
    assert lam.rank == 22 and lam.signature == (3, 19) and abs(lam.det) == 1
    with pytest.raises(UnknownTag):
        standard_lattice("nope")


def test_standard_lattice_is_built_once_per_tag():
    for tag, lat in _TAGS.items():
        assert standard_lattice(tag) is lat
        fresh = Lattice(lat.gram)
        assert (lat.gram, lat.det, lat.signature) == (fresh.gram, fresh.det, fresh.signature)
    # every alias names the one instance
    assert standard_lattice("n") is standard_lattice("N") is ambient()
    assert len({id(lat) for lat in _TAGS.values()}) == 7


def test_constructor_rejects_bad_grams():
    with pytest.raises(NotEvenGram):
        Lattice([[1]])
    with pytest.raises(Degenerate):
        Lattice([[2, 2], [2, 2]])
    with pytest.raises(BadShape):
        Lattice([[2, 0]])


def test_det_equals_discriminant_group_order():
    rng = random.Random(41)
    for _ in range(25):
        lat = random_even_lattice(rng)
        form = discriminant_form(lat)
        assert form.group_order == abs(lat.det)


def test_rescale_scales_det_by_power():
    rng = random.Random(43)
    for _ in range(20):
        lat = random_even_lattice(rng, max_rank=4)
        s = rng.choice((2, 3, 5))
        big = rescale(lat, s)
        assert big.det == lat.det * s ** lat.rank
        pos, neg = lat.signature
        assert big.signature == (pos, neg)


def test_rescale_takes_no_bool_as_a_scale():
    # a JSON true is no integer: True must not scale by 1
    lat = Lattice([[2]])
    for s in (True, False, 0, 2.0):
        with pytest.raises(ZeroScale):
            rescale(lat, s)
    assert rescale(lat, -1).gram == ((-2,),)


def test_signature_of_direct_sum_adds():
    u = standard_lattice("U")
    e8 = standard_lattice("E8")
    both = direct_sum(u, e8)
    assert both.signature == (1, 9)
    assert both.det == u.det * e8.det


def test_scaled_rows_close_to_unit_index():
    # the span of the rows has index 6 in its saturation: the product of
    # their Smith diagonal
    rows = [[2, 0, 0, 0, 0, 0, 0, 0], [0, 3, 0, 0, 0, 0, 0, 0]]
    assert math.prod(snf_diagonal(rows)) == 6
    assert math.prod(snf_diagonal_by_minor_gcds(rows)) == 6


def test_complement_is_saturated():
    rng = random.Random(53)
    n_amb = standard_lattice("N")
    for _ in range(10):
        v = [rng.randint(-2, 2) for _ in range(12)]
        if not any(v):
            continue
        rows, module = orthogonal_complement(n_amb, [v])
        for r in rows:
            assert n_amb.bilinear(r, v) == 0
        assert maximal_minor_gcd(rows) == 1


def test_complement_of_unimodular_summand():
    n_amb = standard_lattice("N")
    rows, module = orthogonal_complement(
        n_amb, [[1, 0] + [0] * 10, [0, 1] + [0] * 10]
    )
    assert isinstance(module, Lattice)
    assert module.rank == 10
    assert abs(module.det) == 1024
    assert module.signature == (1, 9)


def test_sublattice_from_gram_change():
    e8 = standard_lattice("E8")
    rows = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
    sub = sublattice_from_gram_change(e8, rows)
    assert sub.det == e8.det * 2 ** 16


def test_degenerate_restrictions_are_modules():
    # e = (1, 0, 0) of U + [2] is isotropic and lies in its own complement
    lat = Lattice([[0, 1, 0], [1, 0, 0], [0, 0, 2]])
    rows, module = orthogonal_complement(lat, [[1, 0, 0]])
    assert rows == [[1, 0, 0], [0, 0, 1]]
    assert isinstance(module, DegenerateQuadraticModule)
    assert module.gram == ((0, 0), (0, 2))
    assert (module.rank, module.radical_rank) == (2, 1)
    sub = sublattice_from_gram_change(lat, [[1, 0, 0]])
    assert isinstance(sub, DegenerateQuadraticModule)
    assert (sub.gram, sub.radical_rank) == (((0,),), 1)
    assert isinstance(sublattice_from_gram_change(lat, [[1, 1, 0]]), Lattice)


def test_one_elimination_gives_det_and_signature():
    # the constructor reads both off the elimination rational_signature
    # runs; det_bareiss is a second, unsymmetric elimination
    rng = random.Random(41)
    built = 0
    for _ in range(3000):
        n = rng.randint(0, 7)
        zero_diag = rng.random() < 0.4
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 0 if zero_diag and rng.random() < 0.8 else 2 * rng.randint(-4, 4)
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.choice((0, rng.randint(-5, 5)))
        det = det_bareiss(g)
        if det == 0:
            with pytest.raises(Degenerate):
                Lattice(g)
            continue
        lat = Lattice(g)
        assert lat.det == det
        assert lat.signature == rational_signature(g)[:2]
        assert sum(lat.signature) == n
        built += 1
    assert built > 2000


def test_rational_signature_handles_zero_diagonal():
    assert rational_signature([[0, 1], [1, 0]]) == (1, 1, 0)
    assert rational_signature([[0, 0], [0, 0]]) == (0, 0, 2)
    assert rational_signature([[2, 0], [0, -2]]) == (1, 1, 0)


@st.composite
def symmetric_int_matrices(draw):
    """Symmetric integer matrices of size 0..6, often with a zero diagonal
    and often singular: the last row may be a multiple of the first."""
    n = draw(st.integers(0, 6))
    zero_diag = draw(st.booleans())
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 0 if zero_diag else draw(st.integers(-6, 6))
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(st.integers(-5, 5))
    if n > 1 and draw(st.booleans()):
        a = draw(st.integers(-2, 2))
        g[-1] = [a * x for x in g[0]]
        for i in range(n):
            g[i][-1] = g[-1][i]
        g[-1][-1] = a * a * g[0][0]
    return g


def _sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(symmetric_int_matrices())
def test_rational_signature_against_sympy_inertia(g):
    sympy = pytest.importorskip("sympy")
    # a real symmetric matrix has only real eigenvalues, so Descartes' rule
    # of signs on its characteristic polynomial counts them exactly
    x = sympy.Symbol("x")
    poly = sympy.Matrix(g).charpoly(x) if g else sympy.Poly(1, x)
    coeffs = poly.all_coeffs()
    zero = len(coeffs) - 1 - max(i for i, c in enumerate(coeffs) if c != 0)
    flipped = [c * (-1) ** (len(coeffs) - 1 - i) for i, c in enumerate(coeffs)]
    assert rational_signature(g) == (_sign_changes(coeffs), _sign_changes(flipped), zero)


# ------------------------------------------------ complements, pinned

LABEL_LENGTH = {20: 2, 19: 3, 18: 4, 17: 5}


def _label_embeddings():
    """The embedding of every nonzero label the tables give for
    suggest_params(rho, seed), rho 17 to 20 and seeds 0 to 2."""
    out = []
    for rho in (17, 18, 19, 20):
        for seed in range(3):
            for params in suggest_params(rho, seed):
                for label in itertools.product((0, 1), repeat=LABEL_LENGTH[rho]):
                    if any(label):
                        out.append(embedding_for_label(rho, params, label))
    return out


def _label_rows():
    return [[list(r) for r in emb.images] for emb in _label_embeddings()]


def _random_rows_in_n(rng, count):
    """count seeded row sets of 1 to 6 rows in N: plain, with a scaled
    (non-primitive) row, with a dependent row, and with an isotropic basis
    vector of U that every other row is orthogonal to, so that the rows'
    gram is degenerate."""
    out = []
    for case in range(count):
        k = rng.randint(1, 6)
        rows = [[rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(12)] for _ in range(k)]
        kind = case % 4
        if kind == 1:
            rows[-1] = [rng.choice((2, 3)) * x for x in rows[-1]]
        elif kind == 2 and k > 1:
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1 % (k - 1)])]
        elif kind == 3:
            e = rng.randrange(2)
            rows[0] = [1 if i == e else 0 for i in range(12)]
            for r in rows[1:]:
                r[1 - e] = 0
        out.append(rows)
    return out


def _unit(n, *idx):
    return [[1 if i == j else 0 for j in range(n)] for i in idx]


def _complement_cases():
    """(tag, rows) inputs of the pinned complement outputs."""
    cases = [("N", rows) for rows in _label_rows()]
    cases += [("N", rows) for rows in _random_rows_in_n(random.Random(2029), 400)]
    cases += [
        ("E8", _unit(8, 0)),
        ("E8", _unit(8, 0, 2)),
        ("E8", [[2, 0, 0, 0, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0, 0, 0]]),
        ("E8", _unit(8, *range(8))),
        ("E8", _unit(8, 0, 0)),
        ("Lambda", _unit(22, 16, 17)),
        ("Lambda", _unit(22, 16)),
        ("Lambda", [[1] * 22, [0] * 16 + [1, 1, 0, 0, 0, 0]]),
        ("Lambda", _unit(22, *range(8), 16, 18)),
    ]
    rng = random.Random(2030)
    for _ in range(40):
        k = rng.randint(1, 5)
        cases.append(("Lambda", [[rng.choice((0, 0, 0, rng.randint(-2, 2))) for _ in range(22)]
                                 for _ in range(k)]))
    return cases


def _outcome(call):
    try:
        return call()
    except EnrLatError as e:
        return type(e).__name__, str(e)


def _module_key(module):
    if isinstance(module, Lattice):
        return type(module).__name__, module.gram, module.det, module.signature
    return type(module).__name__, module.gram, module.radical_rank


def _complement_lines():
    lines = []
    for tag, rows in _complement_cases():
        lat = standard_lattice(tag)
        basis, module = orthogonal_complement(lat, rows)
        sub = _outcome(lambda: sublattice_from_gram_change(lat, rows))
        line = [tag, rows, basis, _module_key(module),
                _module_key(sub) if isinstance(sub, (Lattice, DegenerateQuadraticModule)) else sub]
        if tag == "N" and isinstance(sub, Lattice):
            for source in (sub, rescale(sub, 3)):
                got = _outcome(lambda: embedding_from_images(source, rows))
                line.append(got.images if isinstance(got, PrimitiveEmbedding) else got)
        lines.append(repr(line))
    return lines


# sha256 of orthogonal_complement's basis and module (gram with det and
# signature, or radical rank), sublattice_from_gram_change's module and
# embedding_from_images' outcome, on the label images of the tables, on
# seeded row sets in N and on a few in E8 and Lambda
COMPLEMENT_DIGEST = "6c164e4932aba9e6c8717c44d69cf82a3efe4a747568ca90190f47b978168645"


def test_complement_outputs_are_pinned():
    lines = _complement_lines()
    assert len(lines) == 504 + 400 + 49
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == COMPLEMENT_DIGEST


def test_complement_invariants_match_its_gram():
    # the det and signature read off the Smith factors and the rows' gram
    # are those of one elimination of the complement's gram, and the
    # complement is degenerate exactly when the form is on the rows' span
    degenerate = 0
    for tag, rows in _complement_cases():
        lat = standard_lattice(tag)
        basis, module = orthogonal_complement(lat, rows)
        span = hnf_rows(rows)
        singular = rational_signature(gram_of_rows(span, lat.gram))[2] > 0
        assert isinstance(module, DegenerateQuadraticModule) == singular
        if singular:
            assert module.radical_rank == rational_signature(module.gram)[2] > 0
            degenerate += 1
            continue
        fresh = Lattice(list(module.gram))
        assert (module.rank, module.det, module.signature) == (fresh.rank, fresh.det,
                                                               fresh.signature)
        assert module == fresh and hash(module) == hash(fresh)
    assert degenerate == 111 + 4


def test_embedding_complement_matches_the_general_complement():
    # the complement read off an embedding's source and kept products is
    # the one orthogonal_complement finds by eliminating S afresh, on the
    # label embeddings of the pinned cases and on a rank-0 source, whose
    # complement is all of N on the identity basis
    embs = _label_embeddings() + [embedding_from_images([], [])]
    assert len(embs) == 504 + 1
    for emb in embs:
        rows = [list(r) for r in emb.images]
        basis, comp = embedding_complement(emb)
        want_basis, want = orthogonal_complement(emb.ambient, rows)
        fresh = Lattice(list(comp.gram))
        assert (basis, comp.gram, comp.det, comp.signature) == (
            want_basis, want.gram, want.det, want.signature)
        assert (comp, comp.det, comp.signature) == (fresh, fresh.det, fresh.signature)
        # the kept products leave equality, hash and repr as they were
        again = embedding_from_images(emb.source, rows)
        bare = PrimitiveEmbedding(emb.source, emb.images, emb.ambient)
        assert again == emb == bare and hash(again) == hash(emb) == hash(bare)
        assert repr(again) == repr(bare) == (
            "PrimitiveEmbedding(source=%r, images=%r, ambient=%r)"
            % (emb.source, emb.images, emb.ambient))
        assert embedding_complement(bare) == (basis, comp)
    assert embedding_complement(embs[-1]) == (identity(12), standard_lattice("N"))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 10**9), st.integers(1, 11), st.sampled_from((1, 1, 2, 3)))
def test_complement_of_unimodular_rows_against_its_gram(seed, k, scale):
    # the first k rows of a seeded unimodular change of N's basis, the
    # last one scaled (so not always primitive)
    rng = random.Random(seed)
    n_amb = standard_lattice("N")
    u = [[1 if i == j else 0 for j in range(12)] for i in range(12)]
    for _ in range(30):
        i, j = rng.sample(range(12), 2)
        c = rng.randint(-2, 2)
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    rows = u[:k]
    rows[-1] = [scale * x for x in rows[-1]]
    s_gram = gram_of_rows(rows, n_amb.gram)
    assume(det_bareiss(s_gram))
    basis, module = orthogonal_complement(n_amb, rows)
    fresh = Lattice(list(module.gram))
    assert module.rank == 12 - k
    assert (module.det, module.signature) == (fresh.det, fresh.signature)
    assert module == fresh and hash(module) == hash(fresh)
    assert all(n_amb.bilinear(b, r) == 0 for b in basis for r in rows)


# ------------------------------- the sparse pairing against a dense one

def _dense_gram(rows, g):
    """rows * g * rows^T entry by entry over the full width: no entry is
    skipped for being zero."""
    n = len(g)
    return [[sum(x[s] * g[s][t] * y[t] for s in range(n) for t in range(n)) for y in rows]
            for x in rows]


@st.composite
def _rows_of_every_density(draw, width):
    """0..6 rows of the given width, each a zero row, a row with one
    nonzero entry, a row with some, or a row with none zero."""
    entry = st.integers(-9, 9).filter(bool)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("zero", "one", "some", "dense")))
        if kind == "dense":
            rows.append([draw(entry) for _ in range(width)])
        elif kind == "some":
            rows.append([draw(st.sampled_from((0, 0, draw(entry)))) for _ in range(width)])
        else:
            row = [0] * width
            if kind == "one":
                row[draw(st.integers(0, width - 1))] = draw(entry)
            rows.append(row)
    return rows


_N_DENSE = [[(-1) ** j * (j % 5 + 1) for j in range(12)]]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(("N", "E82")).flatmap(
    lambda tag: st.tuples(st.just(tag), _rows_of_every_density(len(standard_lattice(tag).gram)))))
@example(("N", []))
@example(("N", [[0] * 12]))
@example(("N", [[0] * 5 + [2] + [0] * 6]))
@example(("N", _N_DENSE))
@example(("N", _N_DENSE + [[0] * 12] + _N_DENSE))
@example(("N", [[1] + [0] * 11, [0, 0, 1] + [0] * 9]))
@example(("E82", [[j - 9 for j in range(8)], [0] * 8]))
def test_sparse_pairing_matches_a_dense_gram(case):
    """_restricted_gram pairs each product with the rows' nonzero entries
    alone; a dense rows * G * rows^T gives the same gram. On N a gram S
    that is singular (a zero row, repeated rows, isotropic rows) sends
    orthogonal_complement down its degenerate branch, whose module gram
    is the dense gram of the basis it returns."""
    tag, rows = case
    lat = standard_lattice(tag)
    g = [list(r) for r in lat.gram]
    assert _restricted_gram(lat, rows) == _dense_gram(rows, g)
    if tag != "N":
        return
    basis, module = orthogonal_complement(lat, rows)
    assert [list(r) for r in module.gram] == _dense_gram(basis, g)
    assert all(_dense_gram([b, r], g)[0][1] == 0 for b in basis for r in rows)
    assert getattr(module, "radical_rank", 0) == rational_signature(module.gram)[2]


@st.composite
def _even_gram_and_rows(draw):
    n = draw(st.integers(1, 7))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2 * draw(st.integers(-4, 4))
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(st.sampled_from((0, draw(st.integers(-5, 5)))))
    return g, draw(_rows_of_every_density(n))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_even_gram_and_rows())
@example(([[2]], []))
@example(([[0, 1], [1, 0]], [[0, 0]]))
@example(([[2, -1], [-1, 2]], [[0, 3]]))
@example(([[2, -1], [-1, 2]], [[4, -3], [0, 0], [4, -3]]))
def test_gram_of_rows_matches_a_dense_gram(case):
    # a raw gram: the product by mat_mul, paired with the rows' nonzero
    # entries found by one comprehension
    g, rows = case
    assert gram_of_rows(rows, g) == _dense_gram(rows, g)


def test_enumeration_elimination_work_is_pinned(monkeypatch):
    # A Lattice keeps its walk's LDL^T from the one elimination that gave
    # its det and signature, and so does a definite restriction (_module).
    # A Lattice._known one eliminates on its first call and keeps the
    # result; an indefinite one keeps nothing, so every call eliminates
    # and is refused alike.
    e8 = [list(r) for r in E8_GRAM]
    built = Lattice(e8)
    known = Lattice._known(e8, built.det, built.signature)
    restricted = sublattice_from_gram_change(built, [[1] + [0] * 7, [0, 0, 1] + [0] * 5])
    indefinite = Lattice([[2, 3], [3, 2]])
    calls = []
    kernel = lattice.eliminate_symmetric

    def counted(m):
        calls.append(1)
        return kernel(m)

    monkeypatch.setattr(lattice, "eliminate_symmetric", counted)

    def run(lat, value):
        calls.clear()
        try:
            return len(vectors_of_norm(lat, value)), len(calls)
        except NotDefinite as err:
            return str(err), len(calls)

    refused = ("enumeration requires a definite lattice", 1)
    assert [run(built, -2), run(built, -4), run(restricted, -2)] == [(240, 0), (2160, 0), (6, 0)]
    assert [run(known, -2), run(known, -4)] == [(240, 1), (2160, 0)]
    assert [run(indefinite, 2), run(indefinite, 2)] == [refused, refused]
    assert run(Lattice([]), -2) == (0, 0)


def _cartan(kind, n):
    """Negated Cartan matrix of A_n, D_n (n >= 4) or E_n (n = 6, 7, 8)."""
    if kind == "E":
        return [list(r[:n]) for r in E8_GRAM[:n]]
    edges = [(i, i + 1) for i in range(n - 2)] + [(n - 2 if kind == "A" else n - 3, n - 1)]
    g = [[-2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in edges:
        g[i][j] = g[j][i] = 1
    return g


def _random_definite(rng):
    """-2 R R^T for a seeded lower-triangular R of rank 2..8, diagonal 1 or
    2 and entries -1, 0, 1 below it."""
    r = rng.randint(2, 8)
    rows = [[rng.choice((-1, 0, 0, 1)) if j < i else rng.choice((1, 1, 2)) * (i == j)
             for j in range(r)] for i in range(r)]
    return [[-2 * sum(map(math.prod, zip(x, y))) for y in rows] for x in rows]


def test_kept_elimination_equals_a_fresh_one():
    # the walk over the LDL^T a Lattice keeps lists what a Lattice._known
    # one, which eliminates on its call, lists; -G walks the same matrix
    rng = random.Random(48)
    cases = [(_random_definite(rng), v) for _ in range(12) for v in (-2, -4)]
    cases += [(_cartan(kind, n), -2) for kind, n in
              [("A", n) for n in range(2, 25)] + [("D", n) for n in range(4, 25)]
              + [("E", n) for n in (6, 7, 8)]]
    cases += [(_cartan("E", 8), -4), (_cartan("D", 6), -4)]
    found = 0
    for g, v in cases:
        lat = Lattice(g)
        got = vectors_of_norm(lat, v)
        assert vectors_of_norm(Lattice._known(g, lat.det, lat.signature), v) == got
        assert vectors_of_norm(Lattice([[-x for x in r] for r in g]), -v) == got
        found += bool(got)
    assert found == 49 + 21  # every root lattice case and 21 of the 24 seeded ones
