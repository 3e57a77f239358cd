import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from enrlat.errors import (
    BadShape,
    Degenerate,
    NotEvenGram,
    UnknownTag,
)
from enrlat.fqf import discriminant_form
from enrlat.lattice import (
    DegenerateQuadraticModule,
    Lattice,
    _TAGS,
    direct_sum,
    orthogonal_complement,
    rational_signature,
    rescale,
    standard_lattice,
    sublattice_from_gram_change,
)
from enrlat.intmat import det_bareiss, snf_diagonal

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
    for tag, gram in _TAGS.items():
        lat = standard_lattice(tag)
        assert standard_lattice(tag) is lat
        fresh = Lattice(gram)
        assert (lat.gram, lat.det, lat.signature) == (fresh.gram, fresh.det, fresh.signature)


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
