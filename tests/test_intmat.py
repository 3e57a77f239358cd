import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from enrlat.intmat import (
    crt_pair,
    det_bareiss,
    frac_rows_span_basis,
    hnf_rows,
    identity,
    inv_mod,
    inverse_fraction,
    inverse_unimodular,
    legendre,
    mat_mul,
    prime_factors,
    rational_rank,
    right_kernel_int,
    snf_diagonal,
    snf_with_transforms,
    transpose,
    val_p,
    xgcd,
)
from enrlat.lattice import gram_of_rows

from _oracles import _fraction_inverse, snf_diagonal_by_minor_gcds


def random_matrix(rng, rows, cols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_xgcd_identity():
    rng = random.Random(7)
    for _ in range(300):
        a, b = rng.randint(-500, 500), rng.randint(-500, 500)
        g, x, y = xgcd(a, b)
        assert g == a * x + b * y
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_snf_transform_identity():
    rng = random.Random(11)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        d, u, v = snf_with_transforms(m)
        assert mat_mul(mat_mul(u, m), v) == d
        assert abs(det_bareiss(u)) == 1
        assert abs(det_bareiss(v)) == 1


def test_snf_divisibility_chain():
    rng = random.Random(13)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        diag = [x for x in snf_diagonal(m) if x]
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0


def test_snf_against_minor_gcd_oracle():
    rng = random.Random(17)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), bound=6)
        got = [x for x in snf_diagonal(m) if x]
        assert got == snf_diagonal_by_minor_gcds(m)


def test_bareiss_matches_fraction_elimination():
    rng = random.Random(19)
    for _ in range(50):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n)
        f = [[Fraction(x) for x in row] for row in m]
        det = Fraction(1)
        sign = 1
        ok = True
        for col in range(n):
            piv = next((r for r in range(col, n) if f[r][col]), None)
            if piv is None:
                ok = False
                break
            if piv != col:
                f[col], f[piv] = f[piv], f[col]
                sign = -sign
            det *= f[col][col]
            for r in range(col + 1, n):
                fac = f[r][col] / f[col][col]
                f[r] = [x - fac * y for x, y in zip(f[r], f[col])]
        expected = int(det * sign) if ok else 0
        assert det_bareiss(m) == expected


def test_right_kernel_is_saturated_kernel():
    rng = random.Random(23)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 3), rng.randint(2, 5))
        ker = right_kernel_int(m)
        for row in ker:
            assert all(
                sum(m[i][j] * row[j] for j in range(len(row))) == 0
                for i in range(len(m))
            )
        if ker:
            assert all(x == 1 for x in snf_diagonal(ker))


def test_hnf_reproduces_row_space():
    rng = random.Random(29)
    for _ in range(30):
        m = random_matrix(rng, 3, 4)
        h = hnf_rows(m)
        assert snf_diagonal(m) == snf_diagonal(h)


def test_inverse_fraction_matches_oracle():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        if det_bareiss(m) == 0:
            continue
        got = inverse_fraction(m)
        want = _fraction_inverse([[Fraction(x) for x in row] for row in m])
        assert got == want


def test_crt_pair():
    assert crt_pair(1, 4, 0, 3) == (9, 12)
    rng = random.Random(37)
    for _ in range(100):
        m1, m2 = rng.randint(1, 40), rng.randint(1, 40)
        from math import gcd

        g = gcd(m1, m2)
        r1 = rng.randrange(m1)
        r2 = rng.randrange(m2)
        if (r1 - r2) % g:
            continue
        x, mod = crt_pair(r1, m1, r2, m2)
        assert x % m1 == r1 and x % m2 == r2
        assert mod == m1 * m2 // g


def test_prime_factors_and_valuation():
    assert prime_factors(360) == {2: 3, 3: 2, 5: 1}
    assert val_p(48, 2) == 4
    assert val_p(48, 3) == 1


def test_legendre_small_table():
    # quadratic residues mod 7 are {1, 2, 4}
    assert [legendre(a, 7) for a in range(1, 7)] == [1, 1, -1, 1, -1, -1]
    assert legendre(14, 7) == 0


def test_inv_mod():
    for p in (3, 5, 7, 11):
        for a in range(1, p):
            assert a * inv_mod(a, p) % p == 1


def test_frac_rows_span_basis_halves():
    # group generated by Z^2 and (1/2, 0) is (1/2)Z x Z
    rows = [[Fraction(1, 2), Fraction(0)], [Fraction(1, 2), Fraction(1)]]
    basis = frac_rows_span_basis(rows, 2)
    dens = sorted(x.denominator for r in basis for x in r if x)
    assert len(basis) == 2
    assert dens == [1, 2]
    # index of Z^2 in the bigger group is 2: determinant of the basis is 1/2
    det = basis[0][0] * basis[1][1] - basis[0][1] * basis[1][0]
    assert abs(det) == Fraction(1, 2)


def test_transpose_roundtrip():
    m = [[1, 2, 3], [4, 5, 6]]
    assert transpose(transpose(m)) == m


# ---------------------------------------------- sympy as a second oracle

ORACLE = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@st.composite
def int_matrices(draw):
    """Small integer matrices, often rank deficient: a row may be an
    integer combination of the first row and the row before it."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    m = [[draw(st.integers(-9, 9)) for _ in range(cols)] for _ in range(rows)]
    for i in range(1, rows):
        if draw(st.booleans()):
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            m[i] = [a * x + b * y for x, y in zip(m[i - 1], m[0])]
    return m


@st.composite
def unimodular_matrices(draw):
    """Products of elementary integer matrices: row negations and row
    additions."""
    n = draw(st.integers(1, 6))
    u = identity(n)
    for _ in range(draw(st.integers(0, 15))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            u[i] = [-x for x in u[i]]
        else:
            c = draw(st.integers(-4, 4))
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return u


@ORACLE
@given(int_matrices())
def test_rational_rank_against_sympy(sympy, m):
    assert rational_rank(m) == sympy.Matrix(m).rank()


@ORACLE
@given(unimodular_matrices(), st.integers(0, 5), st.sampled_from((0, 2, -3)))
def test_inverse_unimodular_against_sympy(sympy, u, row, scale):
    inv = inverse_unimodular(u)
    assert sympy.Matrix(inv) == sympy.Matrix(u).inv()
    assert mat_mul(u, inv) == identity(len(u))
    # one row scaled by 0, 2 or -3: singular, or determinant +-2 or +-3
    bad = [list(r) for r in u]
    bad[row % len(u)] = [scale * x for x in bad[row % len(u)]]
    with pytest.raises(ValueError):
        inverse_unimodular(bad)


@ORACLE
@given(int_matrices())
def test_snf_diagonal_against_sympy_invariant_factors(sympy, m):
    from sympy.matrices.normalforms import invariant_factors

    want = [int(x) for x in invariant_factors(sympy.Matrix(m), domain=sympy.ZZ) if x]
    assert [x for x in snf_diagonal(m) if x] == want


@st.composite
def rows_and_grams(draw):
    n = draw(st.integers(1, 5))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            g[i][j] = g[j][i] = draw(st.integers(-6, 6))
    k = draw(st.integers(0, 4))
    ints = [[draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(k)]
    fracs = [
        [Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 6))) for _ in range(n)]
        for _ in range(k)
    ]
    return g, ints, fracs


@ORACLE
@given(rows_and_grams())
def test_gram_of_rows_against_fraction_triple_sum(data):
    g, ints, fracs = data
    n = len(g)

    def direct(rows):
        return [
            [sum((Fraction(x[s]) * g[s][t] * Fraction(y[t]) for s in range(n) for t in range(n)),
                 Fraction(0))
             for y in rows]
            for x in rows
        ]

    got = gram_of_rows(ints, g)
    assert got == direct(ints)
    assert all(type(x) is int for row in got for x in row)
    assert gram_of_rows(fracs, g) == direct(fracs)
