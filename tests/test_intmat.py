import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from enrlat.errors import CapExceeded
from enrlat.intmat import (
    FACTOR_CAP,
    _kernel_and_factors,
    _smith,
    det_bareiss,
    hnf_rows,
    identity,
    is_prime,
    legendre,
    mat_mul,
    prime_factors,
    snf_diagonal,
    transpose,
    val_p,
    xgcd,
)
from enrlat.lattice import gram_of_rows

from _oracles import snf_diagonal_by_minor_gcds


def random_matrix(rng, rows, cols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def smith_with_transforms(m):
    """(d, u, v) with u*m*v = d, from the Smith core with both transforms."""
    d, u, vt = _smith(m, True, True)
    return d, u, transpose(vt)


def kernel(m):
    return _kernel_and_factors(m)[0]


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
        d, u, v = smith_with_transforms(m)
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


# the divisibility fix once took a pivot from further down the diagonal of
# this matrix and left the block [[4, -10], [-4, 20]] below it, read as the
# factors 4 and 20
CHAIN_FIX = [[0, -5, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 2, 0, 0, 0, -4],
             [0, 0, 0, 0, 0, 0, 0, 4, 0], [0, 0, -5, 0, 0, 0, 0, 0, -9],
             [0, 0, 9, 0, 0, 0, 5, 0, 0]]


def test_snf_is_diagonal_after_the_divisibility_fix():
    m = CHAIN_FIX
    d, u, v = smith_with_transforms(m)
    assert mat_mul(mat_mul(u, m), v) == d
    assert all(d[i][j] == 0 for i in range(5) for j in range(9) if i != j)
    assert [d[i][i] for i in range(5)] == [1, 1, 1, 2, 20]
    assert snf_diagonal(m) == [1, 1, 1, 2, 20]
    assert snf_diagonal_by_minor_gcds(m) == [1, 1, 1, 2, 20]
    assert len(kernel(m)) == 4


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
        ker = kernel(m)
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


def test_prime_factors_and_valuation():
    assert prime_factors(360) == {2: 3, 3: 2, 5: 1}
    assert val_p(48, 2) == 4
    assert val_p(48, 3) == 1


def test_prime_factors_stops_past_its_divisor_cap():
    # 1048573 is the largest prime below 2^20, 1048583 and 1048589 the next two
    assert FACTOR_CAP == 1 << 20
    assert prime_factors(2 * 1048573 * 1048583) == {2: 1, 1048573: 1, 1048583: 1}
    with pytest.raises(CapExceeded, match="reached divisor 1048577, over its cap of 1048576"):
        prime_factors(1048583 * 1048589)


def test_is_prime_answers_below_its_divisor_cap():
    # a sieve up to 20,000, then n around the cap and its square: 2^40 - 87
    # is the largest prime below 2^40
    sieve = [True] * 20000
    sieve[0] = sieve[1] = False
    for p in range(2, 142):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(range(p * p, 20000, p))
    assert [is_prime(n) for n in range(-3, 20000)] == [False] * 3 + sieve
    assert is_prime(1048573) and is_prime(1048583) and not is_prime(1048575)
    assert is_prime((1 << 40) - 87)
    assert not is_prime(1048573 * 1048583)
    with pytest.raises(CapExceeded, match="reached divisor 1048577, over its cap of 1048576"):
        is_prime(1048583 * 1048589)


def test_legendre_small_table():
    # quadratic residues mod 7 are {1, 2, 4}
    assert [legendre(a, 7) for a in range(1, 7)] == [1, 1, -1, 1, -1, -1]
    assert legendre(14, 7) == 0


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


@ORACLE
@given(int_matrices())
def test_rational_rank_against_sympy(sympy, m):
    # the rank over Q is the number of nonzero Smith invariants
    assert sum(1 for d in snf_diagonal(m) if d) == sympy.Matrix(m).rank()


def test_smith_carried_inverses_against_sympy(sympy):
    rng = random.Random(41)
    mats = [CHAIN_FIX]
    for _ in range(80):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        if len(m) > 2 and rng.random() < 0.5:
            # rank deficient: the last row a combination of the first two
            m[-1] = [2 * x - 3 * y for x, y in zip(m[0], m[1])]
        mats.append(m)
    for m in mats:
        d, u, vt = _smith(m, True, True)
        d_inv, uinv_t, vinv = _smith(m, True, True, inverse=True)
        assert d_inv == d
        # each inverse alone is the same as when both are carried
        assert _smith(m, False, True, inverse=True)[2] == vinv
        assert _smith(m, True, False, inverse=True)[1] == uinv_t
        v, uinv = transpose(vt), transpose(uinv_t)
        assert mat_mul(v, vinv) == identity(len(v))
        assert mat_mul(uinv, u) == identity(len(u))
        assert sympy.Matrix(vinv) == sympy.Matrix(v).inv()
        assert sympy.Matrix(uinv) == sympy.Matrix(u).inv()


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


# ------------------------------------- pinned outputs of the kernels

def _kernel_matrices(rng, count):
    """Seeded matrices of 1-6 rows and 1-13 columns: dense, sparse, small
    and large entries, and rank deficient ones whose rows combine
    earlier rows."""
    out = []
    for _ in range(count):
        rows, cols = rng.randint(1, 6), rng.randint(1, 13)
        bound = rng.choice((1, 2, 4, 9, 40))
        zero = rng.choice((0.0, 0.3, 0.7))
        m = [[0 if rng.random() < zero else rng.randint(-bound, bound) for _ in range(cols)]
             for _ in range(rows)]
        if rows > 1 and rng.random() < 0.3:
            i = rng.randrange(1, rows)
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            m[i] = [a * x + b * y for x, y in zip(m[i - 1], m[0])]
        out.append(m)
    return out


def _symmetric(rng, n):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            g[i][j] = g[j][i] = rng.randint(-6, 6)
    return g


# sha256 of the outputs of smith_with_transforms, snf_diagonal, kernel
# and gram_of_rows on 2,000 seeded matrices
KERNEL_DIGEST = "6d0ab173c32e773406ee789d3351ac63e797cd9dab353e02d3f75aa1b49f9cda"


def test_kernel_outputs_are_pinned():
    rng = random.Random(2024)
    lines = []
    for m in _kernel_matrices(rng, 2000):
        g = _symmetric(rng, len(m[0]))
        lines.append(repr((m, smith_with_transforms(m), snf_diagonal(m), kernel(m),
                           gram_of_rows(m, g))))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == KERNEL_DIGEST


def _product_pairs(rng, count):
    """count seeded pairs (a, b) of 1 to 14 rows and columns, from dense to
    mostly zero, some with unit entries only."""
    out = []
    for _ in range(count):
        r, k, c = rng.randint(1, 14), rng.randint(1, 14), rng.randint(1, 14)
        bound = rng.choice((1, 3, 50, 10**12))
        za, zb = rng.choice((0.0, 0.4, 0.6, 0.9)), rng.choice((0.0, 0.5, 0.9))
        a = [[0 if rng.random() < za else rng.randint(-bound, bound) for _ in range(k)]
             for _ in range(r)]
        b = [[0 if rng.random() < zb else rng.randint(-bound, bound) for _ in range(c)]
             for _ in range(k)]
        out.append((a, b))
    return out


# sha256 of mat_mul on 1,500 seeded pairs
MAT_MUL_DIGEST = "5beb8b0ac561d3cae042932d8277b6132a201f417be0f950a842aa740c913225"


def test_mat_mul_outputs_are_pinned():
    lines = [repr((a, b, mat_mul(a, b))) for a, b in _product_pairs(random.Random(28), 1500)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == MAT_MUL_DIGEST
