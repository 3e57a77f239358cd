"""Exact matrix and number-theory helpers.

Matrices are lists of row lists of int. Elimination is fraction free
(Bareiss) or unimodular (Smith and Hermite forms), so nothing here meets a
Fraction: ranks are read off the Smith diagonal and inverses are of
unimodular matrices. Nothing here knows about lattices; this layer is pure
linear algebra and elementary arithmetic.
"""

from math import isqrt
from operator import mul


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def copy_mat(m):
    return [list(r) for r in m]


def transpose(m):
    if not m:
        return []
    return [[m[i][j] for i in range(len(m))] for j in range(len(m[0]))]


def mat_mul(a, b):
    if not a or not b:
        return []
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def mat_vec(m, v):
    return [sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m))]


def xgcd(a, b):
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def det_bareiss(m):
    """Determinant of an integer matrix, fraction free."""
    n = len(m)
    if n == 0:
        return 1
    a = copy_mat(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def inverse_unimodular(m):
    """Integer inverse of a square integer matrix of determinant +-1.

    The row span of [I | m] holds (row i of m^-1, e_i) for every i, and
    those rows are exactly its Hermite basis, so the I half of hnf_rows
    is the inverse. Raises ValueError when m is not unimodular.
    """
    n = len(m)
    h = hnf_rows([e + list(r) for e, r in zip(identity(n), m)], 2 * n)
    if [r[n:] for r in h] != identity(n):
        raise ValueError("matrix is not unimodular")
    return [r[:n] for r in h]


def snf_with_transforms(m):
    """Smith form with transforms: returns (d, u, v), u*m*v = d.

    d is diagonal with nonnegative entries and d[i] | d[i+1]. The pivot at
    every stage is the nonzero entry minimizing (abs value, row, col), which
    pins the whole computation down deterministically.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = copy_mat(m)
    u = identity(rows)
    v = identity(cols)

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for r in a:
                r[i], r[j] = r[j], r[i]
            for r in v:
                r[i], r[j] = r[j], r[i]

    def row_sub(i, j, q):
        # row_i -= q * row_j
        if q:
            a[i] = [x - q * y for x, y in zip(a[i], a[j])]
            u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_sub(i, j, q):
        # col_i -= q * col_j
        if q:
            for r in a:
                r[i] -= q * r[j]
            for r in v:
                r[i] -= q * r[j]

    def reduce_at(t):
        while True:
            piv = None
            for i in range(t, rows):
                ai = a[i]
                for j in range(t, cols):
                    if ai[j] != 0:
                        key = (abs(ai[j]), i, j)
                        if piv is None or key < piv:
                            piv = key
            if piv is None:
                return False
            _, pi, pj = piv
            swap_rows(t, pi)
            swap_cols(t, pj)
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    row_sub(i, t, a[i][t] // a[t][t])
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    col_sub(j, t, a[t][j] // a[t][t])
                    if a[t][j]:
                        dirty = True
            if not dirty:
                return True

    t = 0
    while t < min(rows, cols):
        if not reduce_at(t):
            break
        t += 1

    n = min(rows, cols)
    for i in range(n):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]

    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            di, dj = a[i][i], a[i + 1][i + 1]
            if di and dj % di != 0:
                row_sub(i, i + 1, -1)
                reduce_at(i)
                for k in range(i, n):
                    if a[k][k] < 0:
                        a[k] = [-x for x in a[k]]
                        u[k] = [-x for x in u[k]]
                changed = True
                break
            if di == 0 and dj != 0:
                swap_rows(i, i + 1)
                swap_cols(i, i + 1)
                changed = True
                break
    return a, u, v


def snf_diagonal(m):
    d, _, _ = snf_with_transforms(m)
    n = min(len(m), len(m[0]) if m else 0)
    return [d[i][i] for i in range(n)]


def right_kernel_int(m):
    """Basis (list of columns as lists) of {x integer : m*x = 0}, saturated."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if cols == 0:
        return []
    if rows == 0:
        return [[1 if i == j else 0 for i in range(cols)] for j in range(cols)]
    d, _, v = snf_with_transforms(m)
    out = []
    for j in range(cols):
        dj = d[j][j] if j < min(rows, cols) else 0
        if dj == 0:
            out.append([v[i][j] for i in range(cols)])
    return out



def hnf_rows(rows, ncols=None):
    """Canonical basis of the integer row span, lower-triangular style.

    Pivot of each basis row is its last nonzero coordinate; pivots are
    positive, entries in the pivot column of other rows reduced to
    [0, pivot). Returned sorted by pivot position.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    work = [list(r) for r in rows if any(r)]
    basis = {}
    while work:
        r = work.pop()
        while True:
            p = None
            for j in range(ncols - 1, -1, -1):
                if r[j] != 0:
                    p = j
                    break
            if p is None:
                break
            if p not in basis:
                if r[p] < 0:
                    r = [-x for x in r]
                basis[p] = r
                break
            b = basis[p]
            g, x, y = xgcd(b[p], r[p])
            comb = [x * bi + y * ri for bi, ri in zip(b, r)]
            rest = [(b[p] // g) * ri - (r[p] // g) * bi for bi, ri in zip(b, r)]
            basis[p] = comb
            r = rest
    pivots = sorted(basis)
    out = [basis[p] for p in pivots]
    # reduce entries sitting above other pivots
    for idx, p in enumerate(pivots):
        for jdx in range(len(out)):
            if jdx != idx and out[jdx][p] != 0:
                q = out[jdx][p] // out[idx][p]
                out[jdx] = [x - q * y for x, y in zip(out[jdx], out[idx])]
    return out


def prime_factors(n):
    """Prime factorization by trial division, as an ordered dict p -> e."""
    n = abs(n)
    out = {}
    if n <= 1:
        return out
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return dict(sorted(out.items()))


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def val_p(n, p):
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def inv_mod(a, m):
    g, x, _ = xgcd(a % m, m)
    if g != 1:
        raise ValueError("not invertible")
    return x % m


def legendre(a, p):
    """Legendre symbol (a/p) for odd prime p, values in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def crt_pair(r1, m1, r2, m2):
    g, x, _ = xgcd(m1, m2)
    if (r2 - r1) % g != 0:
        raise ValueError("incompatible congruences")
    lcm = m1 // g * m2
    return (r1 + (r2 - r1) // g * x % (m2 // g) * m1) % lcm, lcm


def sqrt_exact(n):
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None
