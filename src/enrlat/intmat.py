"""Exact matrix and number-theory helpers.

Matrices are lists of row lists of int. Elimination is fraction free
(Bareiss) or unimodular (Smith and Hermite forms), so nothing here meets a
Fraction: ranks are read off the Smith diagonal. Matrix products are
`mat_mul`'s, a raw gram's in `lattice.gram_of_rows` too; only a Lattice
multiplies by its own gram's kept nonzero entries. Every symmetric
elimination is `eliminate_symmetric`'s: the determinant and signature of
a Lattice and the LDL^T of the norm enumeration
(`embeddings.vectors_of_norm`) all come from it. The Smith forms share one
core (`_smith`) that carries each transform, or its inverse, only when its
caller reads it: `snf_diagonal` carries neither, the kernel
(`_kernel_and_factors`) only the column transform, and it reads the
invariant factors off the same diagonal; the discriminant form
(`fqf._dual_basis`) carries both. A modular inverse is the standard
library's pow(x, -1, m) wherever it is needed. Nothing here knows about
lattices; this layer is pure linear algebra and elementary arithmetic.
"""

from math import isqrt
from operator import mul

from .errors import CapExceeded


def identity(n):
    rows = [[0] * n for _ in range(n)]
    for i, r in enumerate(rows):
        r[i] = 1
    return rows


def transpose(m):
    if not m:
        return []
    return [[m[i][j] for i in range(len(m))] for j in range(len(m[0]))]


def mat_mul(a, b):
    """a * b. A row of a with at most half its entries nonzero gives the
    sum of the rows of b it selects; any other row one dot product per
    column of b."""
    if not a or not b:
        return []
    cols = None
    out = []
    for row in a:
        if 2 * (len(row) - row.count(0)) <= len(row):
            acc = [0] * len(b[0])
            for x, r in zip(row, b):
                if x:
                    acc = [s + x * y for s, y in zip(acc, r)]
        else:
            cols = cols or list(zip(*b))
            acc = [sum(map(mul, row, col)) for col in cols]
        out.append(acc)
    return out


def mat_vec(m, v):
    return [sum(map(mul, row, v)) for row in m]


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
    a = [list(r) for r in m]
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


def eliminate_symmetric(m):
    """(positive, negative, zero, det, rows) of a symmetric integer matrix:
    its inertia over Q, its determinant and its eliminated rows, from one
    fraction-free symmetric elimination.

    With diagonal pivots every remaining entry is a minor of the matrix, so
    the division by the previous pivot is exact, as in det_bareiss, and
    pivot k, rows[k][k], is the leading principal minor D_(k+1) (D_0 = 1):
    its Schur pivot D_(k+1) / D_k contributes its sign, and the last pivot
    is the determinant. Row k of rows, from its diagonal on, is the row
    pivot k eliminates with, the row B_k of a fraction-free LDL^T; the
    entries left of its diagonal are not part of it. A zero pivot is swapped, row and
    column, for a later nonzero diagonal entry. When every remaining
    diagonal entry is zero but a_ij is not, e_i + e_j has norm 2 a_ij and
    takes the place of e_i, a unimodular change of basis. Both keep the
    inertia and the determinant. A remaining block that is zero is the
    radical: zero counts its rows and det is 0.
    """
    a = [list(r) for r in m]
    n = len(a)
    pos = neg = 0
    prev = 1
    for k in range(n):
        if not a[k][k]:
            i = next((i for i in range(k + 1, n) if a[i][i]), None)
            j = None
            if i is None:
                i, j = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j]),
                            (None, None))
                if i is None:
                    return pos, neg, n - k, 0, a
            a[k], a[i] = a[i], a[k]
            for r in a:
                r[k], r[i] = r[i], r[k]
            if j is not None:
                a[k] = [x + y for x, y in zip(a[k], a[j])]
                for r in a:
                    r[k] += r[j]
        p = a[k][k]
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        col = a[k]
        for u in range(k + 1, n):
            row, cu = a[u], col[u]
            for w in range(k + 1, n):
                row[w] = (p * row[w] - cu * col[w]) // prev
        prev = p
    return pos, neg, 0, prev, a


def _smith(m, want_u, want_v, inverse=False):
    """Smith form of m as (a, u, vt): u*m*v = a, vt the transpose of v.

    u is carried only when want_u is set and vt only when want_v is set;
    the other is None. vt holds the columns of v as rows, so a column
    operation on v changes one row of vt. With inverse set, the inverse
    transposes u^-T and v^-1 take the places of u and vt: each elementary
    operation E on u or vt acts as E^-T there, again on rows. The pivot at
    every stage is the nonzero entry minimizing (abs value, row, col),
    which pins the whole computation down deterministically; the scan
    takes each row's least absolute value and stops at the first row
    holding a unit.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(r) for r in m]
    u = identity(rows) if want_u else None
    vt = identity(cols) if want_v else None

    def swap(t, i, j):
        if i != t:
            a[t], a[i] = a[i], a[t]
            if u is not None:
                u[t], u[i] = u[i], u[t]
        if j != t:
            for r in a:
                r[t], r[j] = r[j], r[t]
            if vt is not None:
                vt[t], vt[j] = vt[j], vt[t]

    def row_sub(i, j, q):
        # row_i -= q * row_j; on u^-T, row_j += q * row_i
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        if u is not None and inverse:
            u[j] = [y + q * x for x, y in zip(u[i], u[j])]
        elif u is not None:
            u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]

    def reduce_at(t):
        while True:
            best = None
            for i in range(t, rows):
                mags = list(map(abs, a[i][t:]))
                least = min(filter(None, mags), default=0)
                if least and (best is None or least < best[0]):
                    best = (least, i, t + mags.index(least))
                    if least == 1:
                        break
            if best is None:
                return False
            swap(t, best[1], best[2])
            piv = a[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    row_sub(i, t, a[i][t] // piv)
                    if a[i][t]:
                        dirty = True
            # every column j > t takes col_j -= q_j * col_t at once
            qs = [x // piv for x in a[t][t + 1:]]
            if any(qs):
                for r in a:
                    c = r[t]
                    if c:
                        r[t + 1:] = [x - q * c for x, q in zip(r[t + 1:], qs)]
                if vt is not None and inverse:
                    # on v^-1, row_t += q_j * row_j for every j
                    for j, q in enumerate(qs, t + 1):
                        if q:
                            vt[t] = [x + q * y for x, y in zip(vt[t], vt[j])]
                elif vt is not None:
                    # col_t of v starts as a unit vector and stays sparse
                    col = [(k, y) for k, y in enumerate(vt[t]) if y]
                    for j, q in enumerate(qs, t + 1):
                        if q:
                            vj = vt[j]
                            for k, y in col:
                                vj[k] -= q * y
                dirty = dirty or any(a[t][t + 1:])
            if not dirty:
                return True

    n = min(rows, cols)

    def reduce_from(t):
        # stages t, t + 1, ... then nonnegative pivots from t on
        s = t
        while s < n and reduce_at(s):
            s += 1
        for k in range(t, n):
            if a[k][k] < 0:
                negate_row(k)

    def diagonal(t):
        # rows and columns from t hold nothing off the diagonal
        return not any(any(r[t:k]) or any(r[k + 1:]) for k, r in enumerate(a[t:], t))

    def enforce_chain(eager):
        # make d[i] | d[i+1]; returns whether a row operation was needed
        fixed = False
        changed = True
        while changed:
            changed = False
            for i in range(n - 1):
                di, dj = a[i][i], a[i + 1][i + 1]
                if di and dj % di != 0:
                    row_sub(i, i + 1, -1)
                    reduce_at(i)
                    if eager and not diagonal(i + 1):
                        reduce_from(i + 1)
                    for k in range(i, n):
                        if a[k][k] < 0:
                            negate_row(k)
                    fixed = changed = True
                    break
                if di == 0 and dj != 0:
                    swap(i, i + 1, i + 1)
                    changed = True
                    break
        return fixed

    reduce_from(0)
    # reduce_at(i) in the chain fix may take its pivot from further down the
    # diagonal and leave the rows below it off the diagonal. Where the fix
    # ends so, reduce again and fix the chain reducing the rows below after
    # each step; every other matrix keeps the transforms of the plain fix.
    if enforce_chain(False) and not diagonal(0):
        reduce_from(0)
        enforce_chain(True)
    return a, u, vt


def snf_diagonal(m):
    """The min(rows, cols) invariant factors of m, as on the Smith diagonal.

    They do not depend on how they are found, so each unit entry is peeled
    off first: row operations clear its column, its row is dropped and
    the diagonal gains a 1. _smith, with no transform, takes the rest; the
    peeled columns are zero there, so past min(rows, cols) it adds only
    zeros.
    """
    cols = len(m[0]) if m else 0
    a = [list(r) for r in m]
    ones = 0
    while True:
        i = next((i for i, r in enumerate(a) if 1 in r or -1 in r), None)
        if i is None:
            break
        top = a.pop(i)
        j = next(j for j, x in enumerate(top) if x in (1, -1))
        for k, r in enumerate(a):
            if r[j]:
                q = r[j] * top[j]
                a[k] = [x - q * y for x, y in zip(r, top)]
        ones += 1
    d, _, _ = _smith(a, False, False)
    return ([1] * ones + [r[i] for i, r in zip(range(cols), d)])[:min(len(m), cols)]


def _kernel_and_factors(m):
    """(kernel, factors) of m from one Smith form: the saturated basis of
    {x integer : m*x = 0}, one row per basis vector, and the nonzero
    invariant factors of m."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if cols == 0:
        return [], []
    if rows == 0:
        return identity(cols), []
    d, _, vt = _smith(m, False, True)
    n = min(rows, cols)
    return ([vt[j] for j in range(cols) if j >= n or d[j][j] == 0],
            [d[j][j] for j in range(n) if d[j][j]])


def hnf_rows(rows, ncols=None):
    """Hermite basis of the integer row span, lower-triangular style.

    Pivot of each basis row is its last nonzero coordinate; pivots are
    positive, entries in the pivot column of other rows reduced to
    [0, pivot). Returned sorted by pivot position. The pivot columns are
    reduced in ascending order, so a later reduction can undo an earlier
    one: the result depends on the rows, not only on their span.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    work = [list(r) for r in rows if any(r)]
    basis = {}
    while work:
        r = work.pop()
        p = ncols
        while True:
            # each reduction clears r[p] and everything right of it
            p -= 1
            while p >= 0 and not r[p]:
                p -= 1
            if p < 0:
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
    # reduce entries sitting above other pivots; a row before idx has its
    # pivot left of p and zeros from there on, so only later rows change
    for idx, p in enumerate(pivots):
        piv = out[idx]
        for jdx in range(idx + 1, len(out)):
            q = out[jdx][p] // piv[p]
            if q:
                out[jdx] = [x - q * y for x, y in zip(out[jdx], piv)]
    return out


# the largest trial divisor `prime_factors` tries before it gives up
FACTOR_CAP = 1 << 20


def prime_factors(n):
    """Prime factorization by trial division, as an ordered dict p -> e.

    The trial divisors stop at FACTOR_CAP: n is factored when what is left
    of it after its primes up to the cap is below the cap squared, and
    otherwise CapExceeded is raised.
    """
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
        if f > FACTOR_CAP:
            raise CapExceeded("trial division reached divisor %d, over its cap of %d"
                              % (f, FACTOR_CAP))
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return dict(sorted(out.items()))


def is_prime(n):
    """Whether n is prime, by trial division.

    The trial divisors stop at FACTOR_CAP, as in prime_factors: an n with
    no divisor up to the cap is decided when it is below the cap squared,
    and otherwise CapExceeded is raised.
    """
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if f > FACTOR_CAP:
            raise CapExceeded("trial division reached divisor %d, over its cap of %d"
                              % (f, FACTOR_CAP))
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


def legendre(a, p):
    """Legendre symbol (a/p) for odd prime p, values in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def sqrt_exact(n):
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None
