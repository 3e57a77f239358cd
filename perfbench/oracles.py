"""Reference computations that share no code with enrlat.

Everything here works on plain Python ints and Fractions (the box oracle
uses NumPy int64 arithmetic on small entries). The benchmark checks every
operation's result against these before it counts the run as correct.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd, isqrt

# The ambient lattice N = U + U(2) + E8(2), basis (e, f, h, k, w1..w8),
# exactly as README.md prints it.
E8_EDGES = ((1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8))

# Published numbers of realized nonzero parity labels per table family.
PUBLISHED_LABEL_COUNTS = {20: 3, 19: 7, 18: 15, 17: 31}


def cartan_gram(n, edges, diagonal=-2):
    """Negated Cartan matrix of a simply laced Dynkin diagram (1-based edges)."""
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = diagonal
    for a, b in edges:
        g[a - 1][b - 1] = g[b - 1][a - 1] = -diagonal // 2
    return g


def e8_gram(scale=1):
    return [[scale * x for x in row] for row in cartan_gram(8, E8_EDGES)]


def ambient_gram():
    g = [[0] * 12 for _ in range(12)]
    g[0][1] = g[1][0] = 1
    g[2][3] = g[3][2] = 2
    e82 = e8_gram(2)
    for i in range(8):
        for j in range(8):
            g[4 + i][4 + j] = e82[i][j]
    return g


N_GRAM = ambient_gram()


def root_lattice_gram(kind, n):
    """Negated root lattices: A_n (path), D_n (fork at one end), E6, E7."""
    if kind == "A":
        edges = [(i, i + 1) for i in range(1, n)]
    elif kind == "D":
        edges = [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
    elif kind == "E":
        edges = [e for e in E8_EDGES if max(e) <= n]
    else:
        raise ValueError(kind)
    return cartan_gram(n, edges)


def root_count(kind, n):
    """Number of roots (vectors of norm -2 in the negated lattice)."""
    if kind == "A":
        return n * (n + 1)
    if kind == "D":
        return 2 * n * (n - 1)
    return {6: 72, 7: 126, 8: 240}[n]


def sigma3(k):
    return sum(d ** 3 for d in range(1, k + 1) if k % d == 0)


def e8_theta_count(norm, scale=1):
    """Vectors of the given norm in E8(scale) (negative definite): the theta
    series of E8 is 1 + 240 * sum sigma3(k) q^k."""
    if norm >= 0 or norm % (2 * scale):
        return 0
    return 240 * sigma3(-norm // (2 * scale))


# ------------------------------------------------------------ integer algebra

def pairing(x, gram, y):
    n = len(gram)
    return sum(x[i] * gram[i][j] * y[j] for i in range(n) for j in range(n) if x[i] and y[j])


def gram_of(rows, gram):
    return [[pairing(a, gram, b) for b in rows] for a in rows]


def det_int(m):
    """Determinant by fraction-free elimination on a copy."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(r) for r in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def inertia(gram):
    """(positive, negative) counts of a nondegenerate symmetric matrix, by
    symmetric elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in gram]
    n = len(a)
    pos = neg = 0
    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
            if j is None:
                raise ValueError("degenerate form")
            # replace basis vector k by e_k + e_j (or e_k - e_j) to get a nonzero diagonal
            s = 1 if a[k][k] + 2 * a[k][j] + a[j][j] != 0 else -1
            for r in range(n):
                a[r][k] += s * a[r][j]
            for c in range(n):
                a[k][c] += s * a[j][c]
        piv = a[k][k]
        if piv > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = a[i][k] / piv
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
        for j in range(k + 1, n):
            a[k][j] = Fraction(0)
    return pos, neg


def inverse(m):
    """Exact inverse by Gauss-Jordan over the rationals."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        piv = a[c][c]
        a[c] = [x / piv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def maximal_minor_gcd(rows):
    """gcd of the maximal minors of a k x n integer matrix (k <= n); it is
    1 exactly when the rows span a saturated (primitive) sublattice."""
    k = len(rows)
    n = len(rows[0])
    g = 0
    for cols in combinations(range(n), k):
        g = gcd(g, det_int([[row[c] for c in cols] for row in rows]))
        if g == 1:
            return 1
    return g


def parity_label(rows):
    """The parity functional of README.md, (x1 + x2) mod 2, on each row."""
    return tuple((r[0] + r[1]) % 2 for r in rows)


def is_twice_even(gram):
    n = len(gram)
    return all(gram[i][i] % 4 == 0 for i in range(n)) and all(
        gram[i][j] % 2 == 0 for i in range(n) for j in range(n)
    )


def character_bound(gram):
    """Characters alpha of (Z/2)^n that vanish on every class v with
    v.G.v = 2 mod 4, by brute force over both sets."""
    n = len(gram)
    bad = [
        v for v in product((0, 1), repeat=n)
        if any(v) and pairing(v, gram, v) % 4 == 2
    ]
    return sorted(
        a for a in product((0, 1), repeat=n)
        if all(sum(x * y for x, y in zip(a, v)) % 2 == 0 for v in bad)
    )


# ------------------------------------------------------------ enumeration

def box_bounds(gram, value):
    """|x_i| <= floor(sqrt(|value| * (G^-1)_ii)) for a definite G."""
    inv = inverse(gram)
    out = []
    for i in range(len(gram)):
        r = abs(Fraction(value) * inv[i][i])
        out.append(isqrt(r.numerator // r.denominator))
    return out


def box_vectors(gram, values):
    """For each value, every nonzero integer vector of the bounding box of
    the largest |value| with x.G.x == value, as a set of tuples. The box is
    walked in NumPy int64 chunks of at most 4096 points; entries and norms
    here stay far below overflow."""
    import numpy as np

    n = len(gram)
    bounds = box_bounds(gram, max(values, key=abs))
    g = np.array(gram, dtype=np.int64)
    split = n
    size = 1
    while split > 0 and size * (2 * bounds[split - 1] + 1) <= 4096:
        split -= 1
        size *= 2 * bounds[split] + 1
    tail = np.array(
        list(product(*[range(-b, b + 1) for b in bounds[split:]])), dtype=np.int64
    ).reshape(-1, n - split)
    out = {v: set() for v in values}
    pts = np.empty((tail.shape[0], n), dtype=np.int64)
    pts[:, split:] = tail
    for head in product(*[range(-b, b + 1) for b in bounds[:split]]):
        pts[:, :split] = head
        norms = np.einsum("ij,jk,ik->i", pts, g, pts)
        for v in values:
            for row in pts[norms == v]:
                if row.any():
                    out[v].add(tuple(int(x) for x in row))
    return out


def check_vector_list(vectors, gram, value, want_count):
    """Distinct vectors, each of the requested norm, as many as predicted."""
    seen = {tuple(v) for v in vectors}
    return (
        len(seen) == len(vectors) == want_count
        and all(pairing(v, gram, v) == value for v in vectors)
    )


# ------------------------------------------------------------ finite forms

def invariant_factors_rank_le2(gram):
    """Nontrivial invariant factors of the discriminant group of a rank-1
    or rank-2 Gram matrix: d1 = gcd of the entries, d2 = |det| / d1."""
    if len(gram) == 1:
        d = abs(gram[0][0])
        return [d] if d > 1 else []
    d1 = gcd(gcd(gram[0][0], gram[0][1]), gram[1][1])
    d2 = abs(det_int(gram)) // d1
    return [d for d in (d1, d2) if d > 1]


def span_size(gens, orders):
    """Order of the subgroup of (+) Z/orders generated by gens, by closure."""
    zero = tuple(0 for _ in orders)
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % d for a, b, d in zip(x, g, orders))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


def form_order(form):
    out = 1
    for d in form.orders:
        out *= d
    return out


def _q(values, x):
    k = len(x)
    return sum(
        x[i] * x[j] * values[i][j] for i in range(k) for j in range(k)
    ) % 2


def _b(values, x, y):
    k = len(x)
    return sum(x[i] * y[j] * values[i][j] for i in range(k) for j in range(k)) % 1


def is_form_isomorphism(f1, f2, images):
    """images[i] (coordinates in f2) of the generators of f1 preserve q and
    b and generate all of f2. Reads only the forms' orders and value
    matrices; f1 and f2 must have the same order."""
    if form_order(f1) != form_order(f2) or len(images) != len(f1.orders):
        return False
    v1 = [[Fraction(x) for x in row] for row in f1.values]
    v2 = [[Fraction(x) for x in row] for row in f2.values]
    for i, img in enumerate(images):
        if any((f1.orders[i] * c) % d for c, d in zip(img, f2.orders)):
            return False
        if _q(v2, img) != v1[i][i] % 2:
            return False
        for j in range(i):
            if _b(v2, img, images[j]) != v1[i][j] % 1:
                return False
    return span_size([tuple(x) for x in images], f2.orders) == form_order(f2)
