"""Primitive embeddings into the rank-12 ambient lattice, by explicit tables.

Each table row sends the basis of a small lattice with prescribed parity
label to vectors of the ambient lattice, drawing auxiliary vectors from the
definite scaled piece via exact norm enumeration. Construction always ends
in full validation, so a table can only produce correct embeddings.
"""

import math
from dataclasses import dataclass

from .enriques import ambient, epsilon
from .errors import (
    BadParams,
    BadShape,
    CapExceeded,
    DependentVectors,
    GramMismatch,
    NotDefinite,
    NotFound,
    NotPrimitive,
    RankTooLarge,
)
from .lattice import (
    Lattice,
    _check_int_matrix,
    gram_of_rows,
    orthogonal_complement,
    primitive_closure,
    rational_signature,
    standard_lattice,
)
from .intmat import rational_rank, snf_diagonal


def vectors_of_norm(lat, value, cap=200000):
    """All lattice vectors of the given self-pairing, definite lattices only.

    Integer Fincke-Pohst enumeration over a fraction-free LDL^T (Bareiss
    elimination of the gram, negated if negative definite): with leading
    minors D_0 = 1, D_1, ..., D_k and the elimination rows B_i,
    q(x) = sum_i (D_{i+1} x_i + c_i)^2 / (D_i D_{i+1}) with
    c_i = sum_{j>i} B_i[j] x_j. Scaled by M = lcm(D_i D_{i+1}), every term
    has an integer weight, so each coordinate's range is an exact integer
    square root. Both a vector and its negative are listed. Sorted
    by coordinate-sum size, then coordinates in descending order.
    """
    if lat.rank == 0:
        return []
    pos, neg = lat.signature
    if pos and neg:
        raise NotDefinite("enumeration requires a definite lattice")
    if value == 0 or (value < 0) == (neg == 0):
        return []  # zero, or the sign the lattice never takes
    sign = 1 if neg == 0 else -1
    k = lat.rank
    a = [[sign * x for x in row] for row in lat.gram]
    minors = [1]
    rows = []
    for i in range(k):
        piv, prev = a[i][i], minors[-1]
        assert piv > 0
        minors.append(piv)
        rows.append(a[i][:])
        for r in range(i + 1, k):
            for s in range(i + 1, k):
                a[r][s] = (a[r][s] * piv - a[r][i] * a[i][s]) // prev
    big_m = math.lcm(*(minors[i] * minors[i + 1] for i in range(k)))
    weights = [big_m // (minors[i] * minors[i + 1]) for i in range(k)]
    out = []
    x = [0] * k

    def rec(i, rem, c):
        # x[i+1:] is fixed, c = c_i, rem = M |value| - sum_{j>i} w_j y_j^2;
        # w y^2 <= rem holds exactly when |y| <= isqrt(rem // w), y = d x_i + c
        d, w = minors[i + 1], weights[i]
        if i == 0:
            if rem % w:
                return
            s = math.isqrt(rem // w)
            if s * s * w != rem:
                return
            for y in ((s, -s) if s else (0,)):
                if (y - c) % d == 0:
                    x[0] = (y - c) // d
                    out.append(x[:])
                    if len(out) > cap:
                        raise CapExceeded("more than %d vectors" % cap)
            return
        s = math.isqrt(rem // w)
        row = rows[i - 1]
        base = sum(row[j] * x[j] for j in range(i + 1, k))
        for t in range(-((s + c) // d), (s - c) // d + 1):
            x[i] = t
            y = d * t + c
            rec(i - 1, rem - w * y * y, base + row[i] * t)

    rec(k - 1, big_m * sign * value, 0)
    # descending coordinates, then a stable sort on the L1 norm
    out.sort(reverse=True)
    out.sort(key=lambda v: sum(map(abs, v)))
    return out


def has_minus_two_vector(lat, cap=200000):
    return bool(vectors_of_norm(lat, -2, cap=cap))


_E82_CACHE = {}

# enumeration is skipped for norms past this; the frame path covers them
_ENUM_NORM_BOUND = 24


def _e82_vectors(norm):
    if norm not in _E82_CACHE:
        _E82_CACHE[norm] = vectors_of_norm(standard_lattice("E82"), norm)
    return _E82_CACHE[norm]


_FRAME = []


def _orthogonal_frame():
    """Eight mutually orthogonal minimal vectors of the definite scaled
    piece, fixed once."""
    if _FRAME:
        return _FRAME
    e82 = standard_lattice("E82")
    roots = _e82_vectors(-4)

    def dfs(chosen):
        if len(chosen) == 8:
            return chosen
        for cand in roots:
            if all(e82.bilinear(cand, c) == 0 for c in chosen):
                got = dfs(chosen + [cand])
                if got is not None:
                    return got
        return None

    frame = dfs([])
    assert frame is not None
    _FRAME.extend(tuple(r) for r in frame)
    return _FRAME


def _square_decomps(n, max_terms=8):
    # nonincreasing tuples of positive squares summing to n; up to eight
    # terms so a primitive tuple always exists (n-1 as four squares plus 1)
    out = []

    def rec(rem, bound, acc):
        if rem == 0:
            if acc:
                out.append(tuple(acc))
            return
        if len(acc) >= max_terms:
            return
        top = min(bound, int(math.isqrt(rem)))
        for k in range(top, 0, -1):
            if rem - k * k > (max_terms - len(acc) - 1) * k * k:
                continue
            rec(rem - k * k, k, acc + [k])

    rec(n, int(math.isqrt(n)), [])
    out.sort(key=lambda rep: (rep[0], len(rep), rep))
    return out


def _frame_tuples(gram, limit=200):
    """Constructive tuples on the orthogonal frame: diagonal gram with all
    entries divisible by four."""
    t = len(gram)
    if any(gram[i][j] != 0 for i in range(t) for j in range(t) if i != j):
        return
    needs = []
    for i in range(t):
        if gram[i][i] >= 0 or gram[i][i] % 4:
            return
        needs.append(-gram[i][i] // 4)
    frame = _orthogonal_frame()
    from itertools import islice, product as iproduct

    reprs = [_square_decomps(n)[:6] for n in needs]
    if any(not r for r in reprs):
        return
    count = 0
    for shift in range(8):
        for combo in iproduct(*reprs):
            if sum(len(rep) for rep in combo) > 8:
                continue
            rows = []
            off = shift
            ok = True
            for rep in combo:
                if off + len(rep) > 8:
                    ok = False
                    break
                row = [0] * 8
                for j, coeff in enumerate(rep):
                    for c in range(8):
                        row[c] += coeff * frame[off + j][c]
                rows.append(tuple(row))
                off += len(rep)
            if not ok:
                continue
            yield tuple(rows)
            count += 1
            if count >= limit:
                return


def iter_tuples_in_e82(gram, primitive=True, node_cap=500000):
    """Yield tuples of vectors of the definite scaled piece with the given
    mutual pairings, deterministically ordered."""
    e82 = standard_lattice("E82")
    t = len(gram)
    nodes = [0]

    def keep(rows):
        if primitive:
            diag = snf_diagonal([list(r) for r in rows])
            if any(x != 1 for x in diag):
                return False
        return True

    seen = set()
    for rows in _frame_tuples(gram):
        if rows not in seen and keep(rows):
            seen.add(rows)
            yield rows
    if any(abs(gram[i][i]) > _ENUM_NORM_BOUND for i in range(t)):
        return

    # every prefix of a basis of a primitive sublattice spans a primitive
    # sublattice, so a primitive search descends only into primitive prefixes
    def dfs(chosen):
        pos = len(chosen)
        if pos == t:
            rows = tuple(tuple(r) for r in chosen)
            if rows not in seen:
                yield rows
            return
        for cand in _e82_vectors(gram[pos][pos]):
            nodes[0] += 1
            if nodes[0] > node_cap:
                raise CapExceeded("tuple search budget exhausted")
            if all(
                e82.bilinear(cand, chosen[i]) == gram[pos][i] for i in range(pos)
            ) and keep(chosen + [cand]):
                yield from dfs(chosen + [cand])

    yield from dfs([])


_TUPLE_CACHE = {}


def find_tuple_in_e82(gram, primitive=True):
    key = (tuple(tuple(r) for r in gram), primitive)
    if key not in _TUPLE_CACHE:
        found = next(iter_tuples_in_e82(gram, primitive=primitive), None)
        if found is None:
            raise NotFound("no vector tuple with the requested pairings")
        _TUPLE_CACHE[key] = found
    return _TUPLE_CACHE[key]


@dataclass(frozen=True)
class PrimitiveEmbedding:
    source: Lattice
    images: tuple
    ambient: Lattice

    @property
    def label(self):
        return tuple(epsilon(list(r)) for r in self.images)


def embedding_from_images(source, images):
    """Validated primitive embedding given by basis images in the ambient
    lattice."""
    nlat = ambient()
    if not isinstance(source, Lattice):
        source = Lattice(source)
    if len(images) != source.rank:
        raise BadShape("one image per basis vector required")
    rows = [list(r) for r in images]
    for r in rows:
        if len(r) != nlat.rank:
            raise BadShape("images must have length %d" % nlat.rank)
    _check_int_matrix(rows)
    if rational_rank(rows) != len(rows):
        raise DependentVectors("images are dependent")
    got = gram_of_rows(rows, nlat.gram)
    want = [list(r) for r in source.gram]
    if got != want:
        raise GramMismatch("images have pairings %s, expected %s" % (got, want))
    _, index = primitive_closure(nlat, rows)
    if index != 1:
        raise NotPrimitive(index)
    return PrimitiveEmbedding(source, tuple(tuple(r) for r in rows), nlat)


def pullback_epsilon(emb):
    return emb.label


def embedding_complement(emb):
    return orthogonal_complement(emb.ambient, [list(r) for r in emb.images])


def _nvec(e=0, f=0, h=0, k=0, eps=None):
    row = [e, f, h, k] + ([0] * 8 if eps is None else list(eps))
    assert len(row) == 12
    return row


def t_gram(rho, params):
    """Gram matrix of the small lattice attached to each table family."""
    if rho == 20:
        a, b, c = params
        return [[4 * a, 2 * b], [2 * b, 4 * c]]
    if rho == 19:
        a, d, l, b, m, c = params
        return [
            [4 * a, 2 * d, 2 * l],
            [2 * d, 4 * b, 2 * m],
            [2 * l, 2 * m, 4 * c],
        ]
    if rho == 18:
        a, b, c = params
        return [
            [4 * a, 2 * b, 0, 0],
            [2 * b, 4 * c, 0, 0],
            [0, 0, 0, 2],
            [0, 0, 2, 0],
        ]
    if rho == 17:
        (m,) = params
        return [
            [0, 2, 0, 0, 0],
            [2, 0, 0, 0, 0],
            [0, 0, 0, 2, 0],
            [0, 0, 2, 0, 0],
            [0, 0, 0, 0, -4 * m],
        ]
    raise BadParams("no table family for rank invariant %s" % (rho,))


def _params_from_gram(rho, g):
    if rho == 19:
        return (
            g[0][0] // 4, g[0][1] // 2, g[0][2] // 2,
            g[1][1] // 4, g[1][2] // 2, g[2][2] // 4,
        )
    if rho in (18, 20):
        return (g[0][0] // 4, g[0][1] // 2, g[1][1] // 4)
    if rho == 17:
        return (-g[4][4] // 4,)
    raise BadParams("no parameter reading for %s" % (rho,))


# ---------------------------------------------------------------- rho = 20

def _b20_10(p):
    a, b, c = p
    yield [
        _nvec(e=1, f=2 * a),
        _nvec(f=2 * b, h=1, k=c),
    ]


def _b20_11(p):
    a, b, c = p
    yield [
        _nvec(e=1, f=2 * a),
        _nvec(e=1, f=2 * b - 2 * a, h=1, k=c - b + a),
    ]


# ---------------------------------------------------------------- rho = 19

def _b19_100(p):
    a, d, l, b, m, c = p
    for (w,) in iter_tuples_in_e82([[4 * c]]):
        yield [
            _nvec(e=1, f=2 * a),
            _nvec(f=2 * d, h=1, k=b),
            _nvec(f=2 * l, k=m, eps=w),
        ]


def _b19_110(p):
    a, d, l, b, m, c = p
    for (w,) in iter_tuples_in_e82([[4 * c]]):
        yield [
            _nvec(e=1, f=2 * a),
            _nvec(e=1, f=2 * d - 2 * a, h=1, k=b - d + a),
            _nvec(f=2 * l, k=m - l, eps=w),
        ]


def _b19_111(p):
    a, d, l, b, m, c = p
    if m < 0:
        for rows in _b19_111((a, d, -l, b, -m, c)):
            yield [rows[0], rows[1], [-x for x in rows[2]]]
        return
    for wp, w in iter_tuples_in_e82(
        [[4 * b - 4 * m, 0], [0, 4 * c]]
    ):
        yield [
            _nvec(e=1, h=a, k=1),
            _nvec(e=1, f=2 * m, h=d - m, eps=wp),
            _nvec(e=1, h=l, eps=w),
        ]


# ---------------------------------------------------------------- rho = 18

def _b18_1000(p):
    a, b, c = p
    for (w,) in iter_tuples_in_e82([[4 * c]]):
        yield [
            _nvec(e=1, f=2 * a),
            _nvec(f=2 * b, eps=w),
            _nvec(h=1),
            _nvec(k=1),
        ]


def _b18_1100(p):
    a, b, c = p
    for (u,) in iter_tuples_in_e82([[4 * (a - b + c)]]):
        yield [
            _nvec(e=1, f=2 * a),
            _nvec(e=1, f=2 * b - 2 * a, eps=u),
            _nvec(h=1),
            _nvec(k=1),
        ]


def _b18_1010(p):
    a, b, c = p
    for (w,) in iter_tuples_in_e82([[4 * c]]):
        yield [
            _nvec(e=1, f=2 * a, k=-a),
            _nvec(f=2 * b, k=-b, eps=w),
            _nvec(e=1, h=1),
            _nvec(k=1),
        ]


def _b18_0010(p):
    a, b, c = p
    for w1, w2, w3 in iter_tuples_in_e82(
        [[4 * a, 0, 0], [0, 4 * c, 0], [0, 0, -8]]
    ):
        yield [
            _nvec(h=1, eps=w1),
            _nvec(k=b, eps=w2),
            _nvec(e=1),
            _nvec(e=2, f=2, eps=w3),
        ]


def _b18_0011(p):
    a, b, c = p
    for w1, w2, w3 in iter_tuples_in_e82(
        [[4 * a, 0, 0], [0, 4 * c, 0], [0, 0, -4]]
    ):
        yield [
            _nvec(h=1, eps=w1),
            _nvec(k=b, eps=w2),
            _nvec(e=1),
            _nvec(e=1, f=2, eps=w3),
        ]


def _b18_1110(p):
    a, b, c = p
    for (u,) in iter_tuples_in_e82([[4 * (a - b + c)]]):
        yield [
            _nvec(e=1, f=2 * a, k=-a),
            _nvec(e=1, f=2 * b - 2 * a, k=a - b, eps=u),
            _nvec(e=1, h=1),
            _nvec(k=1),
        ]


def _b18_1011(p):
    a, b, c = p
    for w, wp in iter_tuples_in_e82([[4 * c, 0], [0, -4]]):
        yield [
            _nvec(e=1, f=2 * a, k=-a),
            _nvec(f=2 * b, k=-b, eps=w),
            _nvec(e=1, h=1),
            _nvec(e=1, h=1, k=1, eps=wp),
        ]


def _b18_1111(p):
    a, b, c = p
    for u, wp in iter_tuples_in_e82([[4 * (a - b + c), 0], [0, -4]]):
        yield [
            _nvec(e=1, f=2 * a, k=-a),
            _nvec(e=1, f=2 * b - 2 * a, k=a - b, eps=u),
            _nvec(e=1, h=1),
            _nvec(e=1, h=1, k=1, eps=wp),
        ]


# ---------------------------------------------------------------- rho = 17

def _b17_10000(p):
    (m,) = p
    for u1, v1 in iter_tuples_in_e82([[-8, 0], [0, -4 * m]]):
        yield [
            _nvec(e=1),
            _nvec(e=2, f=2, eps=u1),
            _nvec(h=1),
            _nvec(k=1),
            _nvec(eps=v1),
        ]


def _b17_11000(p):
    (m,) = p
    for u2, v2 in iter_tuples_in_e82([[-4, 0], [0, -4 * m]]):
        yield [
            _nvec(e=1),
            _nvec(e=1, f=2, eps=u2),
            _nvec(h=1),
            _nvec(k=1),
            _nvec(eps=v2),
        ]


def _b17_10001(p):
    (m,) = p
    for u3, v3 in iter_tuples_in_e82([[-8, -2], [-2, -4 * m]]):
        yield [
            _nvec(e=1),
            _nvec(e=2, f=2, eps=u3),
            _nvec(h=1),
            _nvec(k=1),
            _nvec(e=1, eps=v3),
        ]


def _b17_11001(p):
    (m,) = p
    for u4, v4 in iter_tuples_in_e82([[-4, -2], [-2, -4 * m]]):
        yield [
            _nvec(e=1),
            _nvec(e=1, f=2, eps=u4),
            _nvec(h=1),
            _nvec(k=1),
            _nvec(e=1, eps=v4),
        ]


def _b17_00001(p):
    (m,) = p
    for w0, w1, w2 in iter_tuples_in_e82(
        [[-8, -6, -2], [-6, -8, -2], [-2, -2, -4 * m]]
    ):
        yield [
            _nvec(e=2, f=2, eps=w0),
            _nvec(e=2, f=2, eps=w1),
            _nvec(h=1),
            _nvec(k=1),
            _nvec(e=1, eps=w2),
        ]


def _b17_11110(p):
    (m,) = p
    for w0, w1, w2 in iter_tuples_in_e82(
        [[-4, 0, 0], [0, -4, 0], [0, 0, -4 * m]]
    ):
        yield [
            _nvec(e=1),
            _nvec(e=1, f=2, k=1, eps=w0),
            _nvec(e=1, h=-1),
            _nvec(e=1, h=-1, k=-1, eps=w1),
            _nvec(eps=w2),
        ]


def _b17_11111(p):
    (m,) = p
    for w0, w1, w2 in iter_tuples_in_e82(
        [[-4, 0, -2], [0, -4, 0], [-2, 0, -4 * m]]
    ):
        yield [
            _nvec(e=1),
            _nvec(e=1, f=2, k=1, eps=w0),
            _nvec(e=1, h=-1),
            _nvec(e=1, h=-1, k=-1, eps=w1),
            _nvec(e=1, eps=w2),
        ]


def _b17_10100(p):
    (m,) = p
    for u3, w in iter_tuples_in_e82([[-8, 0], [0, -4 * m]]):
        yield [
            _nvec(e=1),
            _nvec(e=2, f=2, k=1, eps=u3),
            _nvec(e=1, h=-1),
            _nvec(k=-1),
            _nvec(eps=w),
        ]


def _b17_11100(p):
    (m,) = p
    for u2, v2 in iter_tuples_in_e82([[-4, 0], [0, -4 * m]]):
        yield [
            _nvec(e=1),
            _nvec(e=1, f=2, k=1, eps=u2),
            _nvec(e=1, h=-1),
            _nvec(k=-1),
            _nvec(eps=v2),
        ]


def _b17_11101(p):
    (m,) = p
    for u4, v4 in iter_tuples_in_e82([[-4, -2], [-2, -4 * m]]):
        yield [
            _nvec(e=1),
            _nvec(e=1, f=2, k=1, eps=u4),
            _nvec(e=1, h=-1),
            _nvec(k=-1),
            _nvec(e=1, eps=v4),
        ]


def _b17_10101(p):
    (m,) = p
    for u3, v3 in iter_tuples_in_e82([[-8, -2], [-2, -4 * m]]):
        yield [
            _nvec(e=1),
            _nvec(e=2, f=2, k=1, eps=u3),
            _nvec(e=1, h=-1),
            _nvec(k=-1),
            _nvec(e=1, eps=v3),
        ]


_TABLES = {
    20: {
        (1, 0): _b20_10,
        (1, 1): _b20_11,
    },
    19: {
        (1, 0, 0): _b19_100,
        (1, 1, 0): _b19_110,
        (1, 1, 1): _b19_111,
    },
    18: {
        (1, 0, 0, 0): _b18_1000,
        (1, 1, 0, 0): _b18_1100,
        (1, 0, 1, 0): _b18_1010,
        (0, 0, 1, 0): _b18_0010,
        (0, 0, 1, 1): _b18_0011,
        (1, 1, 1, 0): _b18_1110,
        (1, 0, 1, 1): _b18_1011,
        (1, 1, 1, 1): _b18_1111,
    },
    17: {
        (1, 0, 0, 0, 0): _b17_10000,
        (1, 1, 0, 0, 0): _b17_11000,
        (1, 0, 0, 0, 1): _b17_10001,
        (1, 1, 0, 0, 1): _b17_11001,
        (0, 0, 0, 0, 1): _b17_00001,
        (1, 1, 1, 1, 0): _b17_11110,
        (1, 1, 1, 1, 1): _b17_11111,
        (1, 0, 1, 0, 0): _b17_10100,
        (1, 1, 1, 0, 0): _b17_11100,
        (1, 1, 1, 0, 1): _b17_11101,
        (1, 0, 1, 0, 1): _b17_10101,
    },
}


def _label_perms(rho):
    if rho == 20:
        return [(0, 1), (1, 0)]
    if rho == 19:
        from itertools import permutations

        return [tuple(p) for p in permutations(range(3))]
    if rho == 18:
        return [
            (0, 1, 2, 3),
            (1, 0, 2, 3),
            (0, 1, 3, 2),
            (1, 0, 3, 2),
        ]
    if rho == 17:
        base = {(0, 1, 2, 3, 4)}
        gens = [
            (1, 0, 2, 3, 4),
            (0, 1, 3, 2, 4),
            (2, 3, 0, 1, 4),
        ]
        changed = True
        while changed:
            changed = False
            for s in list(base):
                for g in gens:
                    comp = tuple(s[g[i]] for i in range(5))
                    if comp not in base:
                        base.add(comp)
                        changed = True
        return sorted(base)
    raise BadParams("no table family for rank invariant %s" % (rho,))


def _validate_params(rho, params):
    params = tuple(int(x) for x in params)
    g = t_gram(rho, params)
    if rho == 20:
        if rational_signature(g) != (2, 0, 0):
            raise BadParams("the rank-two block must be positive definite")
    elif rho == 19:
        if rational_signature(g) != (2, 1, 0):
            raise BadParams("parameters must give signature (2, 1)")
    elif rho == 18:
        top = [[g[0][0], g[0][1]], [g[1][0], g[1][1]]]
        if rational_signature(top) != (1, 1, 0):
            raise BadParams("the rank-two block must be indefinite")
    elif rho == 17:
        if params[0] < 1:
            raise BadParams("the last parameter must be a positive multiple of four over four")
    else:
        raise BadParams("no table family for rank invariant %s" % (rho,))
    return params


def embedding_for_label(rho, params, label, attempt_cap=200):
    """Primitive embedding with prescribed parity label from the tables."""
    params = _validate_params(rho, params)
    label = tuple(int(x) % 2 for x in label)
    want_len = {20: 2, 19: 3, 18: 4, 17: 5}[rho]
    if len(label) != want_len:
        raise BadShape("label must have length %d" % want_len)
    if not any(label):
        raise NotFound("the tables cover nonzero labels only")
    g = t_gram(rho, params)
    source = Lattice(g)
    tables = _TABLES[rho]
    for sigma in _label_perms(rho):
        key = tuple(label[sigma[i]] for i in range(len(label)))
        if key not in tables:
            continue
        gp = [[g[sigma[i]][sigma[j]] for j in range(len(label))] for i in range(len(label))]
        params_p = _params_from_gram(rho, gp)
        attempts = 0
        for rows in tables[key](params_p):
            attempts += 1
            if attempts > attempt_cap:
                break
            images = [None] * len(label)
            for i in range(len(label)):
                images[sigma[i]] = rows[i]
            try:
                emb = embedding_from_images(source, images)
            except NotPrimitive:
                continue
            assert emb.label == label
            return emb
    raise NotFound("no table entry produced a valid embedding for %s" % (label,))


def character_upper_bound(gram):
    """Characters of the mod-2 reduction vanishing on every residue class
    whose self-pairing is 2 mod 4."""
    n = len(gram)
    if n > 20:
        raise RankTooLarge("rank %d exceeds the enumeration bound" % n)
    from itertools import product as iproduct

    constraints = []
    for v in iproduct((0, 1), repeat=n):
        if not any(v):
            continue
        norm = sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))
        if norm % 4 == 2:
            constraints.append(v)
    out = []
    for alpha in iproduct((0, 1), repeat=n):
        if all(sum(a * b for a, b in zip(alpha, v)) % 2 == 0 for v in constraints):
            out.append(alpha)
    return sorted(out)


def realized_characters(rho, params):
    """Labels the tables actually produce, as a subset of all characters.

    The zero character is always included; each nonzero label is kept when
    its table construction succeeds and validates.
    """
    want_len = {20: 2, 19: 3, 18: 4, 17: 5}[rho]
    from itertools import product as iproduct

    out = [(0,) * want_len]
    for label in iproduct((0, 1), repeat=want_len):
        if not any(label):
            continue
        try:
            embedding_for_label(rho, params, label)
        except (NotFound, BadParams, CapExceeded):
            continue
        out.append(label)
    return sorted(out)


def suggest_params(rho, seed, count=3):
    """Deterministic parameter sets accepted by the tables."""
    import random

    rng = random.Random(seed)
    out = []
    seen = set()
    if rho == 20:
        while len(out) < count:
            a, c = rng.randint(1, 6), rng.randint(1, 6)
            b = rng.randint(-4, 4)
            if 4 * a * c - b * b <= 0:
                continue
            p = (a, b, c)
            if p not in seen:
                seen.add(p)
                out.append(p)
        return out
    if rho == 19:
        tries = 0
        while len(out) < count and tries < 20000:
            tries += 1
            a, b, c = (rng.randint(-5, -1) for _ in range(3))
            d, l, m = (rng.randint(-9, 9) for _ in range(3))
            p = (a, d, l, b, m, c)
            if rational_signature(t_gram(19, p)) != (2, 1, 0):
                continue
            if p not in seen:
                seen.add(p)
                out.append(p)
        base = (-1, -4, -4, -3, -8, -3)
        while len(out) < count:
            p = _conjugated_params(base, rng)
            if p not in seen:
                seen.add(p)
                out.append(p)
        return out
    if rho == 18:
        while len(out) < count:
            a, c = rng.randint(-5, -1), rng.randint(-5, -1)
            b = rng.randint(1, 9)
            p = (a, b, c)
            top = [[4 * a, 2 * b], [2 * b, 4 * c]]
            if rational_signature(top) != (1, 1, 0):
                continue
            if p not in seen:
                seen.add(p)
                out.append(p)
        return out
    if rho == 17:
        m = 1 + (seed % 2)
        while len(out) < count:
            out.append((m,))
            m += 1
        return out
    raise BadParams("no table family for rank invariant %s" % (rho,))


def _conjugated_params(base, rng):
    g = t_gram(19, base)
    n = 3
    for _ in range(50):
        p = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(rng.randint(1, 3)):
            i, j = rng.sample(range(n), 2)
            c = rng.choice([-1, 1])
            for col in range(n):
                p[i][col] += c * p[j][col]
        new = gram_of_rows(p, g)
        if all(abs(x) <= 40 for row in new for x in row):
            return _params_from_gram(19, new)
    return _params_from_gram(19, g)
