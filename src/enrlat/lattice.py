"""Even integral lattices with exact arithmetic.

A Lattice wraps a nondegenerate symmetric integer Gram matrix with even
diagonal. Every symmetric elimination here is one fraction-free
`intmat.eliminate_symmetric`, and no other module reads its rows. Built
from a gram, a Lattice takes its signature from the pivots' signs, its
determinant from the last pivot and, when definite, keeps the LDL^T the
norm enumeration (`vectors_of_norm`) walks, all from one elimination
(`_eliminated`). An orthogonal complement reads det and signature off
the Smith form of rows * G, which finds its basis, and the rows' own
small gram S: `orthogonal_complement` eliminates S, while the complement
of a validated embedding reads S's det and signature off the
embedding's source (`_complement`). The walk is nested loops generated
once per rank, and `ENUM_NODE_CAP` bounds the coordinates it tries.

Products against a Lattice's gram read the nonzero entries of each gram
row, kept on the lattice after its first product; a raw gram matrix
(`gram_of_rows`) is multiplied by `intmat.mat_mul`. Either product is
then paired with the rows' nonzero entries alone; `_products` collects
them in its own pass. Degenerate restrictions are first class citizens
via DegenerateQuadraticModule rather than errors, because orthogonal
complements inside hyperbolic pieces routinely produce them: a
restriction's gram is eliminated once, and a singular one gives the
module.
"""

import math
from collections import defaultdict
from operator import mul, neg as negate
from types import FunctionType

from ._store import Store
from .errors import (
    BadShape,
    CapExceeded,
    Degenerate,
    DependentVectors,
    NotDefinite,
    NotSymmetric,
    NotEvenGram,
    UnknownTag,
    ZeroScale,
)
from .intmat import _kernel_and_factors, eliminate_symmetric, identity, mat_mul, snf_diagonal


_INT = {int}


def _is_int(x):
    # bool is an int subclass, but a JSON true is no coordinate
    return isinstance(x, int) and not isinstance(x, bool)


def _int(x, what):
    if not _is_int(x):
        raise BadShape("%s: %r is not an integer" % (what, x))
    return x


def _check_int_matrix(m):
    if not isinstance(m, (list, tuple)):
        raise BadShape("matrix must be a list of rows")
    width = None
    for r in m:
        if not isinstance(r, (list, tuple)):
            raise BadShape("matrix must be a list of rows")
        if width is None:
            width = len(r)
        elif len(r) != width:
            raise BadShape("ragged matrix")
        # a row of plain ints passes on its types alone; only another row
        # (an int subclass, a bool, anything else) is checked entry by entry
        if not _INT.issuperset(map(type, r)) and not all(map(_is_int, r)):
            raise BadShape("entries must be integers")


def _check_gram(m):
    """BadShape unless m is a square integer matrix; NotSymmetric unless it
    is symmetric."""
    _check_int_matrix(m)
    n = len(m)
    if any(len(r) != n for r in m):
        raise BadShape("gram must be square")
    if list(map(tuple, m)) != list(zip(*m)):
        raise NotSymmetric("gram must be symmetric")


def rational_signature(gram):
    """(positive, negative, zero) inertia over Q of a symmetric integer
    matrix, by intmat.eliminate_symmetric."""
    return eliminate_symmetric(gram)[:3]


def _eliminated(gram):
    """(pos, neg, zero, det, ldl) of a symmetric integer gram, from one
    eliminate_symmetric of the matrix `vectors_of_norm` walks: the gram in
    reversed coordinate order, negated when g_00 < 0, which flips only the
    signs read back. ldl is None unless that matrix is positive definite:
    its pivots, the minors D_1, ..., D_k, then its rows B_{i-1}[i:], i = k-1..1."""
    k = len(gram)
    sign = -1 if k and gram[0][0] < 0 else 1
    pos, neg, zero, det, rows = eliminate_symmetric(
        map(negate, reversed(r)) if sign < 0 else reversed(r) for r in reversed(gram))
    ldl = None if pos < k else tuple([row[i] for i, row in enumerate(rows)] + [
        x for i in range(k - 1, 0, -1) for x in rows[i - 1][i:]])
    return (pos, neg, zero, det, ldl) if sign > 0 else (neg, pos, zero, det * (-1) ** k, ldl)


class DegenerateQuadraticModule:
    """Restriction of an even form whose Gram matrix has a radical."""

    def __init__(self, gram, radical_rank):
        self.gram = tuple(tuple(r) for r in gram)
        self.radical_rank = radical_rank

    @property
    def rank(self):
        return len(self.gram)

    def __repr__(self):
        return "DegenerateQuadraticModule(rank=%d, radical=%d)" % (
            self.rank,
            self.radical_rank,
        )


class Lattice:
    """Even nondegenerate integral lattice given by its Gram matrix."""

    def __init__(self, gram):
        _check_gram(gram)
        n = len(gram)
        if any(gram[i][i] % 2 for i in range(n)):
            raise NotEvenGram("diagonal must be even")
        pos, neg, zero, det, ldl = _eliminated(gram)
        if zero:
            raise Degenerate("gram is singular")
        self._keep(gram, det, (pos, neg), ldl)

    @classmethod
    def _known(cls, gram, det, signature, ldl=None):
        """The Lattice of an even symmetric gram whose det (nonzero) and
        signature are already known: no check and no elimination."""
        lat = cls.__new__(cls)
        lat._keep(gram, det, signature, ldl)
        return lat

    def _keep(self, gram, det, signature, ldl):
        self.gram = tuple(map(tuple, gram))
        self.rank = len(self.gram)
        self.det = det
        self.signature = signature
        self._discriminant = None  # kept by fqf.discriminant_form
        self._nonzero = None  # kept by _products
        self._ldl = ldl  # a definite lattice's LDL^T, see _eliminated

    def bilinear(self, x, y):
        # x . (G y), one pass over the rows of G
        return sum(map(mul, x, [sum(map(mul, row, y)) for row in self.gram]))

    def norm(self, x):
        return self.bilinear(x, x)

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        return "Lattice(rank=%d, det=%d, sig=%s)" % (self.rank, self.det, self.signature)


def direct_sum(a, b):
    return Lattice(_block_diag(a.gram, b.gram))


def rescale(lat, s):
    if not _is_int(s) or s == 0:
        raise ZeroScale("scale must be a nonzero integer")
    return Lattice(_scaled(lat.gram, s))


def _products(lat, rows):
    """(rows * lat.gram, pairs), pairs[k] the (column, entry) pairs of the
    nonzero entries of rows[k], found in the same pass. The gram's own such
    pairs are kept on the lattice per gram row, built on its first product:
    each nonzero x_i of a row adds x_i * g to the columns gram row i touches.
    """
    nonzero = lat._nonzero
    if nonzero is None:
        nonzero = lat._nonzero = tuple(
            tuple((j, g) for j, g in enumerate(row) if g) for row in lat.gram)
    out, pairs = [], []
    for r in rows:
        acc = [0] * lat.rank
        nz = []
        for i, x in enumerate(r):
            if x:
                nz.append((i, x))
                for j, g in nonzero[i]:
                    acc[j] += x * g
        out.append(acc)
        pairs.append(nz)
    return out, pairs


def _gram_from(prods, pairs):
    # rows * gram * rows^T from prods = rows * gram and the rows' nonzero
    # (column, entry) pairs: only the lower triangle is computed, and the
    # upper one is read off it
    low = []
    for i, p in enumerate(prods):
        row = []
        for nz in pairs[:i + 1]:
            s = 0
            for j, x in nz:
                s += p[j] * x
            row.append(s)
        low.append(row)
    return [row + [r[i] for r in low[i + 1:]] for i, row in enumerate(low)]


def gram_of_rows(rows, gram):
    """Gram matrix rows * gram * rows^T of a symmetric gram matrix.

    rows * gram is taken by intmat.mat_mul; the product against a
    Lattice's gram is _restricted_gram's.
    """
    return _gram_from(mat_mul(rows, gram), [[(j, x) for j, x in enumerate(r) if x] for r in rows])


def _restricted_gram(lat, rows):
    """Gram matrix rows * G * rows^T of the form of lat on integer rows,
    its products and pairs taken by _products."""
    return _gram_from(*_products(lat, rows))


def _module(g):
    # a Lattice, or the DegenerateQuadraticModule of a gram with a radical,
    # from one elimination: g is a restricted gram of an even Lattice
    pos, neg, zero, det, ldl = _eliminated(g)
    if zero:
        return DegenerateQuadraticModule(g, zero)
    return Lattice._known(g, det, (pos, neg), ldl)


def sublattice_from_gram_change(lat, rows):
    """Restrict the form to the span of integer rows (a new abstract lattice)."""
    _check_int_matrix(rows)
    if rows and len(rows[0]) != lat.rank:
        raise BadShape("row length must equal the ambient rank")
    diag = snf_diagonal(rows)
    if len(diag) < len(rows) or 0 in diag:
        raise DependentVectors("rows are dependent")
    return _module(_restricted_gram(lat, rows))


def orthogonal_complement(lat, rows):
    """(basis_rows, module) of everything orthogonal to the given rows.

    The basis is automatically saturated: it is the kernel of P = rows * G,
    read off the Smith form of P, which also gives P's nonzero invariant
    factors d_i. When S = rows * G * rows^T is nondegenerate, x -> P x
    maps Z^n onto a sublattice of index prod(d_i) in Z^k with kernel the
    complement C, so [Z^n : span(rows) + C] = |det S| / prod(d_i), and C
    is a Lattice with

        det C = det(lat) * det(S) / prod(d_i)^2,
        sig C = sig(lat) - sig(S),

    read off S's elimination instead of C's (see `_complement`). A
    degenerate S, or no rows, gives the module of C's gram: a Lattice when
    the restricted form is nondegenerate, otherwise a
    DegenerateQuadraticModule.
    """
    _check_int_matrix(rows)
    n = lat.rank
    if rows and len(rows[0]) != n:
        raise BadShape("row length must equal the ambient rank")
    if not rows:
        basis = identity(n)
        return basis, _module(_restricted_gram(lat, basis))
    prods, pairs = _products(lat, rows)
    pos, neg, zero, det_s, _ = eliminate_symmetric(_gram_from(prods, pairs))
    if zero:
        basis = _kernel_and_factors(prods)[0]
        return basis, _module(_restricted_gram(lat, basis))
    return _complement(lat, prods, det_s, (pos, neg))


def _complement(lat, prods, det_s, sig_s):
    """(basis_rows, Lattice) of the complement of nonempty rows whose
    products prods = rows * G and nondegenerate gram S, of det det_s and
    signature sig_s, are already known: one Smith form of prods, and no
    elimination."""
    basis, factors = _kernel_and_factors(prods)
    index = math.prod(factors)
    sig = lat.signature
    return basis, Lattice._known(_restricted_gram(lat, basis), lat.det * det_s // (index * index),
                                 (sig[0] - sig_s[0], sig[1] - sig_s[1]))


# the most coordinates one norm enumeration tries: 110 times the most any
# enumeration of the tables, the tests or the benchmark tries (37,834, E8(2)
# at norm -24, pinned by a test), and 1.3 to 2 s of walking a rank-2 range
ENUM_NODE_CAP = 1 << 22


# rank -> the code of each segment of that rank's walk, generated once;
# a segment nests at most _SEGMENT loops, as CPython refuses more than 20
# statically nested blocks
_WALKS = Store(64)
_SEGMENT = 16

# level i: its range, charged to the node cap before it is walked, and the
# remainder below each z_i
_LEVEL = """\
s = isqrt(r{i} // w{i})
hi = (s - c{i}) // d{i}
lo = -((s + c{i}) // d{i}) - 1 if f{i} else -1
n += hi - lo
if n > nodecap:
    raise CapExceeded("norm enumeration needs at least %d nodes, over its cap of %d"
                      % (n, nodecap))
for z{i} in range(hi, lo, -1):
    y = d{i} * z{i} + c{i}
    r{j} = r{i} - w{i} * y * y
"""
# the partial sums of the centres below, the next level's free flag and L1 norm
_DOWN = """\
{sums}\
    f{j} = f{i} or z{i}
    l{j} = l{i} + (z{i} if z{i} > 0 else -z{i})
"""
# level 1 solves z_0 by an exact square, w_0 y_0^2 = r_0 with y_0 = d_0 z_0 + c_0: a root
# with an integer z_0, s then -s, writes the vector and its negative to their L1 bucket
_LEAF = """\
    if r0 % w0:
        continue
    r0 //= w0
    s = isqrt(r0)
    if s * s != r0:
        continue
{sums}\
    l0 = l1 + (z1 if z1 > 0 else -z1)
    z0, e = divmod(s - c0, d0)
    if not e:
        bucket = buckets[l0 + (z0 if z0 > 0 else -z0)]
        bucket.append([{z}])
        bucket.append([{nz}])
        m += 2
        if m > cap:
            raise CapExceeded("more than %d vectors" % cap)
    if s and (f1 or z1):
        z0, e = divmod(-s - c0, d0)
        if not e:
            bucket = buckets[l0 + (z0 if z0 > 0 else -z0)]
            bucket.append([{z}])
            bucket.append([{nz}])
            m += 2
            if m > cap:
                raise CapExceeded("more than %d vectors" % cap)
"""
# a segment ending above level 1 hands the coordinates fixed so far to the next
_NEXT = ("    n, m = segs[{s}](ldl, ws, ({z},), r{j}, c{j}, f{j}, l{j}, n, m, buckets, cap,"
         " nodecap, segs)\n")


def _walk_sources(k):
    """The source of each segment of the walk of rank k >= 2, outermost
    first. A segment takes the slot of `_eliminated`, the weights, the
    coordinates fixed above it and its top level's state, and returns the
    nodes and vectors counted so far. Level i adds B_L[i] z_i to the sum
    q{L}_{i} of each centre c_L, L < i, that the segment walks (Schnorr and
    Euchner); a later segment rebuilds its sums from the coordinates."""
    out = []

    def partial(row, i):  # c_row's sum once z_i is fixed, complete at i = row + 1
        return "    %s = %sb%d_%d * z%d\n" % ("q%d_%d" % (row, i) if row < i - 1 else "c%d" % row,
                                          "q%d_%d + " % (row, i + 1) * (i < k - 1), row + 1, i, i)

    for top in range(k - 1, 0, -_SEGMENT):
        low = max(top - _SEGMENT + 1, 1)
        last = low - 1  # the lowest centre the segment sums
        bs = ["b%d_%d" % (i, j) for i in range(top, low - 1, -1) for j in range(i, k)]
        at = k + (k - 1 - top) * (k - top) // 2
        text = ("def walk(ldl, ws, zs, r{0}, c{0}, f{0}, l{0}, n, m, buckets, cap, nodecap, segs)"
                ":\n    isqrt = math.isqrt\n    {1}, = ldl[{3}:{4}]\n    {2}, = ws[{3}:{4}]\n"
                "    {5}, = ldl[{6}:{7}]\n").format(
            top, *(", ".join(x + str(i) for i in range(last, top + 1)) for x in "dw"), last,
            top + 1, ", ".join(bs), at, at + len(bs))
        if top < k - 1:  # the coordinates fixed above and the partial sums they give
            text += "    %s, = zs\n" % ", ".join("z%d" % j for j in range(k - 1, top, -1))
            text += "".join(partial(row, j) for j in range(k - 1, top, -1)
                            for row in range(last, top))
        for depth, i in enumerate(range(top, low - 1, -1), 1):
            z = ["z%d" % j for j in range(k - 1, i - 1, -1)] + ["z0"] * (i == 1)
            level = _LEVEL + (_LEAF if i == 1 else _DOWN + _NEXT * (i == low))
            text += "".join("    " * depth + line for line in level.format(
                i=i, j=i - 1, s=len(out) + 1, z=", ".join(z), nz=", ".join("-" + x for x in z),
                sums="".join(partial(row, i) for row in range(last, i))).splitlines(True))
        out.append(text + "    return n, m\n")
    return out


def _compiled(source):
    # the code of the function source defines, which is dropped, so nothing
    # is left referring back to the namespace it was made in
    space = {}
    exec(source, space)
    return space.pop("walk").__code__


def vectors_of_norm(lat, value, cap=200000):
    """All lattice vectors of the given self-pairing, definite lattices only.

    Integer Fincke-Pohst enumeration over the fraction-free LDL^T that
    `_eliminated` gives and a Lattice keeps (a Lattice._known one from its
    first call): pivots D_1, ..., D_k (D_0 = 1) and rows B_i of the gram
    in reversed coordinates (z_i = x_{k-1-i}), negated when g_00 < 0, so
    q = sum_i (D_{i+1} z_i + c_i)^2 / (D_i D_{i+1}) with
    c_i = sum_{j>i} B_i[j] z_j. Scaled by M = lcm(D_i D_{i+1}), every term
    has an integer weight, so each coordinate's range is an exact integer
    square root. Unless all k pivots are positive (Sylvester), the call
    raises NotDefinite and keeps nothing.

    The walk is nested for loops, one per level z_{k-1}, ..., z_1, from
    source that depends only on the rank (`_walk_sources`, in segments of
    at most _SEGMENT levels), compiled once per rank and kept in `_WALKS`.
    Coordinates, remainders and centres are locals, and each level adds
    its term to the partial sums of the centres below it. The walk fixes
    z_{k-1} = x_0 first and walks each range from the top down. It walks
    only half the tree: while every coordinate fixed so far is 0 the
    centre is 0 and the range symmetric, so it keeps t >= 0, and finds the
    vectors whose first nonzero coordinate is positive. For each z_1 it
    solves z_0 by an exact-square test and writes the vector and its
    negative, as two list displays. CapExceeded is raised there as soon as
    the vectors found, with their negatives, number more than `cap`, and
    before a level's loop when the coordinates tried, its whole range
    counted at once, number more than ENUM_NODE_CAP: a huge value on a
    small lattice stops at once instead of walking a range of 10^19.

    The order is pinned: by L1 norm, then coordinates in descending order.
    The walk lists the half in descending order, and every vector of it
    exceeds every negated one, so each L1 norm's vectors are the half's
    followed by their negatives in reverse. The leaf appends a vector and
    its negative to its norm's bucket in turn, so a bucket is emitted as
    its even entries, then its odd entries backwards; nothing is sorted.
    The `roots` goldens pin this order, and so does the E8(2) vector cache,
    whose order the tuple search follows. A lat that is not a Lattice, a
    value that is not an int, or a cap that is not a nonnegative int, is
    malformed: BadShape.
    """
    if not isinstance(lat, Lattice):
        raise BadShape("lat: %r is not a Lattice" % (lat,))
    _int(value, "value")
    if not _is_int(cap) or cap < 0:
        raise BadShape("cap: %r is not a nonnegative integer" % (cap,))
    k = lat.rank
    if k == 0:
        return []
    ldl = lat._ldl = lat._ldl or _eliminated(lat.gram)[4]
    if ldl is None:
        raise NotDefinite("enumeration requires a definite lattice")
    sign = 1 if lat.gram[0][0] > 0 else -1
    if value == 0 or (value < 0) == (sign > 0):
        return []  # zero, or the sign the lattice never takes
    pairs = [ldl[0], *map(mul, ldl[:k - 1], ldl[1:k])]  # D_i D_{i+1}, D_0 = 1
    big_m = math.lcm(*pairs)
    ws = [big_m // p for p in pairs]
    rem = big_m * sign * value
    if k == 1:
        # M = D_1 and w_0 = 1, so rem = (D_1 x_0)^2: one pair at most
        s = math.isqrt(rem)
        if s * s != rem or s % big_m:
            return []
        if cap < 2:
            raise CapExceeded("more than %d vectors" % cap)
        return [[s // big_m], [-s // big_m]]
    codes = _WALKS.lookup(k) or _WALKS.keep(k, tuple(map(_compiled, _walk_sources(k))))
    segs = tuple(FunctionType(code, globals()) for code in codes)
    # L1 norm -> the half's vectors of that norm, each followed by its negative
    buckets = defaultdict(list)
    segs[0](ldl, ws, (), rem, 0, False, 0, 0, 0, buckets, cap, ENUM_NODE_CAP, segs)
    out = []
    for n in sorted(buckets):
        bucket = buckets[n]
        out += bucket[::2]
        out += bucket[::-2]
    return out


_U = [[0, 1], [1, 0]]
_U2 = [[0, 2], [2, 0]]

# Negated E8 Cartan matrix, nodes in the standard Bourbaki order
# (chain 1-3-4-5-6-7-8 with node 2 hanging off node 4).
_E8_EDGES = [(1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)]


def _e8_gram():
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = -2
    for a, b in _E8_EDGES:
        g[a - 1][b - 1] = 1
        g[b - 1][a - 1] = 1
    return g


def _block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    g = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        k = len(b)
        for i in range(k):
            for j in range(k):
                g[off + i][off + j] = b[i][j]
        off += k
    return g


def _scaled(g, s):
    return [[s * x for x in row] for row in g]


def _register(gram, *names):
    """Every alias in names mapped to the one Lattice of gram."""
    return dict.fromkeys(names, Lattice(gram))


# every alias of a standard lattice -> its one Lattice, built at import
_TAGS = {
    **_register(_U, "U", "u", "hyperbolic"),
    **_register(_U2, "U2", "u2", "U(2)", "u(2)"),
    **_register(_e8_gram(), "E8", "e8"),
    **_register(_scaled(_e8_gram(), 2), "E82", "e82", "E8(2)", "e8(2)"),
    **_register(_block_diag(_U2, _scaled(_e8_gram(), 2)), "M", "m"),
    **_register(_block_diag(_U, _U2, _scaled(_e8_gram(), 2)), "N", "n"),
    **_register(_block_diag(_e8_gram(), _e8_gram(), _U, _U, _U), "Lambda", "lambda", "K3"),
}


def standard_lattice(tag):
    """Fixed lattices by tag: U, U2, E8, E82, M, N, Lambda.

    Each lattice is built once, at import, and every alias of it names
    that one instance: it is shared by every caller, with what it keeps
    (its discriminant form), and must not be mutated.
    """
    if tag not in _TAGS:
        raise UnknownTag("unknown lattice tag %r" % (tag,))
    return _TAGS[tag]
