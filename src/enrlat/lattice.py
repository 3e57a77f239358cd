"""Even integral lattices with exact arithmetic.

A Lattice wraps a nondegenerate symmetric integer Gram matrix with even
diagonal. Built from a gram, it gets its determinant and signature from
one fraction-free symmetric elimination (`intmat.eliminate_symmetric`):
the pivots' signs give the signature and the last pivot is the
determinant. An orthogonal complement reads both off instead: from the
Smith form of rows * G that finds its basis and from the rows' own small
gram S: `orthogonal_complement` eliminates S, while the complement of a
validated embedding reads S's det and signature off the embedding's
source (`_complement`). Products against
a Lattice's gram read the nonzero entries of each gram row, kept on the
lattice after its first product; a raw gram matrix (`gram_of_rows`) is
multiplied by `intmat.mat_mul`. Either product is then paired with the
rows' nonzero entries alone; `_products` collects them in its own pass.
Degenerate restrictions are first class citizens via
DegenerateQuadraticModule rather than errors, because orthogonal complements
inside hyperbolic pieces routinely produce them: a restriction's gram is
eliminated once, and a singular one gives the module.
"""

from math import prod
from operator import mul

from .errors import (
    BadShape,
    Degenerate,
    DependentVectors,
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
        pos, neg, zero, det, _ = eliminate_symmetric(gram)
        if zero:
            raise Degenerate("gram is singular")
        self._keep(gram, det, (pos, neg))

    @classmethod
    def _known(cls, gram, det, signature):
        """The Lattice of an even symmetric gram whose det (nonzero) and
        signature are already known: no check and no elimination."""
        lat = cls.__new__(cls)
        lat._keep(gram, det, signature)
        return lat

    def _keep(self, gram, det, signature):
        self.gram = tuple(map(tuple, gram))
        self.rank = len(self.gram)
        self.det = det
        self.signature = signature
        self._discriminant = None  # kept by fqf.discriminant_form
        self._nonzero = None  # kept by _products

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
    pos, neg, zero, det, _ = eliminate_symmetric(g)
    if zero:
        return DegenerateQuadraticModule(g, zero)
    return Lattice._known(g, det, (pos, neg))


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
    index = prod(factors)
    sig = lat.signature
    return basis, Lattice._known(_restricted_gram(lat, basis), lat.det * det_s // (index * index),
                                 (sig[0] - sig_s[0], sig[1] - sig_s[1]))


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
