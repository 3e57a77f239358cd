"""The rank-12 ambient lattice, its parity character, and isometries.

Vectors are integer rows in the fixed basis (e, f, h, k, w1..w8): the
first two span a hyperbolic plane, the next two a hyperbolic plane scaled
by 2, the rest a negative definite even piece scaled by 2. The character
reads the two coefficients on the unscaled hyperbolic plane.
"""

import random
from dataclasses import dataclass

from .errors import BadLength, BadShape, GramMismatch
from .intmat import identity, mat_mul, mat_vec, sqrt_exact
from .lattice import Lattice, _int, gram_of_rows, standard_lattice


def ambient():
    return standard_lattice("N")


def epsilon(vector):
    """Parity character: sum of the two unscaled hyperbolic coefficients."""
    if len(vector) != 12:
        raise BadLength("expected a vector of length 12")
    return (vector[0] + vector[1]) % 2


def is_twice_even(gram):
    """All values divisible by 4 on the diagonal and even off it."""
    n = len(gram)
    for i in range(n):
        if gram[i][i] % 4:
            return False
        for j in range(n):
            if gram[i][j] % 2:
                return False
    return True


@dataclass(frozen=True)
class InvolutionSplit:
    matrix: tuple
    plus_rows: tuple
    plus: Lattice
    minus_rows: tuple
    minus: Lattice
    index: int


def involution_eigenlattices():
    """Order-two isometry of the rank-22 unimodular lattice and its halves.

    The involution swaps the two definite summands, swaps the first two
    hyperbolic planes and negates the third. The fixed part is isometric to
    the standard rank-10 twice-even lattice, the anti-fixed part to the
    rank-12 ambient one.
    """
    lam = standard_lattice("Lambda")
    n = lam.rank
    iota = [[0] * n for _ in range(n)]
    for i in range(8):
        iota[i][8 + i] = 1
        iota[8 + i][i] = 1
    iota[16][18] = iota[17][19] = 1
    iota[18][16] = iota[19][17] = 1
    iota[20][20] = iota[21][21] = -1
    g = [list(r) for r in lam.gram]
    # involution must preserve the form
    assert gram_of_rows(iota, g) == g

    def row(*pairs):
        r = [0] * n
        for idx, c in pairs:
            r[idx] = c
        return r

    plus_rows = [row((16, 1), (18, 1)), row((17, 1), (19, 1))]
    plus_rows += [row((i, 1), (8 + i, 1)) for i in range(8)]
    minus_rows = [row((20, 1)), row((21, 1)),
                  row((16, 1), (18, -1)), row((17, 1), (19, -1))]
    minus_rows += [row((i, 1), (8 + i, -1)) for i in range(8)]
    assert mat_mul(plus_rows, iota) == plus_rows
    assert mat_mul(minus_rows, iota) == [[-x for x in r] for r in minus_rows]
    plus = Lattice(gram_of_rows(plus_rows, g))
    minus = Lattice(gram_of_rows(minus_rows, g))
    if plus.gram != standard_lattice("M").gram:
        raise GramMismatch("fixed part is not the standard rank-10 lattice")
    if minus.gram != standard_lattice("N").gram:
        raise GramMismatch("anti-fixed part is not the standard ambient lattice")
    index = sqrt_exact(abs(plus.det) * abs(minus.det) // abs(lam.det))
    assert index is not None
    return InvolutionSplit(
        tuple(tuple(r) for r in iota),
        tuple(tuple(r) for r in plus_rows),
        plus,
        tuple(tuple(r) for r in minus_rows),
        minus,
        index,
    )


def _reflection(nlat, v):
    # v must have self-pairing -2; x -> x + (x.v) v, and e_i.v = (G v)_i,
    # so the matrix is I + (G v) v^T
    assert nlat.norm(v) == -2
    gv = mat_vec(nlat.gram, v)
    return [[int(i == j) + c * x for j, x in enumerate(v)] for i, c in enumerate(gv)]


def generate_isometry(seed, length):
    """Deterministic word of character-preserving isometries of the ambient
    lattice, returned as a row-action matrix (x maps to x times the matrix).
    A length that is not a nonnegative int is malformed: BadShape."""
    if _int(length, "length") < 0:
        raise BadShape("length: %r is negative" % (length,))
    nlat = ambient()
    n = nlat.rank
    rng = random.Random(seed)
    cur = identity(n)
    for _ in range(length):
        if rng.random() < 0.5:
            u = [0] * n
            for idx in range(2, n):
                u[idx] = rng.randint(-2, 2)
            c = -1 - nlat.norm(u) // 2
            v = [0] * n
            v[0] = 1
            v[1] = c
            for idx in range(2, n):
                v[idx] = u[idx]
            step = _reflection(nlat, v)
        else:
            u = [0] * n
            u[rng.randint(0, 1)] = 1
            a = [0] * n
            for idx in range(2, n):
                a[idx] = rng.randint(-2, 2)
            step = _eichler(nlat, u, a)
        cur = mat_mul(cur, step)
    g = [list(r) for r in nlat.gram]
    assert gram_of_rows(cur, g) == g
    return tuple(tuple(r) for r in cur)


def _eichler(nlat, u, a):
    # u isotropic, a orthogonal to u, self-pairing of a divisible by 4
    assert nlat.norm(u) == 0 and nlat.bilinear(u, a) == 0
    asq = nlat.norm(a)
    assert asq % 4 == 0
    # row i is e_i + (G u)_i a - (G a)_i u - (a.a / 2) (G u)_i u
    gu, ga = mat_vec(nlat.gram, u), mat_vec(nlat.gram, a)
    half = asq // 2
    return [
        [int(i == j) + cu * y - ca * x - half * cu * x for j, (x, y) in enumerate(zip(u, a))]
        for i, (cu, ca) in enumerate(zip(gu, ga))
    ]
