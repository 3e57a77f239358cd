"""Finite quadratic forms on finite abelian groups, with exact values.

A form is stored by a generator presentation: the group is the direct sum
of Z/orders[i], the quadratic value q lives in Q/2Z (kept in [0, 2)) and
the pairing b lives in Q/Z (kept in [0, 1)). The value matrix holds q on
the diagonal and b off it. Gauss sums, Jordan splitting, subquotients and
the isomorphism search all work on this single representation.

Every walk over the elements of a group or subgroup goes through `_walk`,
which scales the value matrix once to integers over its common denominator
and updates q in integers from one element to the next. The walks still
visit whole groups, so the group-order caps stay until local genus symbols
replace enumeration.
"""

import cmath
import math
from collections import Counter
from fractions import Fraction
from itertools import product
from operator import add

from .errors import (
    BadCongruence,
    BadShape,
    CapExceeded,
    Degenerate,
    NonWitt,
    NotIsotropic,
    NotSubgroup,
    Unsupported,
)
from .intmat import (
    hnf_rows,
    inv_mod,
    inverse_fraction,
    inverse_unimodular,
    mat_mul,
    prime_factors,
    right_kernel_int,
    snf_with_transforms,
    solve_int,
    transpose,
    val_p,
)
from .lattice import gram_of_rows


def _frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def _exact_int_mat(m):
    out = []
    for row in m:
        line = []
        for x in row:
            f = _frac(x)
            if f.denominator != 1:
                return None
            line.append(int(f))
        out.append(line)
    return out


def _denominator(values):
    """Common denominator m of a value matrix."""
    m = 1
    for row in values:
        for x in row:
            m = math.lcm(m, x.denominator)
    return m


def _walk(orders, values):
    """Yield (coords, q * m mod 2m) for every element of (+) Z/orders[i], in
    itertools.product order, with m = _denominator(values).

    values is the value matrix of the generators, so a subgroup is walked
    by passing its own generators' orders and values. Along the last
    generator e, q(x + ce) = q(x) + c^2 q(e) + 2c b(x, e); moving to the
    next x adds one earlier generator and updates q(x) and every 2b(x, e_j)
    the same way. All of it in integers.
    """
    k = len(orders)
    if k == 0:
        yield (), 0
        return
    m = _denominator(values)
    twom = 2 * m
    qint = [int(values[i][i] * m) % twom for i in range(k)]
    twob = [[int(2 * values[i][j] * m) % twom for j in range(k)] for i in range(k)]
    last, qe = orders[-1], qint[-1]
    coords = [0] * (k - 1)
    t = [0] * k  # t[j] = 2b(x, e_j) * m at the current x, left unreduced
    q = 0
    for _ in range(math.prod(orders[:-1])):
        head, tl = tuple(coords), t[-1]
        for c in range(last):
            yield head + (c,), (q + c * (c * qe + tl)) % twom
        i = k - 2
        while i >= 0:
            q = (q + qint[i] + t[i]) % twom
            t = list(map(add, t, twob[i]))
            if coords[i] < orders[i] - 1:
                coords[i] += 1
                break
            coords[i] = 0
            i -= 1


def _q_fingerprint(orders, values):
    """Sorted (q value, count) pairs over the whole group."""
    m = _denominator(values)
    counts = Counter(q for _, q in _walk(orders, values))
    return tuple(sorted((Fraction(r, m), c) for r, c in counts.items()))


def _values_on(f, rows):
    """Value matrix of the elements rows of f: q on the diagonal, b off it."""
    return [
        [f.q_of(x) if i == j else f.b_of(x, y) for j, y in enumerate(rows)]
        for i, x in enumerate(rows)
    ]


def _lift(f, rows):
    """Lattice vectors of the elements rows of f, if f carries generators."""
    if f.gens_in_lattice is None:
        return None
    n = len(f.gens_in_lattice[0]) if f.gens_in_lattice else 0
    return [
        [sum((c * g[t] for c, g in zip(row, f.gens_in_lattice) if c), Fraction(0))
         for t in range(n)]
        for row in rows
    ]


def _two_torsion(f):
    """Generators (d/2)e_i of the two-torsion, one per even order d, and
    their value matrix; walking them visits the two-torsion in the order
    itertools.product visits the coordinates of f."""
    gens = [
        [d // 2 if j == i else 0 for j in range(f.num_gens)]
        for i, d in enumerate(f.orders) if d % 2 == 0
    ]
    return gens, _values_on(f, gens)


class FiniteQuadraticForm:
    """Quadratic form q: A -> Q/2Z on A = (+) Z/orders[i]."""

    def __init__(self, orders, values, gens_in_lattice=None):
        orders = tuple(int(d) for d in orders)
        if any(d < 2 for d in orders):
            raise BadShape("generator orders must be at least 2")
        k = len(orders)
        if len(values) != k or any(len(r) != k for r in values):
            raise BadShape("value matrix must be %d x %d" % (k, k))
        vals = [[_frac(values[i][j]) for j in range(k)] for i in range(k)]
        for i in range(k):
            for j in range(k):
                if i == j:
                    vals[i][j] %= 2
                else:
                    vals[i][j] %= 1
        for i in range(k):
            for j in range(i):
                if vals[i][j] != vals[j][i]:
                    raise BadShape("value matrix must be symmetric")
        for i in range(k):
            d, q = orders[i], vals[i][i]
            if (d * q).denominator != 1 or (d * d * q) % 2 != 0:
                raise BadShape("q value %s invalid for a generator of order %d" % (q, d))
            for j in range(k):
                if i != j and (d * vals[i][j]).denominator != 1:
                    raise BadShape("pairing %s invalid for order %d" % (vals[i][j], d))
        self.orders = orders
        self.values = tuple(tuple(r) for r in vals)
        if gens_in_lattice is not None:
            gens_in_lattice = tuple(
                tuple(_frac(x) for x in row) for row in gens_in_lattice
            )
            if len(gens_in_lattice) != k:
                raise BadShape("one lattice vector per generator required")
        self.gens_in_lattice = gens_in_lattice
        self._canonical = None

    @property
    def num_gens(self):
        return len(self.orders)

    @property
    def group_order(self):
        n = 1
        for d in self.orders:
            n *= d
        return n

    @property
    def is_trivial(self):
        return not self.orders

    @property
    def invariant_factors(self):
        return canonical_form(self).orders

    def q_of(self, coords):
        v = self.values
        s = Fraction(0)
        k = self.num_gens
        for i in range(k):
            ci = coords[i]
            if ci:
                s += ci * ci * v[i][i]
                for j in range(i + 1, k):
                    if coords[j]:
                        s += 2 * ci * coords[j] * v[i][j]
        return s % 2

    def b_of(self, x, y):
        v = self.values
        s = Fraction(0)
        for i in range(self.num_gens):
            if x[i]:
                for j in range(self.num_gens):
                    if y[j]:
                        s += x[i] * y[j] * v[i][j]
        return s % 1

    def element_order(self, coords):
        out = 1
        for d, c in zip(self.orders, coords):
            c %= d
            out = math.lcm(out, d // math.gcd(d, c))
        return out

    def elements(self):
        return product(*[range(d) for d in self.orders])

    def reduce(self, coords):
        return tuple(c % d for c, d in zip(coords, self.orders))

    def __eq__(self, other):
        return (
            isinstance(other, FiniteQuadraticForm)
            and self.orders == other.orders
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.orders, self.values))

    def __repr__(self):
        return "FiniteQuadraticForm(orders=%s)" % (self.orders,)


def trivial_form():
    return FiniteQuadraticForm((), ())


def discriminant_form(lat):
    """Dual quotient of an even lattice with its induced form.

    Generators come with rational lifts (rows in the coordinates of lat),
    which overlattice and coordinate routines rely on.
    """
    n = lat.rank
    if n == 0:
        return trivial_form()
    d, u, v = snf_with_transforms([list(r) for r in lat.gram])
    kept = [i for i in range(n) if d[i][i] > 1]
    gens = []
    for i in kept:
        gens.append([Fraction(u[i][j], d[i][i]) for j in range(n)])
    # generator a is u[a] / d_a, so its pairings are W / (d_a d_b)
    w = gram_of_rows([u[i] for i in kept], lat.gram)
    orders = tuple(d[i][i] for i in kept)
    vals = [
        [Fraction(w[a][b], da * db) % (2 if a == b else 1) for b, db in enumerate(orders)]
        for a, da in enumerate(orders)
    ]
    return FiniteQuadraticForm(orders, vals, gens_in_lattice=gens)


def direct_sum_fqf(f1, f2):
    k1, k2 = f1.num_gens, f2.num_gens
    vals = [[Fraction(0)] * (k1 + k2) for _ in range(k1 + k2)]
    for i in range(k1):
        for j in range(k1):
            vals[i][j] = f1.values[i][j]
    for i in range(k2):
        for j in range(k2):
            vals[k1 + i][k1 + j] = f2.values[i][j]
    return FiniteQuadraticForm(f1.orders + f2.orders, vals)


def negate_fqf(f):
    k = f.num_gens
    vals = [
        [(-f.values[i][j]) % (2 if i == j else 1) for j in range(k)]
        for i in range(k)
    ]
    return FiniteQuadraticForm(f.orders, vals, gens_in_lattice=f.gens_in_lattice)


def canonical_with_maps(f):
    """Invariant-factor presentation plus coordinate dictionaries.

    Returns (canonical, old_to_new, new_to_old): old_to_new[i] gives the
    coordinates of original generator i in the canonical generators, and
    new_to_old[j] the coordinates of canonical generator j in the original
    ones.
    """
    k = f.num_gens
    if k == 0:
        return f, [], []
    dmat = [[f.orders[i] if i == j else 0 for j in range(k)] for i in range(k)]
    d, u, v = snf_with_transforms(dmat)
    uinv = inverse_unimodular(u)
    kept = [j for j in range(k) if d[j][j] > 1]
    qp = []
    for a in range(k):
        row = []
        for b in range(k):
            s = Fraction(0)
            for i in range(k):
                ci = uinv[i][a]
                if ci:
                    for j in range(k):
                        if uinv[j][b]:
                            s += ci * uinv[j][b] * f.values[i][j]
            row.append(s)
        qp.append(row)
    for j in range(k):
        if j not in kept:
            assert qp[j][j] % 2 == 0
            assert all(qp[j][t] % 1 == 0 for t in range(k) if t != j)
    orders = tuple(d[j][j] for j in kept)
    vals = [
        [qp[a][b] % (2 if a == b else 1) for b in kept]
        for a in kept
    ]
    gens = _lift(f, [[uinv[i][j] for i in range(k)] for j in kept])
    can = FiniteQuadraticForm(orders, vals, gens_in_lattice=gens)
    old_to_new = [
        [u[j][i] % d[j][j] for j in kept] for i in range(k)
    ]
    new_to_old = [
        [uinv[i][j] % f.orders[i] for i in range(k)] for j in kept
    ]
    return can, old_to_new, new_to_old


def canonical_form(f):
    if f._canonical is None:
        f._canonical = canonical_with_maps(f)[0]
    return f._canonical


def p_part_with_coords(f, p):
    """Subform on the p-torsion, with its generators in f coordinates."""
    kept = [i for i in range(f.num_gens) if f.orders[i] % p == 0]
    coords = []
    orders = []
    for i in kept:
        a = val_p(f.orders[i], p)
        m = f.orders[i] // p**a
        row = [0] * f.num_gens
        row[i] = m
        coords.append(row)
        orders.append(p**a)
    form = FiniteQuadraticForm(orders, _values_on(f, coords), gens_in_lattice=_lift(f, coords))
    return form, coords


def p_part(f, p):
    return p_part_with_coords(f, p)[0]


def milgram_signature(f, cap=1 << 22):
    """Signature mod 8 read off the Gauss sum of the form.

    The q values over the whole group are tallied exactly as integers over
    a common denominator; only the final phase recognition is numeric, with
    a certified margin. Raises NonWitt when the sum does not land on any of
    the eight admissible phases.
    """
    n = f.group_order
    if n > cap:
        raise CapExceeded("group order %d exceeds cap %d" % (n, cap))
    hist = _q_fingerprint(f.orders, f.values)
    s = sum(c * cmath.exp(1j * math.pi * float(q)) for q, c in hist)
    target = math.sqrt(n)
    for sig in range(8):
        z = target * cmath.exp(1j * math.pi * sig / 4)
        if abs(s - z) < 0.35 * target:
            return sig
    raise NonWitt("Gauss sum %s does not match any admissible phase" % s)


def subgroup_matrix(f, gens):
    """Canonical lower-triangular matrix whose row span mod relations is
    the subgroup generated by gens (coordinate rows)."""
    k = f.num_gens
    rows = [list(g) for g in gens]
    for i in range(k):
        rel = [0] * k
        rel[i] = f.orders[i]
        rows.append(rel)
    return hnf_rows(rows, k)


def subgroup_order(f, mat):
    det = 1
    for i in range(len(mat)):
        det *= mat[i][i]
    return f.group_order // abs(det)


def subgroup_gens(f, mat):
    out = []
    for row in mat:
        r = f.reduce(row)
        if any(r):
            out.append(list(r))
    return out


def perp_subgroup(f, gens):
    """Canonical matrix of everything pairing integrally with the gens."""
    k = f.num_gens
    cons = []
    mods = []
    for a in gens:
        beta = [f.b_of(_unit(k, j), a) for j in range(k)]
        ma = 1
        for x in beta:
            ma = math.lcm(ma, x.denominator)
        cons.append([int(x * ma) for x in beta])
        mods.append(ma)
    if not cons:
        return subgroup_matrix(f, [list(_unit(k, j)) for j in range(k)])
    kk = len(cons)
    amat = []
    for r in range(kk):
        row = cons[r] + [0] * kk
        row[k + r] = mods[r]
        amat.append(row)
    sols = right_kernel_int(amat)
    xs = [s[:k] for s in sols]
    return subgroup_matrix(f, xs)


def _unit(k, j):
    row = [0] * k
    row[j] = 1
    return tuple(row)


def form_on_subgroup(f, gens):
    """Form restricted to a subgroup; returns (form, generator coords)."""
    k = f.num_gens
    if k == 0:
        return trivial_form(), []
    bmat = gens if _is_subgroup_matrix(gens, k) else subgroup_matrix(f, gens)
    dmat = [[f.orders[i] if i == j else 0 for j in range(k)] for i in range(k)]
    coords, orders, _, _, _ = _subquotient(f, bmat, dmat)
    form = FiniteQuadraticForm(orders, _values_on(f, coords), gens_in_lattice=_lift(f, coords))
    return form, coords


def _subquotient(f, tmat, smat):
    """Generators of T/S for subgroup matrices S inside T.

    Returns (coords, orders, tinv, v, kept): the generators in f
    coordinates and their orders, plus what QuotientMap needs to map
    elements of T onto them.
    """
    k = f.num_gens
    tinv = inverse_fraction(tmat)
    c = _exact_int_mat(mat_mul(smat, tinv))
    if c is None:
        raise NotSubgroup("denominator subgroup is not inside the numerator")
    d, _, v = snf_with_transforms(c)
    vinv = inverse_unimodular(v)
    kept = [i for i in range(k) if d[i][i] > 1]
    coords = []
    for i in kept:
        w = [sum(vinv[i][t] * tmat[t][j] for t in range(k)) for j in range(k)]
        coords.append(list(f.reduce(w)))
    orders = tuple(d[i][i] for i in kept)
    return coords, orders, tinv, v, kept


def _is_subgroup_matrix(rows, k):
    if len(rows) != k:
        return False
    for i, r in enumerate(rows):
        if len(r) != k or r[i] <= 0:
            return False
        if any(r[j] != 0 for j in range(i + 1, k)):
            return False
    return True


class QuotientMap:
    """Coordinates for a quotient T/S of subgroups of a form."""

    def __init__(self, f, tmat, tinv, v, orders, kept, gens_in_ambient):
        self.ambient = f
        self.tmat = tmat
        self._tinv = tinv
        self._v = v
        self.orders = orders
        self._kept = kept
        self.gens_in_ambient = gens_in_ambient

    def to_coords(self, coords):
        k = self.ambient.num_gens
        w = [sum(_frac(coords[t]) * self._tinv[t][j] for t in range(k)) for j in range(k)]
        y = [sum(w[t] * self._v[t][j] for t in range(k)) for j in range(k)]
        out = []
        for pos, j in enumerate(self._kept):
            val = y[j]
            if val.denominator != 1:
                raise NotSubgroup("element is not in the numerator subgroup")
            out.append(int(val) % self.orders[pos])
        for j in range(k):
            if j not in self._kept and y[j].denominator != 1:
                raise NotSubgroup("element is not in the numerator subgroup")
        return tuple(out)


def quotient_form(f, tmat, smat):
    """Form induced on T/S; S must be isotropic and pair trivially with T.

    Returns (form, QuotientMap).
    """
    k = f.num_gens
    coords, orders, tinv, v, kept = _subquotient(f, tmat, smat)
    tgens = subgroup_gens(f, tmat)
    for s in subgroup_gens(f, smat):
        if f.q_of(s) % 2 != 0:
            raise NotIsotropic("q does not vanish on the denominator subgroup")
        for t in tgens:
            if f.b_of(t, s) != 0:
                raise NotIsotropic("denominator pairs nontrivially with numerator")
    vfrac = [[_frac(v[i][j]) for j in range(k)] for i in range(k)]
    qmap = QuotientMap(f, tmat, tinv, vfrac, orders, kept, coords)
    return FiniteQuadraticForm(orders, _values_on(f, coords)), qmap


def fqf_coords_of(f, vector):
    """Coordinates in f of a rational vector lying in the dual lattice."""
    if f.gens_in_lattice is None:
        raise Unsupported("form carries no lattice generators")
    k = f.num_gens
    n = len(vector)
    vec = [_frac(x) for x in vector]
    den = 1
    for row in f.gens_in_lattice:
        for x in row:
            den = math.lcm(den, x.denominator)
    for x in vec:
        den = math.lcm(den, x.denominator)
    rows = []
    for grow in f.gens_in_lattice:
        rows.append([int(x * den) for x in grow])
    for i in range(n):
        r = [0] * n
        r[i] = den
        rows.append(r)
    target = [int(x * den) for x in vec]
    sol = solve_int(transpose(rows), target)
    if sol is None:
        raise BadCongruence("vector is not in the dual lattice")
    return tuple(sol[i] % f.orders[i] for i in range(k))


def splits_unit_block(f):
    """Whether the scale-2 part contains a one-generator unit summand.

    Detected through order-2 elements with half-integral q value.
    """
    gens, vals = _two_torsion(f)
    if len(gens) > 24:
        raise CapExceeded("too much 2-torsion to enumerate")
    m = _denominator(vals)
    return any(2 * q in (m, 3 * m) for _, q in _walk((2,) * len(gens), vals))


def odd_jordan(f, p):
    """Greedy one-generator splitting of the p-part, p odd.

    Returns blocks as (scale, q value) pairs with scale a power of p,
    largest scale first.
    """
    cur = p_part(canonical_form(f), p)
    blocks = []
    while cur.num_gens:
        found = _top_scale_element(cur)
        if found is None:
            raise Degenerate("no generator of exact top scale; form is degenerate")
        blocks.append((cur.orders[-1], found[1]))
        perp = perp_subgroup(cur, [list(found[0])])
        cur, _ = form_on_subgroup(cur, perp)
    return blocks


def _top_scale_element(f):
    """First element, in walk order, of the top order d whose q value has
    denominator exactly d, with that q value; None if there is none."""
    top = f.orders[-1]
    m = _denominator(f.values)
    for coords, q in _walk(f.orders, f.values):
        if q and m // math.gcd(q, m) == top and f.element_order(coords) == top:
            return coords, Fraction(q, m)
    return None


def two_adic_jordan(f):
    """Greedy splitting of the 2-part into one-generator and even blocks.

    Blocks are ('q', scale, value) for one-generator pieces and ('u', scale)
    or ('v', scale) for the two even types, recognized by their exact
    q-value histograms.
    """
    cur = p_part(canonical_form(f), 2)
    blocks = []
    while cur.num_gens:
        top = cur.orders[-1]
        found = _top_scale_element(cur)
        if found is not None:
            blocks.append(("q", top, found[1]))
            gens = [list(found[0])]
        else:
            # an element y pairing with x to denominator top has order top too
            pair = next(
                (
                    (list(x), list(y))
                    for x, _ in _walk(cur.orders, cur.values)
                    if cur.element_order(x) == top
                    for y, _ in _walk(cur.orders, cur.values)
                    if cur.b_of(x, y).denominator == top
                ),
                None,
            )
            if pair is None:
                raise Degenerate("no exact pairing at top scale; form is degenerate")
            span, _ = form_on_subgroup(cur, pair)
            assert span.orders == (top, top)
            hist = _q_fingerprint(span.orders, span.values)
            a, b = Fraction(1, top), Fraction(2, top)
            hu = _q_fingerprint((top, top), [[0, a], [a, 0]])
            hv = _q_fingerprint((top, top), [[b, a], [a, b]])
            assert hu != hv
            if hist == hu:
                blocks.append(("u", top))
            elif hist == hv:
                blocks.append(("v", top))
            else:
                raise Unsupported("even block matches neither reference histogram")
            gens = pair
        cur, _ = form_on_subgroup(cur, perp_subgroup(cur, gens))
    return blocks


def _fingerprints_differ(f1, f2, cap=200000):
    """Whether two forms on the same group have different q-value
    histograms; False, without a walk, for groups over the cap."""
    return f1.group_order <= cap and (
        _q_fingerprint(f1.orders, f1.values) != _q_fingerprint(f2.orders, f2.values)
    )


def _p_group_backtrack(p1, p2, budget):
    k = p1.num_gens
    if k == 0:
        return []
    # candidates keyed by (element order, q * m), m the denominator of p2;
    # an integral Fraction key hashes like the int the walk yields, and a
    # key whose q * m is not an integer collects none
    m = _denominator(p2.values)
    keys = [(p1.orders[i], p1.values[i][i] * m) for i in range(k)]
    cands = {key: [] for key in keys}
    wanted_q = {q for _, q in keys}
    for c, q in _walk(p2.orders, p2.values):
        if q in wanted_q:
            bucket = cands.get((p2.element_order(c), q))
            if bucket is not None:
                bucket.append(list(c))
    order_index = list(range(k - 1, -1, -1))
    chosen = [None] * k

    def dfs(pos):
        if pos == len(order_index):
            mat = subgroup_matrix(p2, [chosen[i] for i in range(k)])
            return subgroup_order(p2, mat) == p2.group_order
        i = order_index[pos]
        for c in cands[keys[i]]:
            budget[0] -= 1
            if budget[0] < 0:
                raise CapExceeded("isomorphism search budget exhausted")
            ok = True
            for pos2 in range(pos):
                j = order_index[pos2]
                if p2.b_of(c, chosen[j]) != p1.values[i][j]:
                    ok = False
                    break
            if not ok:
                continue
            chosen[i] = c
            if dfs(pos + 1):
                return True
            chosen[i] = None
        return False

    if dfs(0):
        return [list(c) for c in chosen]
    return None


def _p_group_iso(p1, p2, budget):
    if p1.orders != p2.orders:
        return None
    if p1.values == p2.values:
        return [list(_unit(p1.num_gens, i)) for i in range(p1.num_gens)]
    if _fingerprints_differ(p1, p2):
        return None
    return _p_group_backtrack(p1, p2, budget)


def fqf_isomorphic(f1, f2, cap=2_000_000):
    """Explicit isomorphism between two forms, or None.

    The result maps generator i of f1 to the coordinate vector result[i]
    in f2. Splits into p-parts, solves each one, and recombines.
    """
    c1, old_to_new1, _ = canonical_with_maps(f1)
    c2, _, new_to_old2 = canonical_with_maps(f2)
    if c1.orders != c2.orders:
        return None
    k = len(c1.orders)
    if k == 0:
        images = [[0] * f2.num_gens for _ in range(f1.num_gens)]
        assert verify_fqf_iso(f1, f2, images)
        return images
    if c1.values == c2.values:
        can_images = [list(_unit(k, i)) for i in range(k)]
    else:
        if _fingerprints_differ(c1, c2):
            return None
        budget = [cap]
        primes = list(prime_factors(c1.group_order))
        parts = {}
        for p in primes:
            p1, coords1 = p_part_with_coords(c1, p)
            p2, coords2 = p_part_with_coords(c2, p)
            phi = _p_group_iso(p1, p2, budget)
            if phi is None:
                return None
            parts[p] = (coords1, coords2, phi)
        can_images = []
        for i in range(k):
            d = c1.orders[i]
            img = [0] * k
            for p in primes:
                a = val_p(d, p)
                if a == 0:
                    continue
                coords1, coords2, phi = parts[p]
                pos = next(
                    t for t, row in enumerate(coords1)
                    if row[i] != 0 and all(row[s] == 0 for s in range(k) if s != i)
                )
                lam = inv_mod(d // p**a, p**a)
                image_p = phi[pos]
                for t, mult in enumerate(image_p):
                    if mult:
                        for s in range(k):
                            img[s] += lam * mult * coords2[t][s]
            can_images.append([x % c2.orders[s] for s, x in enumerate(img)])
    # canonical images back to the original generators of both forms
    orig_can = []
    for j in range(k):
        vec = [0] * f2.num_gens
        for t, mult in enumerate(can_images[j]):
            if mult:
                for s in range(f2.num_gens):
                    vec[s] += mult * new_to_old2[t][s]
        orig_can.append([x % f2.orders[s] for s, x in enumerate(vec)])
    images = []
    for i0 in range(f1.num_gens):
        vec = [0] * f2.num_gens
        for j, mult in enumerate(old_to_new1[i0]):
            if mult:
                for s in range(f2.num_gens):
                    vec[s] += mult * orig_can[j][s]
        images.append([x % f2.orders[s] for s, x in enumerate(vec)])
    assert verify_fqf_iso(f1, f2, images)
    return images


def verify_fqf_iso(f1, f2, images):
    """Full check that generator images define an isomorphism of forms."""
    if f1.group_order != f2.group_order:
        return False
    if len(images) != f1.num_gens:
        return False
    for i in range(f1.num_gens):
        img = images[i]
        if len(img) != f2.num_gens:
            return False
        if f1.orders[i] % f2.element_order(img) != 0:
            return False
        if f2.q_of(img) != f1.values[i][i]:
            return False
        for j in range(i):
            if f2.b_of(img, images[j]) != f1.values[i][j]:
                return False
    if f1.num_gens == 0:
        return True
    mat = subgroup_matrix(f2, [list(im) for im in images])
    return subgroup_order(f2, mat) == f2.group_order
