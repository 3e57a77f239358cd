"""Existence of even lattices with prescribed invariants, gluing data for
primitive embeddings of the rank-12 ambient lattice, and odd-index descent."""

from dataclasses import dataclass
from math import gcd, lcm, prod
from operator import mul

from ._store import Store
from .enriques import ambient
from .errors import (
    BadCongruence,
    BadPrime,
    BadShape,
    CapExceeded,
    Degenerate,
    DependentVectors,
    EvenIndex,
    ExistenceFails,
    GramMismatch,
    NoUnitVector,
    NotFound,
    NotTwoGroup,
    StarViolated,
)
from .fqf import (
    FiniteQuadraticForm,
    _dual_basis,
    _local,
    _solve_lower,
    _two_torsion,
    canonical_form,
    direct_sum_fqf,
    discriminant_form,
    is_isomorphic,
    milgram_signature,
    negate_fqf,
    p_part,
    perp_subgroup,
    quotient_form,
    subgroup_matrix,
    subgroup_order,
    trivial_form,
    verify_fqf_iso,
)
from .intmat import (
    is_prime,
    legendre,
    mat_mul,
    prime_factors,
    sqrt_exact,
    transpose,
    val_p,
)
from .lattice import Lattice, _check_int_matrix, _int, gram_of_rows


def exists_even_lattice(signature, form):
    """Whether an even lattice with this signature and discriminant form
    exists."""
    if len(signature) != 2:
        raise BadShape("the signature must have two entries")
    tpos, tneg = (_int(x, "signature") for x in signature)
    if tpos < 0 or tneg < 0:
        return False
    if (tpos - tneg) % 8 != milgram_signature(form):
        return False
    local = _local(form)  # past the signature no p-part is degenerate
    # the length of the group is its largest p-rank, whatever the presentation
    ranks = {p: sum(1 for d in form.orders if d % p == 0) for p in local}
    if tpos + tneg < max(ranks.values(), default=0):
        return False
    if tpos + tneg == 0:
        return form.is_trivial
    order = form.group_order
    for p, scales in local.items():
        if tpos + tneg > ranks[p]:
            continue
        rest = order // p ** val_p(order, p)
        unit = prod(u for _, u, _ in scales.values())
        if p == 2:
            # 2q is additive on A[2], and only a q block at scale 2 makes
            # it odd there: such a scale splits off a one-generator block
            if scales.get(1, (0, 1, None))[2] is not None:
                continue
            if unit * rest % 8 not in (1, 7):
                return False
        else:
            # a block 2t / p^k puts 2t into the determinant: 2^length in all
            if legendre((-1) ** tneg * rest * 2 ** ranks[p] * unit, p) != 1:
                return False
    return True


# search nodes `find_embedding_datum` visits before it gives up
DATUM_NODE_CAP = 200_000


def _difference_form(fl):
    """The difference form fl (+) (-q_N) of fl and the ambient form, built
    on each call: only a `_GLUED` miss asks for it. q_N itself is kept on
    the shared lattice N."""
    return direct_sum_fqf(fl, negate_fqf(discriminant_form(ambient())))


@dataclass(frozen=True)
class EmbeddingDatum:
    """Gluing data: paired two-elementary subgroups with an identification,
    and the invariants demanded of the orthogonal complement."""

    h_l: tuple
    h_n: tuple
    gamma: tuple
    k_rank: int
    k_signature: tuple
    k_fqf: FiniteQuadraticForm
    delta: tuple = None


def _as_rows(rows, what):
    if not isinstance(rows, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in rows):
        raise BadShape("%s must be a list of rows" % what)
    return tuple(tuple(_int(x, what) for x in r) for r in rows)


def make_datum(h_l, h_n, gamma, k_rank, k_signature, k_fqf, delta=None):
    if not isinstance(k_signature, (list, tuple)) or len(k_signature) != 2:
        raise BadShape("K.signature must have two entries")
    return EmbeddingDatum(
        _as_rows(h_l, "H_L"),
        _as_rows(h_n, "H_N"),
        _as_rows(gamma, "gamma"),
        _int(k_rank, "K.rank"),
        tuple(_int(x, "K.signature") for x in k_signature),
        k_fqf,
        None if delta is None else _as_rows(delta, "delta"),
    )


def _check_datum_shape(datum, fl, fn):
    """BadShape unless there is one gamma row per H_L row, every H_L row
    has one entry per generator of fl and every H_N and gamma row one per
    generator of fn."""
    if len(datum.gamma) != len(datum.h_l):
        raise BadShape("one image row per subgroup generator required")
    for name, rows, form in (("H_L", datum.h_l, fl), ("H_N", datum.h_n, fn),
                             ("gamma", datum.gamma, fn)):
        if any(len(r) != form.num_gens for r in rows):
            raise BadShape("%s rows must have %d entries" % (name, form.num_gens))


# graph quotients by (orders, den, qmat) of the source form, H_L rows and
# gamma rows as given: (orders, qmat, den) of the quotient and of the
# complement's form. It reads those and q_N, which is fixed. Tuples only,
# never a form, so a form is still freed by reference counting.
_GLUED = Store(256)


def _graph_quotient(fl, h_l_gens, gamma_rows):
    """The subquotient carried by the graph of the identification inside
    the difference form of fl and the ambient form, and the form of the
    complement K it asks for, `negate_fqf(quot)` (Nikulin 1.15.1). Both
    are on invariant-factor generators: `quotient_form` names the
    quotient's generators by a Smith form, so each order divides the next.

    Both are functions of the form value and the rows alone, so they are
    kept in the bounded store `_GLUED` by form value and rows: verify and
    transfer_datum_up read the pair that find_embedding_datum built, and
    so does every later lattice with an equal form. A hit rebuilds both
    forms from the kept tuples, values of forms built and checked on the
    miss, so they are rebuilt unchecked (`FiniteQuadraticForm._known`); a
    call that raises keeps nothing."""
    key = (fl.orders, fl.den, fl.qmat,
           tuple(map(tuple, h_l_gens)), tuple(map(tuple, gamma_rows)))
    kept = _GLUED.lookup(key)
    if kept is not None:
        return tuple(FiniteQuadraticForm._known(*v) for v in kept)
    diff = _difference_form(fl)
    graph = [list(h) + list(g) for h, g in zip(h_l_gens, gamma_rows)]
    perp = perp_subgroup(diff, graph)
    quot = quotient_form(diff, perp, subgroup_matrix(diff, graph))
    forms = (quot, negate_fqf(quot))
    _GLUED.keep(key, tuple((f.orders, f.qmat, f.den) for f in forms))
    return forms


def verify_embedding_datum(lat, datum):
    """Check a gluing datum against the source lattice. Returns a verdict
    and the list of reasons for failure."""
    nlat = ambient()
    fn, fl = discriminant_form(nlat), discriminant_form(lat)
    _check_datum_shape(datum, fl, fn)
    reasons = []
    want_rank = nlat.rank - lat.rank
    sig_l = lat.signature
    sig_n = nlat.signature
    want_sig = (sig_n[0] - sig_l[0], sig_n[1] - sig_l[1])
    if datum.k_rank != want_rank:
        reasons.append("complement rank %d, expected %d" % (datum.k_rank, want_rank))
    if want_sig[0] < 0 or want_sig[1] < 0:
        reasons.append("signature of the source exceeds the ambient signature")
    elif tuple(datum.k_signature) != want_sig:
        reasons.append(
            "complement signature %s, expected %s"
            % (datum.k_signature, want_sig)
        )
    if reasons:
        return False, reasons
    hl = [list(r) for r in datum.h_l]
    hn = [list(r) for r in datum.h_n]
    gamma = [list(r) for r in datum.gamma]
    for rows, form, what in ((hl, fl, "subgroup generators"), (hn, fn, "subgroup generators"),
                             (gamma, fn, "image rows")):
        if any((2 * x) % d for g in rows for x, d in zip(g, form.orders)):
            raise NotTwoGroup("%s must have order dividing two" % what)
    hl_mat = subgroup_matrix(fl, hl)
    hn_mat = subgroup_matrix(fn, hn)
    order_l = subgroup_order(fl, hl_mat)
    order_n = subgroup_order(fn, hn_mat)
    if order_l != order_n:
        reasons.append("subgroup orders differ: %d and %d" % (order_l, order_n))
        return False, reasons
    if order_l != 2 ** len(hl):
        raise DependentVectors("subgroup generators must be independent")
    # a subgroup matrix depends on the generators, so the spans are
    # compared by order and membership; equal spans make gamma injective,
    # as its len(hl) rows then span a group of order 2^len(hl). When gamma
    # is H_N's own rows (as every found datum has it) the test cannot
    # fail: the image matrix is H_N's, of order order_n by definition, and
    # each row of a lower-triangular matrix solves to a unit vector
    if gamma != hn:
        img_mat = subgroup_matrix(fn, gamma)
        if (subgroup_order(fn, img_mat) != order_n
                or any(_solve_lower(hn_mat, r) is None for r in img_mat)):
            reasons.append("identification images generate a different subgroup")
            return False, reasons
    for i in range(len(hl)):
        if fl.q_num(hl[i]) * fn.den != fn.q_num(gamma[i]) * fl.den:
            reasons.append("identification does not preserve the quadratic value")
            return False, reasons
        for j in range(i):
            if fl.b_num(hl[i], hl[j]) * fn.den != fn.b_num(gamma[i], gamma[j]) * fl.den:
                reasons.append("identification does not preserve the pairing")
                return False, reasons
    quot, kf = _graph_quotient(fl, hl, gamma)
    expected = (fl.group_order * fn.group_order) // (order_l * order_l)
    assert quot.group_order == expected
    if datum.delta is not None:
        # delta names the quotient's own generators, so it maps -K to quot
        if not verify_fqf_iso(negate_fqf(datum.k_fqf), quot, [list(r) for r in datum.delta]):
            reasons.append("the provided complement identification fails")
            return False, reasons
    else:
        if not is_isomorphic(datum.k_fqf, kf):
            reasons.append(
                "complement discriminant form does not match the subquotient"
            )
            return False, reasons
    if not exists_even_lattice(datum.k_signature, datum.k_fqf):
        reasons.append("no even lattice has the complement invariants")
        return False, reasons
    return True, reasons


def find_embedding_datum(lat):
    """Bounded search for a gluing datum, smallest subgroup first.

    The subgroup H_L ~ (Z/2)^k runs over the levels k from
    ceil((l2 + n2 - want_rank) / 2) (at least 0) to min(l2, n2), for l2
    and n2 the 2-lengths of the two discriminant forms.

    Only H_L is searched, on the bit masks of `_two_torsion`: a span is a
    set of masks grown by XOR, and 2b(x, y) the parity of x's beta row and
    y's mask. Each generator a goes to the first order-two b of q_N outside
    the span of the earlier images with a's 2q and pairings; by Witt's
    extension theorem on the nonsingular F_2-space q_N any other fitting b
    gives an isomorphic complement. So a NotFound is exhaustive over H_L;
    past DATUM_NODE_CAP nodes CapExceeded is raised. Masks become
    coordinate rows only at a leaf.
    """
    nlat = ambient()
    fn, fl = discriminant_form(nlat), discriminant_form(lat)
    want_rank = nlat.rank - lat.rank
    sig_l = lat.signature
    want_sig = (nlat.signature[0] - sig_l[0], nlat.signature[1] - sig_l[1])
    if want_rank < 0 or want_sig[0] < 0 or want_sig[1] < 0:
        raise NotFound("the source does not fit the ambient signature")
    gens_l, two_l = _two_torsion(fl)
    gens_n, two_n = _two_torsion(fn)
    nodes = [0]

    def coords(gens, mask):
        return [sum(col) for col in zip(*(g for b, g in enumerate(gens) if mask >> b & 1))]

    def attempt(hl, gamma):
        hl = [coords(gens_l, a) for a in hl]
        gamma = [coords(gens_n, b) for b in gamma]
        quot, kf = _graph_quotient(fl, hl, gamma)
        if quot.num_gens > want_rank:
            return None
        if not exists_even_lattice(want_sig, kf):
            return None
        # int rows and invariants built here: nothing for make_datum to check
        gamma = tuple(map(tuple, gamma))
        return EmbeddingDatum(tuple(map(tuple, hl)), gamma, gamma, want_rank, want_sig, kf)

    def extend(k, hl, gamma, span_l, span_n):
        nodes[0] += 1
        if nodes[0] > DATUM_NODE_CAP:
            raise CapExceeded(
                "gluing-datum search spent %d nodes, over its cap of %d"
                % (nodes[0], DATUM_NODE_CAP))
        if len(hl) == k:
            return attempt(hl, gamma)
        for a, qa, ra in two_l:
            if a in span_l:
                continue
            # q_N is nonsingular over F_2, so any partial isometry into it
            # extends (Witt) and two fitting images give isomorphic graph
            # quotients; a leaf reads only the quotient's num_gens and
            # exists_even_lattice, so no image but the first is tried
            pairs = [(ra & h).bit_count() & 1 for h in hl]
            b = next((b for b, qb, rb in two_n
                      if qb == qa and b not in span_n
                      and all((rb & g).bit_count() & 1 == p for g, p in zip(gamma, pairs))),
                     None)
            if b is None:
                continue
            got = extend(k, hl + [a], gamma + [b],
                         span_l | {s ^ a for s in span_l}, span_n | {s ^ b for s in span_n})
            if got is not None:
                return got
        return None

    # H_L lies in fl[2] and H_N in fn[2], so k is at most l2 and n2. The
    # quotient H^perp / H of the difference form has 2-length at least
    # l2 + n2 - 2k, so below the lower level every leaf has more than
    # want_rank generators and fails.
    l2, n2 = len(gens_l), len(gens_n)
    for k in range(max(0, -((want_rank - l2 - n2) // 2)), min(l2, n2) + 1):
        got = extend(k, [], [], {0}, {0})
        if got is not None:
            return got
    raise NotFound("no gluing datum within the search bound")


@dataclass(frozen=True)
class StarReport:
    index: int
    gcd_ok: bool
    ell_bounds_ok: bool
    witness_primes: tuple
    verdict: bool


def _check_child_rank(parent, child):
    """Degenerate unless the child is a Lattice; BadShape unless it has the
    parent's rank, as a sublattice of finite index does."""
    if not isinstance(child, Lattice):
        raise Degenerate("the child must be a nondegenerate lattice")
    if child.rank != parent.rank:
        raise BadShape("the child must have the parent's rank %d" % parent.rank)


def _descent_index(parent, child):
    """The index of the child in the parent, whose square is child.det /
    parent.det; GramMismatch when that ratio is not the square of an
    integer."""
    _check_child_rank(parent, child)
    ratio, rem = divmod(child.det, parent.det)
    index = None if rem else sqrt_exact(ratio)
    if index is None:
        raise GramMismatch("child det %d over parent det %d is not a square"
                           % (child.det, parent.det))
    return index


def condition_star(parent, child):
    """Coprimality and length bounds controlling odd-index descent."""
    index = _descent_index(parent, child)
    fc = discriminant_form(child)
    # |A_L| = |det L|
    gcd_ok = gcd(2 * abs(parent.det), index) == 1
    bound = ambient().rank - child.rank
    witness = []
    ell_ok = True
    for p in prime_factors(index):
        ell = sum(1 for d in fc.orders if d % p == 0)
        witness.append((p, ell, bound))
        if ell >= bound:
            ell_ok = False
    return StarReport(index, gcd_ok, ell_ok, tuple(witness), gcd_ok and ell_ok)


def index_p_sublattice(lat, p):
    """Index-p sublattice for odd p, keeping the basis order."""
    if _int(p, "p") == 2 or not is_prime(p):
        raise BadPrime("an odd prime is required")
    g = lat.gram
    n = lat.rank
    v = None
    for i in range(n):
        if g[i][i] % p:
            v = [0] * n
            v[i] = 1
            break
    if v is None:
        for i in range(n):
            for j in range(i + 1, n):
                if (g[i][i] + 2 * g[i][j] + g[j][j]) % p:
                    v = [0] * n
                    v[i] = 1
                    v[j] = 1
                    break
            if v is not None:
                break
    if v is None:
        raise NoUnitVector("no vector of unit norm modulo %d" % p)
    r = [sum(g[i][j] * v[j] for j in range(n)) % p for i in range(n)]
    t = next(i for i in range(n) if r[i])
    inv_rt = pow(r[t], -1, p)
    rows = []
    for i in range(n):
        if i == t:
            row = [0] * n
            row[t] = p
        else:
            row = [0] * n
            row[i] = 1
            row[t] = -((r[i] * inv_rt) % p)
        rows.append(row)
    return Lattice(gram_of_rows(rows, g)), rows


def _two_part_projector(orders):
    """Multiplier sending every element of (+) Z/orders[i] to its
    two-primary component."""
    expo = lcm(*orders)
    a = val_p(expo, 2)
    odd = expo >> a
    return 1 if odd == 1 else odd * pow(odd, -1, 1 << a)


def _convert_gens(src, dst, gens, pairing):
    """Carry subgroup generators of the discriminant group of the lattice
    src to that of dst, projecting onto the two-primary part on the far
    side. The integer matrix pairing sends a vector of src to its pairings
    with the basis of dst.

    Generator i of src is u_i / d_i (`_dual_basis`), so for e the exponent
    a row c of gens is z / e with z = sum_i c_i (e / d_i) u_i, and its
    pairings with dst are z pairing / e. Where mu times them is not
    integral the point is not in the dual of dst: BadCongruence.
    """
    if not gens:
        return []
    orders, rows, _ = _dual_basis(src)
    dst_orders, _, cols = _dual_basis(dst)
    mu = _two_part_projector(dst_orders)
    e = lcm(*orders)
    lifts = [[sum(c * (e // d) * r[t] for c, d, r in zip(g, orders, rows))
              for t in range(src.rank)] for g in gens]
    out = []
    for point in mat_mul(lifts, pairing):
        if any(mu * x % e for x in point):
            raise BadCongruence("vector is not in the dual lattice")
        y = [mu * x // e for x in point]
        out.append(tuple(sum(map(mul, y, col)) % d for col, d in zip(cols, dst_orders)))
    return out


def _check_child_basis(parent, child, child_basis):
    """The checks of `_check_child_rank`, then BadShape unless child_basis
    has child.rank integer rows of length parent.rank and GramMismatch
    unless they carry the parent gram to the child gram."""
    _check_child_rank(parent, child)
    _check_int_matrix(child_basis)
    if len(child_basis) != child.rank or any(len(r) != parent.rank for r in child_basis):
        raise BadShape("child basis must have %d rows of length %d" % (child.rank, parent.rank))
    got = gram_of_rows(child_basis, parent.gram)
    want = [list(r) for r in child.gram]
    if got != want:
        raise GramMismatch("child basis gives gram %s, expected %s" % (got, want))


def transfer_datum_down(parent, child, datum, child_basis):
    """Carry a gluing datum to an odd-index sublattice satisfying the
    descent condition."""
    _check_child_basis(parent, child, child_basis)
    fl = discriminant_form(parent)
    _check_datum_shape(datum, fl, discriminant_form(ambient()))
    star = condition_star(parent, child)
    if not star.verdict:
        raise StarViolated("descent condition fails: %s" % (star,))
    fc = discriminant_form(child)
    # B^-1 G_child = G_parent B^T for the child basis B
    new_hl = _convert_gens(parent, child, datum.h_l,
                           mat_mul(parent.gram, transpose(child_basis)))
    extra = trivial_form()
    for p in prime_factors(star.index):
        extra = direct_sum_fqf(extra, p_part(fc, p))
    new_kf = canonical_form(direct_sum_fqf(datum.k_fqf, negate_fqf(extra)))
    if not exists_even_lattice(datum.k_signature, new_kf):
        raise ExistenceFails("descended complement invariants are unrealizable")
    return make_datum(
        new_hl, datum.h_n, datum.gamma, datum.k_rank, datum.k_signature, new_kf
    )


def transfer_datum_up(parent, child, datum, child_basis):
    """Carry a gluing datum from an odd-index sublattice back up."""
    _check_child_basis(parent, child, child_basis)
    if _descent_index(parent, child) % 2 == 0:
        raise EvenIndex("the sublattice index must be odd")
    fl = discriminant_form(parent)
    fc = discriminant_form(child)
    _check_datum_shape(datum, fc, discriminant_form(ambient()))
    new_hl = _convert_gens(child, parent, datum.h_l, mat_mul(child_basis, parent.gram))
    _, new_kf = _graph_quotient(fl, new_hl, [list(r) for r in datum.gamma])
    if not exists_even_lattice(datum.k_signature, new_kf):
        raise ExistenceFails("lifted complement invariants are unrealizable")
    return make_datum(
        new_hl, datum.h_n, datum.gamma, datum.k_rank, datum.k_signature, new_kf
    )
