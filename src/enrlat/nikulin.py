"""Existence of even lattices with prescribed invariants, gluing data for
primitive embeddings of the rank-12 ambient lattice, and odd-index descent."""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .enriques import ambient
from .errors import (
    BadPrime,
    BadShape,
    DependentVectors,
    EvenIndex,
    ExistenceFails,
    NoUnitVector,
    NotFound,
    NotTwoGroup,
    StarViolated,
)
from .fqf import (
    FiniteQuadraticForm,
    _lift,
    _order_two_elements,
    canonical_form,
    direct_sum_fqf,
    discriminant_form,
    fqf_coords_of,
    fqf_isomorphic,
    milgram_signature,
    negate_fqf,
    odd_jordan,
    p_part,
    perp_subgroup,
    quotient_form,
    splits_unit_block,
    subgroup_matrix,
    subgroup_order,
    trivial_form,
    two_adic_jordan,
    verify_fqf_iso,
)
from .intmat import (
    crt_pair,
    inverse_fraction,
    is_prime,
    legendre,
    mat_mul,
    prime_factors,
    sqrt_exact,
    val_p,
)
from .lattice import Lattice, gram_of_rows


def exists_even_lattice(signature, form):
    """Whether an even lattice with this signature and discriminant form
    exists."""
    tpos, tneg = int(signature[0]), int(signature[1])
    if tpos < 0 or tneg < 0:
        return False
    order = form.group_order
    if (tpos - tneg) % 8 != milgram_signature(form):
        return False
    length = form.num_gens
    if tpos + tneg < length:
        return False
    if tpos + tneg == 0:
        return form.is_trivial
    for p, e in prime_factors(order).items():
        if tpos + tneg > sum(1 for d in form.orders if d % p == 0):
            continue
        rest = order // p**e
        if p == 2:
            if splits_unit_block(form):
                continue
            unit = 1
            for block in two_adic_jordan(form):
                if block[0] == "q":
                    unit = (unit * block[2].numerator) % 8
                elif block[0] == "u":
                    unit = (unit * 7) % 8
                else:
                    unit = (unit * 3) % 8
            if (unit * rest) % 8 not in (1, 7):
                return False
        else:
            value = (-1) ** tneg * rest
            for _, qval in odd_jordan(form, p):
                value *= qval.numerator
            if legendre(value % p, p) != 1:
                return False
    return True


_AMBIENT = None


def _ambient_and_form(nlat):
    """The ambient lattice, nlat or else N, and its discriminant form; the
    one for N is built once and kept."""
    global _AMBIENT
    if nlat is not None:
        return nlat, discriminant_form(nlat)
    if _AMBIENT is None:
        lat = ambient()
        _AMBIENT = (lat, discriminant_form(lat))
    return _AMBIENT


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


def _as_rows(rows):
    return tuple(tuple(int(x) for x in r) for r in rows)


def make_datum(h_l, h_n, gamma, k_rank, k_signature, k_fqf, delta=None):
    return EmbeddingDatum(
        _as_rows(h_l),
        _as_rows(h_n),
        _as_rows(gamma),
        int(k_rank),
        (int(k_signature[0]), int(k_signature[1])),
        k_fqf,
        None if delta is None else _as_rows(delta),
    )


def _graph_quotient(fl, fn, h_l_gens, gamma_rows):
    """The subquotient carried by the graph of the identification inside
    the difference form."""
    diff = direct_sum_fqf(fl, negate_fqf(fn))
    graph = [
        list(h_l_gens[i]) + list(gamma_rows[i]) for i in range(len(h_l_gens))
    ]
    if not graph:
        graph = []
    perp = perp_subgroup(diff, graph)
    smat = subgroup_matrix(diff, graph)
    quot, qmap = quotient_form(diff, perp, smat)
    return diff, quot, qmap


def verify_embedding_datum(lat, datum, nlat=None):
    """Check a gluing datum against the source lattice. Returns a verdict
    and the list of reasons for failure."""
    nlat, fn = _ambient_and_form(nlat)
    reasons = []
    fl = discriminant_form(lat)
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
    if len(gamma) != len(hl):
        raise BadShape("one image row per subgroup generator required")
    for g in hl:
        if any((2 * x) % d for x, d in zip(g, fl.invariant_factors)):
            raise NotTwoGroup("subgroup generators must have order dividing two")
    for g in hn:
        if any((2 * x) % d for x, d in zip(g, fn.invariant_factors)):
            raise NotTwoGroup("subgroup generators must have order dividing two")
    for g in gamma:
        if any((2 * x) % d for x, d in zip(g, fn.invariant_factors)):
            raise NotTwoGroup("image rows must have order dividing two")
    hl_mat = subgroup_matrix(fl, hl)
    hn_mat = subgroup_matrix(fn, hn)
    order_l = subgroup_order(fl, hl_mat)
    order_n = subgroup_order(fn, hn_mat)
    if order_l != order_n:
        reasons.append("subgroup orders differ: %d and %d" % (order_l, order_n))
        return False, reasons
    if order_l != 2 ** len(hl):
        raise DependentVectors("subgroup generators must be independent")
    img_mat = subgroup_matrix(fn, gamma)
    if img_mat != hn_mat:
        reasons.append("identification images generate a different subgroup")
        return False, reasons
    if subgroup_order(fn, img_mat) != order_l:
        reasons.append("identification is not injective")
        return False, reasons
    for i in range(len(hl)):
        if fl.q_num(hl[i]) * fn.den != fn.q_num(gamma[i]) * fl.den:
            reasons.append("identification does not preserve the quadratic value")
            return False, reasons
        for j in range(i):
            if fl.b_num(hl[i], hl[j]) * fn.den != fn.b_num(gamma[i], gamma[j]) * fl.den:
                reasons.append("identification does not preserve the pairing")
                return False, reasons
    diff, quot, _ = _graph_quotient(fl, fn, hl, gamma)
    expected = (fl.group_order * fn.group_order) // (order_l * order_l)
    assert quot.group_order == expected
    target = negate_fqf(datum.k_fqf)
    if datum.delta is not None:
        if not verify_fqf_iso(target, quot, [list(r) for r in datum.delta]):
            reasons.append("the provided complement identification fails")
            return False, reasons
    else:
        if fqf_isomorphic(target, quot) is None:
            reasons.append(
                "complement discriminant form does not match the subquotient"
            )
            return False, reasons
    if not exists_even_lattice(datum.k_signature, datum.k_fqf):
        reasons.append("no even lattice has the complement invariants")
        return False, reasons
    return True, reasons


def find_embedding_datum(lat, nlat=None, cap=200000):
    """Bounded search for a gluing datum, smallest subgroup first."""
    nlat, fn = _ambient_and_form(nlat)
    fl = discriminant_form(lat)
    want_rank = nlat.rank - lat.rank
    sig_l = lat.signature
    want_sig = (nlat.signature[0] - sig_l[0], nlat.signature[1] - sig_l[1])
    if want_rank < 0 or want_sig[0] < 0 or want_sig[1] < 0:
        raise NotFound("the source does not fit the ambient signature")
    two_l = _order_two_elements(fl)
    two_n = _order_two_elements(fn)
    budget = [cap]

    def attempt(hl, gamma):
        _, quot, _ = _graph_quotient(fl, fn, hl, gamma)
        if quot.num_gens > want_rank:
            return None
        kf = canonical_form(negate_fqf(quot))
        if not exists_even_lattice(want_sig, kf):
            return None
        return make_datum(hl, gamma, gamma, want_rank, want_sig, kf)

    max_k = 0
    while 2 ** (max_k + 1) <= min(fl.group_order, fn.group_order):
        max_k += 1

    for k in range(0, max_k + 1):
        if k == 0:
            got = attempt([], [])
            if got is not None:
                return got
            continue

        def extend(hl, gamma, span_l):
            budget[0] -= 1
            if budget[0] < 0:
                raise NotFound("search budget exhausted")
            if len(hl) == k:
                return attempt(hl, gamma)
            for a, qa in two_l:
                ta = tuple(a)
                if ta in span_l:
                    continue
                for b, qb in two_n:
                    if qb != qa:
                        continue
                    if any(
                        fn.b_num(b, gamma[i]) * fl.den != fl.b_num(a, hl[i]) * fn.den
                        for i in range(len(hl))
                    ):
                        continue
                    new_span = set()
                    for s in span_l:
                        new_span.add(s)
                        new_span.add(
                            tuple(
                                (s[j] + ta[j]) % fl.invariant_factors[j]
                                for j in range(len(ta))
                            )
                        )
                    if len(new_span) != 2 * len(span_l):
                        continue
                    got = extend(hl + [a], gamma + [b], new_span)
                    if got is not None:
                        return got
            return None

        got = extend([], [], {tuple([0] * fl.num_gens)})
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


def condition_star(parent, child):
    """Coprimality and length bounds controlling odd-index descent."""
    ratio = Fraction(child.det, parent.det)
    assert ratio.denominator == 1
    index = sqrt_exact(int(ratio))
    fl = discriminant_form(parent)
    fc = discriminant_form(child)
    gcd_ok = gcd(2 * fl.group_order, index) == 1
    bound = ambient().rank - child.rank
    witness = []
    ell_ok = True
    for p in prime_factors(index):
        ell = p_part(fc, p).num_gens
        witness.append((p, ell, bound))
        if ell >= bound:
            ell_ok = False
    return StarReport(index, gcd_ok, ell_ok, tuple(witness), gcd_ok and ell_ok)


def index_p_sublattice(lat, p):
    """Index-p sublattice for odd p, keeping the basis order."""
    if p == 2 or not is_prime(p):
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


def _two_part_projector(form):
    """Multiplier sending every element to its two-primary component."""
    expo = 1
    for d in form.invariant_factors:
        expo = expo * d // gcd(expo, d)
    a = val_p(expo, 2)
    odd = expo >> a if a else expo
    if odd == 1:
        return 1
    if a == 0:
        return 0
    return crt_pair(1, 1 << a, 0, odd)[0]


def _convert_gens(src_form, dst_form, gens, basis_change):
    """Carry subgroup generators along rational points, projecting onto the
    two-primary part on the far side."""
    mu = _two_part_projector(dst_form)
    if not gens:
        return []
    inv = inverse_fraction([list(r) for r in basis_change])
    moved = mat_mul(_lift(src_form, gens), inv)
    return [fqf_coords_of(dst_form, [mu * x for x in point]) for point in moved]


def transfer_datum_down(parent, child, datum, child_basis):
    """Carry a gluing datum to an odd-index sublattice satisfying the
    descent condition."""
    star = condition_star(parent, child)
    if not star.verdict:
        raise StarViolated("descent condition fails: %s" % (star,))
    fl = discriminant_form(parent)
    fc = discriminant_form(child)
    new_hl = _convert_gens(fl, fc, [list(r) for r in datum.h_l], child_basis)
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
    ratio = Fraction(child.det, parent.det)
    index = sqrt_exact(int(ratio))
    if index % 2 == 0:
        raise EvenIndex("the sublattice index must be odd")
    fl = discriminant_form(parent)
    fc = discriminant_form(child)
    mu = _two_part_projector(fl)
    points = mat_mul(_lift(fc, [list(r) for r in datum.h_l]), child_basis)
    new_hl = [fqf_coords_of(fl, [mu * x for x in point]) for point in points]
    _, fn = _ambient_and_form(None)
    _, quot, _ = _graph_quotient(fl, fn, new_hl, [list(r) for r in datum.gamma])
    new_kf = canonical_form(negate_fqf(quot))
    if not exists_even_lattice(datum.k_signature, new_kf):
        raise ExistenceFails("lifted complement invariants are unrealizable")
    return make_datum(
        new_hl, datum.h_n, datum.gamma, datum.k_rank, datum.k_signature, new_kf
    )
