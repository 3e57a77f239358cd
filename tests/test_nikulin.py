import hashlib
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from operator import add

import pytest

from enrlat import fqf, nikulin
from enrlat.cli import canonical_json, datum_to_json
from enrlat.errors import (
    BadCongruence,
    BadPrime,
    BadShape,
    CapExceeded,
    Degenerate,
    EnrLatError,
    EvenIndex,
    NotFound,
    NotIsotropic,
    NotTwoGroup,
    StarViolated,
)
from enrlat.fqf import (
    FiniteQuadraticForm,
    _scales,
    canonical_form,
    direct_sum_fqf,
    discriminant_form,
    fqf_isomorphic,
    milgram_signature,
    negate_fqf,
    p_part,
    trivial_form,
)
from enrlat.enriques import ambient
from enrlat.lattice import Lattice, standard_lattice
from _oracles import brute_b, brute_isomorphic, brute_q
from enrlat.nikulin import (
    condition_star,
    exists_even_lattice,
    find_embedding_datum,
    index_p_sublattice,
    make_datum,
    transfer_datum_down,
    transfer_datum_up,
    verify_embedding_datum,
)


def random_even_lattice(rng, max_rank=5, bound=8, det_cap=20000):
    from enrlat.errors import Degenerate

    while True:
        n = rng.randint(1, max_rank)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randint(-bound // 2, bound // 2)
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.randint(-bound, bound)
        try:
            lat = Lattice(g)
        except Degenerate:
            continue
        if abs(lat.det) <= det_cap:
            return lat


# ------------------------------------------------------------ existence


def test_exists_on_frozen_positives():
    assert exists_even_lattice((1, 1), trivial_form())
    assert exists_even_lattice((1, 9), discriminant_form(standard_lattice("M")))
    assert exists_even_lattice((2, 10), discriminant_form(standard_lattice("N")))
    assert exists_even_lattice((0, 1), discriminant_form(Lattice([[-2]])))
    assert exists_even_lattice((0, 1), discriminant_form(Lattice([[-6]])))


def test_exists_on_frozen_negatives():
    assert not exists_even_lattice((0, 1), trivial_form())
    assert not exists_even_lattice((1, 0), discriminant_form(Lattice([[-2]])))
    # rank bound: one generator cannot fit in rank zero
    assert not exists_even_lattice((0, 0), discriminant_form(Lattice([[2]])))


def test_exists_self_realization_sweep():
    rng = random.Random(131)
    for _ in range(60):
        lat = random_even_lattice(rng)
        pos, neg = lat.signature
        assert exists_even_lattice((pos, neg), discriminant_form(lat))
        assert not exists_even_lattice((pos + 1, neg), discriminant_form(lat))


def test_exists_does_not_depend_on_the_presentation():
    # Z/2 + Z/3 is cyclic of length one, presented on two generators
    form = FiniteQuadraticForm((2, 3), [[Fraction(1, 2), 0], [0, Fraction(4, 3)]])
    lat_form = discriminant_form(Lattice([[-6]]))
    assert fqf_isomorphic(form, lat_form) is not None
    for f in (form, canonical_form(form), lat_form):
        assert exists_even_lattice((0, 1), f)
        assert not exists_even_lattice((0, 0), f)


def _reduced_rank_two_grams(dmax):
    """Even rank-2 grams with |det| <= dmax, as (signature, gram), at
    least one in each isometry class: a x^2 + 2b xy + c y^2 reduces to
    |2b| <= |a| <= |c| unless it is isotropic, and then it has a basis e, f
    with e^2 = 0, e.f = r and f^2 = 2c, shifted by e into |c| <= r.

    - definite, det D: 0 < a <= c, so 3a^2 <= 4D, and its negative;
    - indefinite anisotropic, det -D: ac < 0, so a^2 <= D;
    - isotropic, det -r^2: [[0, r], [r, 2c]]."""
    out = []
    for d in range(1, dmax + 1):
        for a in range(2, d + 1, 2):
            for b in range(-(a // 2), a // 2 + 1):
                c, rem = divmod(d + b * b, a)
                if 3 * a * a <= 4 * d and not rem and c % 2 == 0 and c >= a:
                    out += [((2, 0), [[a, b], [b, c]]), ((0, 2), [[-a, -b], [-b, -c]])]
                c, rem = divmod(b * b - d, a)
                if a * a <= d and not rem and c % 2 == 0 and c:
                    out += [((1, 1), [[a, b], [b, c]]), ((1, 1), [[-a, b], [b, -c]])]
        r = math.isqrt(d)
        if r * r == d:
            out += [((1, 1), [[0, r], [r, 2 * c]]) for c in range(-r, r + 1)]
    return out


def _forms_of_order(d):
    """Every nondegenerate form on Z/d and on Z/m + Z/(d/m) for m | d/m:
    q(e_i) = s / d_i for a generator of order d_i, b(e_1, e_2) = t / m."""
    if d == 1:
        return [trivial_form()]
    shapes = [(d,)] + [(m, d // m) for m in range(2, math.isqrt(d) + 1) if d % (m * m) == 0]
    forms = []
    for orders in shapes:
        units = [[int(i == j) for j in range(len(orders))] for i in range(len(orders))]
        for svals in product(*[range(0, 2 * n, 1 + n % 2) for n in orders]):
            for t in range(orders[0]) if len(orders) == 2 else (None,):
                vals = [[Fraction(s, n) if i == j else Fraction(t, orders[0])
                         for j in range(len(orders))] for i, (s, n) in enumerate(zip(svals, orders))]
                form = FiniteQuadraticForm(orders, vals)
                if all(any(form.b_num(x, e) for e in units) for x in form.elements() if any(x)):
                    forms.append(form)
    return forms


def test_exists_on_rank_two_against_every_reduced_gram():
    """Nikulin's existence test at rank 2 against the truth: a form on a
    group of order D <= 32 with at most two generators is the
    discriminant form of an even lattice of signature (2, 0), (1, 1) or
    (0, 2) exactly when one of the reduced grams of that signature and
    |det| = D has an isomorphic one, by the brute-force search."""
    def histogram(form):
        return sorted(map(form.q_of, form.elements()))

    seen = {}  # (signature, order, q histogram) -> discriminant forms
    for sig, gram in _reduced_rank_two_grams(32):
        form = discriminant_form(Lattice(gram))
        kept = seen.setdefault((sig, form.group_order, tuple(histogram(form))), [])
        if form not in kept:
            kept.append(form)
    verdicts = Counter()
    for d in range(1, 33):
        for form in _forms_of_order(d):
            hist = tuple(histogram(form))
            for sig in ((2, 0), (1, 1), (0, 2)):
                want = any(brute_isomorphic(form.orders, form.values, r.orders, r.values)
                           for r in seen.get((sig, d, hist), ()))
                assert exists_even_lattice(sig, form) == want, (sig, form.orders, form.values)
                verdicts[sig, want] += 1
    assert len(verdicts) == 6 and min(verdicts.values()) >= 50, verdicts


def test_exists_rejects_negative_signature_entries():
    assert not exists_even_lattice((-1, 1), trivial_form())


@pytest.mark.parametrize("signature", [(2.9, 0), ("2", "0"), (True, False), (2, 0.0)])
def test_exists_rejects_signature_entries_that_are_not_ints(signature):
    # (2.9, 0) and ("2", "0") used to be truncated to (2, 0), which exists
    form = discriminant_form(Lattice([[2, 1], [1, 2]]))
    assert exists_even_lattice((2, 0), form)
    with pytest.raises(BadShape, match="signature: .* is not an integer"):
        exists_even_lattice(signature, form)


def test_unimodular_iff_rule():
    """Trivial form realized exactly when the signature difference is 0 mod 8."""
    for pos in range(0, 19):
        for neg in range(0, 19):
            got = exists_even_lattice((pos, neg), trivial_form())
            assert got == ((pos - neg) % 8 == 0), (pos, neg)


# ------------------------------------------------------------ gluing data


def test_find_and_verify_datum_for_hyperbolic_plane():
    lat = standard_lattice("U")
    datum = find_embedding_datum(lat)
    assert len(datum.h_l) == 0
    assert datum.k_rank == 10
    assert datum.k_signature == (1, 9)
    ok, reasons = verify_embedding_datum(lat, datum)
    assert ok, reasons
    m_form = discriminant_form(standard_lattice("M"))
    assert fqf_isomorphic(datum.k_fqf, m_form) is not None


def test_find_and_verify_datum_for_four_four():
    lat = Lattice([[4, 0], [0, 4]])
    datum = find_embedding_datum(lat)
    assert len(datum.h_l) == 1
    ok, reasons = verify_embedding_datum(lat, datum)
    assert ok, reasons


@pytest.mark.parametrize("gram", [
    [[8, 2, 4], [2, -8, 2], [4, 2, 0]],
    [[-6, 2, 4], [2, 2, 4], [4, 4, 6]],
    [[-8, 4, 4], [4, -4, 2], [4, 2, 0]],
])
def test_found_identification_is_injective(gram, monkeypatch):
    # each has a search path that sends two generators of H_L to one
    # element, which the search must skip; the levels the 2-lengths rule
    # out cost no nodes, so three nodes find the datum
    monkeypatch.setattr(nikulin, "DATUM_NODE_CAP", 10)
    lat = Lattice(gram)
    datum = find_embedding_datum(lat)
    assert len(set(datum.gamma)) == len(datum.gamma)
    ok, reasons = verify_embedding_datum(lat, datum)
    assert ok, reasons


def test_spent_datum_search_budget_raises_cap_exceeded(monkeypatch):
    # [[4,0],[0,4]] needs two search nodes
    monkeypatch.setattr(nikulin, "DATUM_NODE_CAP", 1)
    with pytest.raises(CapExceeded, match="spent 2 nodes, over its cap of 1"):
        find_embedding_datum(Lattice([[4, 0], [0, 4]]))


def test_verify_rejects_wrong_complement_rank():
    lat = standard_lattice("U")
    good = find_embedding_datum(lat)
    bad = make_datum(
        good.h_l, good.h_n, good.gamma, 9, (1, 8), good.k_fqf, delta=good.delta
    )
    ok, reasons = verify_embedding_datum(lat, bad)
    assert not ok
    assert reasons


def test_verify_rejects_wrong_signature():
    lat = standard_lattice("U")
    good = find_embedding_datum(lat)
    bad = make_datum(
        good.h_l, good.h_n, good.gamma, 10, (0, 10), good.k_fqf, delta=None
    )
    ok, reasons = verify_embedding_datum(lat, bad)
    assert not ok


def test_verify_compares_the_complement_form_not_its_presentation():
    # the found K form is the one kept with the subquotient, so the
    # isomorphism test takes its equal-forms path. A K form on the same
    # group with a wrong q value must still fail: q(e_9) moved by 2/3 moves
    # q on the 3-part Z/3 from 2/3 to 4/3, a non-square multiple. The same
    # form on another basis must still pass.
    lat = Lattice([[4, 2], [2, 4]])
    good = find_embedding_datum(lat)
    kf = good.k_fqf
    assert kf.orders == (2,) * 9 + (6,)
    quot, kept = nikulin._graph_quotient(discriminant_form(lat), good.h_l, good.gamma)
    assert negate_fqf(kf) == quot and kept == kf

    def with_form(form):
        return make_datum(good.h_l, good.h_n, good.gamma, good.k_rank, good.k_signature, form)

    values = [list(r) for r in kf.values]
    values[9][9] += Fraction(2, 3)
    wrong = FiniteQuadraticForm(kf.orders, values)
    assert wrong.orders == kf.orders and wrong != kf
    ok, reasons = verify_embedding_datum(lat, with_form(wrong))
    assert not ok
    assert reasons == ["complement discriminant form does not match the subquotient"]
    other = _on_other_basis(kf)
    assert other != kf and fqf_isomorphic(other, kf) is not None
    ok, reasons = verify_embedding_datum(lat, with_form(other))
    assert ok, reasons


def _on_other_basis(kf):
    """The K form (Z/2)^9 (+) Z/6 of [[4, 2], [2, 4]] on the generators
    e_i + e_(i+1) for i < 8, then e_8 and e_9 + e_0."""
    rows = [[int(j in (i, i + 1)) for j in range(10)] for i in range(8)]
    rows += [[0] * 8 + [1, 0], [1] + [0] * 8 + [1]]
    return FiniteQuadraticForm(kf.orders, [
        [brute_q(kf.values, x) if i == j else brute_b(kf.values, x, y) for j, y in enumerate(rows)]
        for i, x in enumerate(rows)])


def test_verify_checks_a_given_complement_identification():
    # a found datum carries no delta; one given with the datum is checked
    # as a map from -K onto the graph quotient, on a K that is not the
    # kept one, and one changed image row fails it
    lat = Lattice([[4, 2], [2, 4]])
    good = find_embedding_datum(lat)
    assert good.delta is None
    other = _on_other_basis(good.k_fqf)
    quot, kf = nikulin._graph_quotient(discriminant_form(lat), good.h_l, good.gamma)
    assert other != kf
    delta = fqf_isomorphic(negate_fqf(other), quot)

    def with_delta(rows):
        return make_datum(good.h_l, good.h_n, good.gamma, good.k_rank, good.k_signature,
                          other, delta=rows)

    assert verify_embedding_datum(lat, with_delta(delta)) == (True, [])
    changed = [list(r) for r in delta]
    changed[0] = list(quot.reduce(map(add, changed[0], changed[1])))
    assert verify_embedding_datum(lat, with_delta(changed)) == (
        False, ["the provided complement identification fails"])


@pytest.mark.parametrize("p", [2, 3])
def test_verify_rejects_a_degenerate_complement_form(p):
    # the found K form is (Z/2)^9 + Z/6; zeroing row and column 0 puts e_0
    # in the radical of its 2-part, and its 2-part plus <0> on Z/3 has a
    # null 3-part. Either is degenerate and gets the verdict of a wrong
    # form, not a Degenerate traceback.
    lat = Lattice([[4, 2], [2, 4]])
    good = find_embedding_datum(lat)
    kf = good.k_fqf
    if p == 2:
        values = [[Fraction(0) if 0 in (i, j) else x for j, x in enumerate(r)]
                  for i, r in enumerate(kf.values)]
        bad = FiniteQuadraticForm(kf.orders, values)
    else:
        bad = direct_sum_fqf(p_part(kf, 2), FiniteQuadraticForm((3,), [[0]]))
    assert bad.group_order == kf.group_order
    with pytest.raises(Degenerate):
        _scales(negate_fqf(bad), p)
    other = make_datum(good.h_l, good.h_n, good.gamma, good.k_rank, good.k_signature, bad)
    assert verify_embedding_datum(lat, other) == (
        False, ["complement discriminant form does not match the subquotient"])


def _f2_span(rows):
    return {tuple(sum(c * x for c, x in zip(cs, col)) % 2 for col in zip(*rows))
            for cs in product(range(2), repeat=len(rows))}


@pytest.mark.parametrize("gram", [
    [[4, 0, 0], [0, 4, 0], [0, 0, -4]],
    [[4, 0, 0], [0, -4, 0], [0, 0, -8]],
    [[4, 0, 0, 0], [0, -4, 0, 0], [0, 0, 4, 0], [0, 0, 0, -4]],
])
def test_verify_accepts_any_generators_of_the_glued_subgroup(gram):
    # H_N names a subgroup of the ambient form (Z/2)^10; any basis of it,
    # here seeded invertible mod-2 combinations of the found one, is the
    # same datum
    lat = Lattice(gram)
    datum = find_embedding_datum(lat)
    k = len(datum.h_n)
    span = _f2_span(datum.h_n)
    rng = random.Random(sum(map(sum, gram)))
    tried = 0
    while tried < 12:
        mix = [[rng.randrange(2) for _ in range(k)] for _ in range(k)]
        h_n = [[sum(c * x for c, x in zip(m, col)) % 2 for col in zip(*datum.h_n)] for m in mix]
        if len(_f2_span(h_n)) < 2 ** k:
            continue
        assert _f2_span(h_n) == span
        tried += 1
        other = make_datum(datum.h_l, h_n, datum.gamma, datum.k_rank, datum.k_signature,
                           datum.k_fqf)
        ok, reasons = verify_embedding_datum(lat, other)
        assert ok, (h_n, reasons)
    # a row outside the subgroup still changes it
    outside = next(e for e in ([int(i == j) for i in range(10)] for j in range(10))
                   if tuple(e) not in span)
    other = make_datum(datum.h_l, [outside] + list(datum.h_n[1:]), datum.gamma,
                       datum.k_rank, datum.k_signature, datum.k_fqf)
    assert verify_embedding_datum(lat, other) == (
        False, ["identification images generate a different subgroup"])


def test_verify_rejects_order_four_generators():
    # the generator 2 in Z/8 has order four, one beyond what gluing allows
    lat = Lattice([[8]])
    with pytest.raises(NotTwoGroup):
        verify_embedding_datum(
            lat,
            make_datum([[2]], [[0] * 10], [[0] * 10], 11, (1, 10), trivial_form()),
        )


# ------------------------------------------------------------ descent


def test_index_p_sublattice_frozen():
    sub, rows = index_p_sublattice(Lattice([[4, 0], [0, 4]]), 3)
    assert sub.gram == ((36, 0), (0, 4))
    assert [list(r) for r in rows] == [[3, 0], [0, 1]]
    sub, rows = index_p_sublattice(standard_lattice("U"), 3)
    assert sub.gram == ((0, 3), (3, -2))
    assert abs(sub.det) == 9


def test_index_p_rejects_two():
    with pytest.raises(BadPrime):
        index_p_sublattice(Lattice([[4]]), 2)
    for bad in (3.0, 2.0, True, "3"):
        with pytest.raises(BadShape, match="p: .* is not an integer"):
            index_p_sublattice(Lattice([[4]]), bad)


def test_index_p_scales_discriminant():
    rng = random.Random(137)
    for _ in range(15):
        lat = random_even_lattice(rng, max_rank=4)
        for p in (3, 5):
            if abs(lat.det) % p == 0:
                continue
            sub, rows = index_p_sublattice(lat, p)
            assert abs(sub.det) == abs(lat.det) * p * p


def test_condition_star_frozen():
    report = condition_star(Lattice([[4, 0], [0, 4]]), Lattice([[36, 0], [0, 4]]))
    assert report.index == 3
    assert report.verdict
    report = condition_star(Lattice([[4, 0], [0, 4]]), Lattice([[16, 0], [0, 4]]))
    assert report.index == 2
    assert not report.gcd_ok
    assert not report.verdict


def test_transfer_round_trip():
    parent = Lattice([[4, 0], [0, 4]])
    datum = find_embedding_datum(parent)
    child, rows = index_p_sublattice(parent, 3)
    down = transfer_datum_down(parent, child, datum, rows)
    assert down.k_fqf.group_order == datum.k_fqf.group_order * 9
    ok, reasons = verify_embedding_datum(child, down)
    assert ok, reasons
    up = transfer_datum_up(parent, child, down, rows)
    ok, reasons = verify_embedding_datum(parent, up)
    assert ok, reasons
    assert up.h_l == datum.h_l
    assert up.gamma == datum.gamma
    assert fqf_isomorphic(up.k_fqf, datum.k_fqf) is not None


def test_gluing_path_splits_each_form_value_once(monkeypatch, stores):
    """Along find, verify and one descent step of a det-16 gram, and find
    and verify on two fresh lattices of one det-12 gram, no (form value, p)
    is split twice, each form value misses `_LOCAL` once, and every
    reading kept equals a fresh one."""
    runs = Counter()
    split = fqf._split_blocks

    def run(f, p):
        runs[(f.orders, f.den, f.qmat, p)] += 1
        return split(f, p)

    monkeypatch.setattr(fqf, "_split_blocks", run)
    parent = Lattice([[4, 4], [4, 8]])
    datum = find_embedding_datum(parent)
    assert verify_embedding_datum(parent, datum) == (True, [])
    child, rows = index_p_sublattice(parent, 3)
    down = transfer_datum_down(parent, child, datum, rows)
    assert verify_embedding_datum(child, down) == (True, [])
    transfer_datum_up(parent, child, down, rows)
    for _ in range(2):
        lat = Lattice([[4, 2], [2, 4]])
        assert verify_embedding_datum(lat, find_embedding_datum(lat)) == (True, [])
    local = stores["_LOCAL"]
    assert runs and max(runs.values()) == 1 and local.hits
    assert local.misses == len(local) and {key[:3] for key in runs} <= set(local)
    for (orders, den, qmat), kept in list(local.items()):
        local.clear()
        assert fqf._local(FiniteQuadraticForm.over(orders, qmat, den)) == kept


@pytest.mark.parametrize("gram, p", [
    ([[4, 0], [0, 4]], 3),
    ([[4, 4], [4, 8]], 3),
    ([[4, 2], [2, 4]], 5),
])
def test_descent_chain_builds_each_graph_quotient_once(gram, p, monkeypatch, stores):
    """From empty stores, along find, verify, down, verify child, up and
    verify, only find and the child's verify build a graph quotient: verify
    and up read the one kept by the parent form's value. Every quotient
    served equals one built afresh, from an empty store, on a fresh lattice
    of the same gram."""
    built, served = [0], []
    build, graph_quotient = nikulin.quotient_form, nikulin._graph_quotient

    def counted(*args):
        built[0] += 1
        return build(*args)

    def recorded(fl, h_l_gens, gamma_rows):
        out = graph_quotient(fl, h_l_gens, gamma_rows)
        served.append((fl, [list(r) for r in h_l_gens], [list(r) for r in gamma_rows], out))
        return out

    monkeypatch.setattr(nikulin, "quotient_form", counted)
    monkeypatch.setattr(nikulin, "_graph_quotient", recorded)
    counts = []

    def step(call):
        before = built[0]
        out = call()
        counts.append(built[0] - before)
        return out

    parent = Lattice(gram)
    datum = step(lambda: find_embedding_datum(parent))
    assert step(lambda: verify_embedding_datum(parent, datum)) == (True, [])
    child, rows = index_p_sublattice(parent, p)
    down = step(lambda: transfer_datum_down(parent, child, datum, rows))
    assert step(lambda: verify_embedding_datum(child, down)) == (True, [])
    up = step(lambda: transfer_datum_up(parent, child, down, rows))
    assert step(lambda: verify_embedding_datum(parent, up)) == (True, [])
    assert counts == [1, 0, 0, 1, 0, 0]
    grams = {id(discriminant_form(lat)): lat.gram for lat in (parent, child)}
    for fl, h_l_gens, gamma_rows, out in served:
        stores["_GLUED"].clear()
        fresh = discriminant_form(Lattice(grams[id(fl)]))
        quot, kf = graph_quotient(fresh, h_l_gens, gamma_rows)
        assert out == (quot, kf) and kf == canonical_form(negate_fqf(quot))


def test_kept_graph_quotient_decides_no_verdict_and_keeps_no_error(monkeypatch, stores):
    lat = Lattice([[4, 2], [2, 4]])
    good = find_embedding_datum(lat)
    fl = discriminant_form(lat)
    glued = stores["_GLUED"]
    kept = dict(glued)
    assert kept and glued.hits == 0
    built = []
    build = nikulin.quotient_form

    def counted(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(nikulin, "quotient_form", counted)
    # the wrong K form of the presentation test above: the kept quotient is
    # served, and the isomorphism test still rejects it
    values = [list(r) for r in good.k_fqf.values]
    values[9][9] += Fraction(2, 3)
    wrong = make_datum(good.h_l, good.h_n, good.gamma, good.k_rank, good.k_signature,
                       FiniteQuadraticForm(good.k_fqf.orders, values))
    ok, reasons = verify_embedding_datum(lat, wrong)
    assert not ok
    assert reasons == ["complement discriminant form does not match the subquotient"]
    assert not built and glued.hits == 1
    # q(h) = 1 and q(g) = 0, so the graph is not isotropic: the error is
    # raised anew on each call, nothing is stored and the earlier entries stay
    h, g = good.h_l[0], (0,) * 9 + (1,)
    assert fl.q_of(h) != discriminant_form(ambient()).q_of(g)
    for _ in range(2):
        with pytest.raises(NotIsotropic):
            nikulin._graph_quotient(fl, [h], [g])
    assert len(built) == 2 and glued.hits == 1
    assert dict(glued) == kept


# ----------------------------------------- graph quotients by form value

def _gram_sweep():
    """Seeded rank-1 and rank-2 even grams, then distinct grams with equal
    discriminant forms: the five det-16 shapes of the gluing benchmark
    (three share one form value) and [[4, 2], [2, 4]], [[4, -2], [-2, 4]]."""
    rng = random.Random(3535)
    grams = []
    while len(grams) < 24:
        n = rng.randint(1, 2)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.choice((-3, -2, -1, 1, 2, 3))
            for j in range(i):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
        if n == 1 or g[0][0] * g[1][1] != g[0][1] ** 2:
            grams.append(g)
    grams += [[[4 * a, 2 * b], [2 * b, 4 * c]]
              for a, b, c in ((1, 0, 1), (1, 2, 2), (2, 2, 1), (1, -2, 2), (2, -2, 1))]
    return grams + [[[4, 2], [2, 4]], [[4, -2], [-2, 4]]]


def _gluing_outcomes(grams, before_call):
    """One line per call of find, verify, transfer down, verify on the
    child, transfer up and verify on each gram, one step down at the
    smallest admissible prime: the datum's `datum_to_json` bytes or the
    verdict, or the error's type and message. before_call runs before
    every call."""
    lines = []

    def call(what, f, *args):
        before_call()
        try:
            out = f(*args)
        except EnrLatError as exc:
            lines.append("%s %s: %s" % (what, type(exc).__name__, exc))
            return None
        shown = canonical_json(datum_to_json(out)) if what in ("find", "down", "up") else out
        lines.append("%s %s" % (what, shown))
        return out

    for g in grams:
        lat = Lattice(g)
        datum = call("find", find_embedding_datum, lat)
        if datum is None:
            continue
        call("verify", verify_embedding_datum, lat, datum)
        child, rows = index_p_sublattice(lat, _smallest_admissible_prime(abs(lat.det)))
        down = call("down", transfer_datum_down, lat, child, datum, rows)
        if down is None:
            continue
        call("verify child", verify_embedding_datum, child, down)
        up = call("up", transfer_datum_up, lat, child, down, rows)
        if up is not None:
            call("verify up", verify_embedding_datum, lat, up)
    return lines


# sha256 of the lines of `_gluing_outcomes` on `_gram_sweep()`
GLUING_OUTCOMES_DIGEST = "aa33bb6df7d156520324e321ada3aaf94ef4f178f605b2baf44b5bc360378a6a"


def test_kept_graph_quotients_change_no_byte(stores):
    """Cold, with every store emptied before each call, and warm, with the
    stores kept across calls and grams, the sweep gives the same bytes and
    verdicts, and both are the pinned ones; the warm pass serves grams of
    equal form from the quotients of the first."""
    grams = _gram_sweep()

    def empty():
        for store in stores.values():
            store.clear()

    cold = _gluing_outcomes(grams, empty)
    empty()
    warm = _gluing_outcomes(grams, lambda: None)
    assert warm == cold
    assert len(cold) == 181 and cold.count("verify (True, [])") == 30
    assert hashlib.sha256("\n".join(cold).encode()).hexdigest() == GLUING_OUTCOMES_DIGEST
    glued = stores["_GLUED"]
    for first, *rest in (([[4, 0], [0, 4]], [[4, 4], [4, 8]], [[4, -4], [-4, 8]]),
                         ([[4, 2], [2, 4]], [[4, -2], [-2, 4]])):
        empty()
        datum = find_embedding_datum(Lattice(first))
        built = glued.misses
        for g in rest:
            assert find_embedding_datum(Lattice(g)) == datum
        assert glued.misses == built


# The gluing benchmark's inputs, each rank-2 class in two Gram shapes:
# descent grams (find, verify, one step down at the smallest admissible
# prime, verify on the child, up) and datum grams (find, verify).
WORK_DESCENT = ([[4]], [[-4]], [[4, 0], [0, 4]], [[4, 4], [4, 8]])
WORK_DATUM = ([[4, 2], [2, 4]], [[4, -2], [-2, 4]], [[4, 2], [2, 8]], [[8, -2], [-2, 4]])


def _work_path():
    """The benchmark's gluing path: its chain's find, then find and verify
    on each gram, and on the descent grams one step down, verify on the
    child and up."""
    find_embedding_datum(Lattice([[4, 0], [0, 4]]))
    for g in WORK_DESCENT + WORK_DATUM:
        lat = Lattice(g)
        datum = find_embedding_datum(lat)
        assert verify_embedding_datum(lat, datum) == (True, [])
        if g in WORK_DESCENT:
            child, rows = index_p_sublattice(lat, _smallest_admissible_prime(abs(lat.det)))
            down = transfer_datum_down(lat, child, datum, rows)
            assert verify_embedding_datum(child, down) == (True, [])
            transfer_datum_up(lat, child, down, rows)


def test_graph_quotient_work_is_pinned(stores):
    """From empty stores, the graph quotients asked for and built along
    `_work_path`, read off the store's counts. With one quotient kept per
    form object instead, 13 of the 25 were built."""
    _work_path()
    glued = stores["_GLUED"]
    assert (glued.hits + glued.misses, glued.misses) == (25, 9)


def test_form_work_is_pinned(stores, monkeypatch):
    """From empty stores, along `_work_path`: the forms built through the
    checking `_set`, the `_LOCAL` hits and misses and the `_split_blocks`
    runs they cost, the `_solve_lower` calls of verify, and the negations
    and invariant-factor forms taken, so that a value derived again shows.
    When each form checked its value again, kept neither reading and verify
    solved every row of H_N in its own span, `_set`, the Gauss signatures
    and the `_scales` readings computed, and `_solve_lower` were 128, 29, 90
    and 120; when p-parts and direct sums were checked and every reader of
    a graph quotient derived K from it again, they were 74, 17, 41 and 0,
    with 38 negations and 17 invariant-factor forms; when each graph
    quotient miss also took K's invariant-factor form, that was 13. When a
    form kept its signature and each `_scales` reading on itself, beside a
    store of splittings by (form value, p), 17 signatures and 33 readings
    were computed.

    q_N is kept on the shared lattice N, so it is built before the count
    whatever ran before."""
    discriminant_form(ambient())
    counts = dict.fromkeys(("_set", "_split_blocks", "_solve_lower", "negate_fqf",
                            "canonical_form"), 0)

    def counted(name, call):
        def run(*args):
            counts[name] += 1
            return call(*args)
        return run

    monkeypatch.setattr(FiniteQuadraticForm, "_set", counted("_set", FiniteQuadraticForm._set))
    monkeypatch.setattr(fqf, "_split_blocks", counted("_split_blocks", fqf._split_blocks))
    monkeypatch.setattr(nikulin, "_solve_lower", counted("_solve_lower", fqf._solve_lower))
    for name in ("negate_fqf", "canonical_form"):
        call = counted(name, getattr(fqf, name))
        for mod in (fqf, nikulin):
            monkeypatch.setattr(mod, name, call)
    _work_path()
    local = stores["_LOCAL"]
    # a graph quotient miss (9) negates q_N and the quotient, whose orders
    # already divide one another; each step down (4) negates and takes an
    # invariant-factor form
    assert counts == {"_set": 30, "_split_blocks": 21, "_solve_lower": 0,
                      "negate_fqf": 22, "canonical_form": 4}
    assert (local.hits, local.misses) == (62, 12)


def test_transfer_round_trip_sweep():
    """Down then up returns the datum's H_L and K form, whenever the
    search, the descent and the lift all succeed."""
    rng = random.Random(1313)
    done = 0
    for _ in range(200):
        n = rng.randint(1, 2)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randint(-2, 2)
            for j in range(i):
                g[i][j] = g[j][i] = rng.randint(-5, 5)
        p = rng.choice((3, 5, 7))
        try:
            parent = Lattice(g)
            datum = find_embedding_datum(parent)
            child, rows = index_p_sublattice(parent, p)
            down = transfer_datum_down(parent, child, datum, rows)
            up = transfer_datum_up(parent, child, down, rows)
        except EnrLatError:
            continue
        assert up.h_l == datum.h_l, (g, p)
        assert up.k_fqf == datum.k_fqf, (g, p)
        done += 1
    assert done >= 100


def _smallest_admissible_prime(det):
    return next(p for p in range(3, 100, 2)
                if (2 * det) % p and all(p % q for q in range(3, p, 2)))


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_descended_datum_with_two_elementary_complement_verifies(p):
    # the child's K form has 2-part (Z/2)^10 with half-integral q values,
    # on which the witness search spends its whole cap; the decision reads
    # its parity and signature
    parent = Lattice([[2, -2], [-2, 8]])
    datum = find_embedding_datum(parent)
    child, rows = index_p_sublattice(parent, p)
    down = transfer_datum_down(parent, child, datum, rows)
    assert down.k_fqf.orders == (2,) * 9 + (6 * p * p,)
    assert verify_embedding_datum(child, down) == (True, [])


def test_one_descent_step_verifies_on_every_small_binary_gram():
    # [[2a, b], [b, 2c]] for a, c in -3..3, b in -4..4 and |b| <= 2
    # min(|a|, |c|), one step down at the smallest admissible prime
    outcomes = Counter()
    for a, c, b in product(range(-3, 4), range(-3, 4), range(-4, 5)):
        if abs(b) > 2 * min(abs(a), abs(c)):
            continue
        try:
            parent = Lattice([[2 * a, b], [b, 2 * c]])
            datum = find_embedding_datum(parent)
        except (Degenerate, NotFound) as exc:
            outcomes[type(exc).__name__] += 1
            continue
        p = _smallest_admissible_prime(abs(parent.det))
        child, rows = index_p_sublattice(parent, p)
        down = transfer_datum_down(parent, child, datum, rows)
        assert verify_embedding_datum(child, down) == (True, []), (a, b, c, p)
        outcomes["verified"] += 1
    assert outcomes == {"verified": 196, "NotFound": 40, "Degenerate": 21}


def test_two_part_projector_is_one_on_the_two_part_and_zero_on_the_rest():
    rng = random.Random(61)
    odd = [tuple(rng.choice((3, 5, 7, 9, 15, 25, 27)) for _ in range(rng.randint(1, 4)))
           for _ in range(20)]
    two = [tuple(2 ** rng.randint(1, 6) for _ in range(rng.randint(1, 4))) for _ in range(20)]
    mixed = [a + b for a, b in zip(odd, two)]
    for orders in odd + two + mixed + [()]:
        expo = math.lcm(*orders)
        a = (expo & -expo).bit_length() - 1
        mu = nikulin._two_part_projector(orders)
        assert (mu - 1) % (1 << a) == 0 and mu % (expo >> a) == 0, orders
        # which pins it down: 1 on the trivial group, else the residue in [0, expo)
        assert mu == 1 if expo == 1 else 0 <= mu < expo


def test_transfer_up_refuses_a_row_outside_the_parent_dual():
    # the child [[36, 0], [0, 4]] has index 3 in [[4, 0], [0, 4]]; its
    # group is Z/4 + Z/36, whose element (0, 4) of order 9 lies outside
    # the parent's dual (the order-3 elements are the parent over the child)
    parent = Lattice([[4, 0], [0, 4]])
    child, rows = index_p_sublattice(parent, 3)
    assert discriminant_form(child).orders == (4, 36)
    down = transfer_datum_down(parent, child, find_embedding_datum(parent), rows)
    bad = make_datum([[0, 4]], down.h_n, down.gamma, down.k_rank, down.k_signature, down.k_fqf)
    with pytest.raises(BadCongruence) as info:
        transfer_datum_up(parent, child, bad, rows)
    assert str(info.value) == "vector is not in the dual lattice"


def test_transfer_guards():
    parent = Lattice([[4, 0], [0, 4]])
    datum = find_embedding_datum(parent)
    bad_child = Lattice([[16, 0], [0, 4]])
    with pytest.raises(StarViolated):
        transfer_datum_down(parent, bad_child, datum, [[2, 0], [0, 1]])
    with pytest.raises(EvenIndex):
        transfer_datum_up(parent, bad_child, datum, [[2, 0], [0, 1]])


def test_transferred_datum_milgram_consistency():
    parent = Lattice([[4, 0], [0, 4]])
    datum = find_embedding_datum(parent)
    child, rows = index_p_sublattice(parent, 3)
    down = transfer_datum_down(parent, child, datum, rows)
    pos, neg = down.k_signature
    assert milgram_signature(down.k_fqf) == (pos - neg) % 8
