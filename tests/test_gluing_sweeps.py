"""Sweep hashes of the gluing-datum search and the isomorphism test.

Every `find_embedding_datum` result on a seeded sweep of small grams (the
datum's canonical JSON, or the exception type and message) and every
`fqf_isomorphic` witness on seeded pairs of forms in several presentations
is written out and hashed, so a change to either search must reproduce
each result byte for byte. On the same pairs `is_isomorphic` must give
the verdict of the witness search.
"""

import functools
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
from enrlat.enriques import ambient
from enrlat.errors import Degenerate, EnrLatError, NotFound
from enrlat.fqf import (
    FiniteQuadraticForm,
    _subquotient,
    canonical_form,
    direct_sum_fqf,
    discriminant_form,
    fqf_isomorphic,
    is_isomorphic,
    negate_fqf,
    p_part,
    perp_subgroup,
    subgroup_matrix,
    trivial_form,
    verify_fqf_iso,
)
from enrlat.intmat import hnf_rows, prime_factors
from enrlat.lattice import Lattice, gram_of_rows
from enrlat.nikulin import exists_even_lattice, find_embedding_datum


def _lattices(rng, count, half_diag, off, ranks=(1, 3)):
    """count seeded nondegenerate even lattices of rank in ranks (1 to 3 by
    default), with diagonal entries 2 * half_diag and off-diagonal ones in
    -off..off."""
    out = []
    while len(out) < count:
        n = rng.randint(*ranks)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randint(*half_diag)
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.randint(-off, off)
        try:
            out.append(Lattice(g))
        except Degenerate:
            pass
    return out


def _hash(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _datum_out(lat):
    """The canonical JSON of the datum found for lat, or the exception."""
    try:
        return canonical_json(datum_to_json(find_embedding_datum(lat)))
    except EnrLatError as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def _datum_sweep(lattices):
    outs = [_datum_out(lat) for lat in lattices]
    lines = ["%s %s" % ([list(r) for r in lat.gram], out) for lat, out in zip(lattices, outs)]
    return lines, sum(out.startswith("{") for out in outs)


def _rebased(f, rng):
    """f on another basis with the same orders: each step adds to e_i a
    multiple of e_j whose order divides that of e_i."""
    orders = f.orders
    k = len(orders)
    rows = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(3 * k):
        i, j = rng.randrange(k), rng.randrange(k)
        if i != j:
            c = orders[j] // math.gcd(orders[i], orders[j]) * rng.randrange(1, orders[j] + 1)
            rows[i] = [(a + c * b) % d for a, b, d in zip(rows[i], rows[j], orders)]
    return FiniteQuadraticForm.over(orders, gram_of_rows(rows, f.qmat), f.den)


def _by_primes(f):
    """f as the orthogonal sum of its p-parts."""
    out = trivial_form()
    for p in prime_factors(f.group_order):
        out = direct_sum_fqf(out, p_part(f, p))
    return out


def _iso_pairs():
    """Seeded pairs (f, g) of forms of one order: f against itself in
    several presentations, its negation, and up to three other forms."""
    rng = random.Random(1)
    base = []
    for lat in _lattices(rng, 200, (-4, 4), 4):
        f = discriminant_form(lat)
        if f.is_trivial or f.group_order > 1000:
            continue
        base.append(f)
        if len(base) > 1 and f.group_order * base[-2].group_order <= 1000:
            base.append(direct_sum_fqf(f, base[-2]))
    by_order = {}
    for f in base:
        by_order.setdefault(f.group_order, []).append(f)
    for f in base:
        others = [g for g in by_order[f.group_order] if g is not f][:3]
        for g in [f, canonical_form(f), _by_primes(f), _rebased(f, rng), _rebased(f, rng),
                  negate_fqf(f), _rebased(negate_fqf(f), rng)] + others:
            yield f, g


def _iso_sweep():
    lines, verdicts = [], Counter()
    for f, g in _iso_pairs():
        iso = fqf_isomorphic(f, g)
        verdicts[iso is not None, len(prime_factors(f.group_order)) > 1] += 1
        lines.append("%s %s %s" % (f.orders, g.orders, iso))
    return _hash(lines), verdicts


def test_datum_sweep_hash_is_unchanged():
    lines, found = _datum_sweep(_lattices(random.Random(1), 60, (-4, 1), 4))
    assert (found, len(lines)) == (54, 60)
    assert _hash(lines) == "7f922b17a34f902d51e3c63ce1affad598b2a58633aed86ca837ecdba14bc925"


# rank-4 grams on which a search that backtracks over the images of each
# H_L generator spends thousands of nodes before it refuses
_RANK_FOUR_REFUSALS = [
    [[-4, -2, 2, 4], [-2, 2, -4, 1], [2, -4, 6, 1], [4, 1, 1, -6]],
    [[2, -2, 1, -1], [-2, 8, 4, 4], [1, 4, 2, -1], [-1, 4, -1, -2]],
    [[6, 0, -1, 1], [0, 6, 1, 1], [-1, 1, -6, -1], [1, 1, -1, -6]],
    [[-2, 3, -1, 1], [3, -2, 3, -4], [-1, 3, 6, 1], [1, -4, 1, -6]],
    [[-6, 2, 3, 4], [2, 4, 4, 0], [3, 4, -2, -1], [4, 0, -1, 2]],
    [[0, 0, 0, 2], [0, -2, 0, 3], [0, 0, 8, 2], [2, 3, 2, -6]],
    [[4, -2, -2, 0], [-2, 0, 2, 0], [-2, 2, -2, -3], [0, 0, -3, -6]],
    [[8, -4, 0, 0], [-4, 2, 3, 2], [0, 3, 2, 4], [0, 2, 4, 0]],
]


@pytest.mark.parametrize("gram", _RANK_FOUR_REFUSALS)
def test_rank_four_refusal_is_exhaustive_within_a_hundred_nodes(gram, monkeypatch):
    monkeypatch.setattr(nikulin, "DATUM_NODE_CAP", 100)
    with pytest.raises(NotFound, match="no gluing datum within the search bound"):
        find_embedding_datum(Lattice(gram))


def test_rank_four_datum_sweep_hash(monkeypatch):
    # every search ends within 100 nodes, far below the real cap, so the
    # outputs are those of an uncapped search
    monkeypatch.setattr(nikulin, "DATUM_NODE_CAP", 100)
    lattices = _lattices(random.Random(7), 200, (-4, 4), 4, ranks=(4, 4))
    lines, found = _datum_sweep(lattices)
    assert not [line for line in lines if "CapExceeded" in line]
    assert found == 30
    assert _hash(lines) == "2701309a381d1ce9ce56cd1834d1ae250e6f961fe639053c580e46e3d6655973"


def _diag(x, n):
    return [[x if i == j else 0 for j in range(n)] for i in range(n)]


def _block(*grams):
    n = sum(map(len, grams))
    out, at = [[0] * n for _ in range(n)], 0
    for g in grams:
        for i, row in enumerate(g):
            out[at + i][at:at + len(row)] = row
        at += len(g)
    return out


_D4_MINUS_2 = [[-4, 2, 0, 0], [2, -4, 2, 2], [0, 2, -4, 0], [0, 2, 0, -4]]
_U2 = [[0, 2], [2, 0]]


# sources of 2-length 4 to 6, where the sweeps reach 3 at ranks 1 to 3 and
# 4 at rank 4, with the sha256 of the canonical datum JSON or of the
# exception line
@pytest.mark.parametrize("gram, digest", [
    (_diag(-4, 4), "f8cf9c9ab781107d7f544d3e1ff37b13f3695f8cc757ca71ff553a4cee569841"),
    (_diag(-4, 5), "01189b131d1a6ebcb7ab7be48acf67dc42787a9161a0003eaea0b371f377e660"),
    (_diag(-4, 6), "efc7efd78c4e7deeb7158c52ffd0b8d878720c34668346525bf92addc46755d6"),
    (_diag(-8, 4), "d0bc27cef4b48c459dc9fda1d7449e4c44768484de43918d54e9090b36620815"),
    (_diag(-8, 5), "4c93cdcd4a4ceac4519e57690b8d826e639acc2dca54cd0743c075611cd68a2b"),
    (_D4_MINUS_2, "506d264e7b562a887eb6a3269c1419e261cc8def505b3cb990339f395d6eb349"),
    (_block(_D4_MINUS_2, _U2), "faa79e98df9f79fc49fd0e79d35a2ac201274df34cd49b492988a6ba2ec65bed"),
    (_block(_U2, _diag(-4, 3)), "5d0c3ab9283509dc19c638f012dd341cfb15b95d5fa386ada24cc69ac6c75ccb"),
    (_diag(4, 5), "32ace1d3443b316f3f7a9866724d5adc34478c06710cb03f3b9cc5a1ff946426"),
])
def test_datum_past_the_sweeps_two_lengths_is_pinned(gram, digest):
    assert _hash([_datum_out(Lattice(gram))]) == digest


@functools.cache
def _order_two_elements(f):
    """The nonzero elements of order two of f as (coords, 2q), in the order
    itertools.product visits their coordinates, read off q_num; computed
    once per form value."""
    coords = product(*[(0, d // 2) if d % 2 == 0 else (0,) for d in f.orders])
    return tuple((c, 2 * f.q_num(c) // f.den) for c in coords)[1:]


def _fitting(f, g, sources, images, a, q_a, candidates, span):
    """The first candidate b of g outside span whose 2q is q_a and that
    pairs with images as a, of f, pairs with sources: the search's fitting
    rules, on (element, 2q) candidates as `_order_two_elements` lists them."""
    return next(b for b, q_b in candidates
                if q_b == q_a and b not in span
                and all(g.b_num(b, y) * f.den == f.b_num(a, x) * g.den
                        for x, y in zip(sources, images)))


def _grown(f, span, b):
    return span | {f.reduce(map(add, s, b)) for s in span}


def _second_images(fl, fn, h_l, rng):
    """Images of the rows of h_l in fn[2], first fit over a seeded shuffle
    of the order-two elements of fn."""
    q_l = dict(_order_two_elements(fl))
    two_n = list(_order_two_elements(fn))
    rng.shuffle(two_n)
    gamma, span = [], {tuple([0] * fn.num_gens)}
    for a in h_l:
        b = _fitting(fl, fn, h_l, gamma, a, q_l[a], two_n, span)
        gamma.append(b)
        span = _grown(fn, span, b)
    return gamma


def _coords_in(f, gens, relations, y):
    """Integers c with y = sum c_j gens_j in f, modulo the relations.

    Each row carries its combination of gens in its first k columns, so
    the Hermite pivots of the rows with a nonzero element part fall among
    the last n columns; a row whose element part is 0 is skipped."""
    n, k = f.num_gens, len(gens)
    rows = [[int(i == j) for j in range(k)] + list(g) for i, g in enumerate(gens)]
    rows += [[0] * k + list(r) for r in relations]
    rows += [[0] * k + [d if j == i else 0 for j in range(n)] for i, d in enumerate(f.orders)]
    rest = [0] * k + list(y)
    for row in reversed(hnf_rows(rows)):
        if not any(row[k:]):
            continue
        p = max(j for j in range(k, k + n) if row[j])
        q, rem = divmod(rest[p], row[p])
        assert rem == 0
        rest = [x - q * r for x, r in zip(rest, row)]
    assert not any(rest[k:])
    return [-x for x in rest[:k]]


def _witt_isometry(fn, gamma, gamma2):
    """An isometry of q_N taking gamma to gamma2, grown one unit vector at
    a time: by Witt's extension theorem the first fitting image of each
    always exists. Returned as a map on coordinate rows of fn."""
    q_n = dict(_order_two_elements(fn))
    zero = tuple([0] * fn.num_gens)
    sources, images = [tuple(g) for g in gamma], [tuple(g) for g in gamma2]
    span_s, span_i = {zero}, {zero}
    for s, i in zip(sources, images):
        span_s, span_i = _grown(fn, span_s, s), _grown(fn, span_i, i)
    for j in range(fn.num_gens):
        e = tuple(int(t == j) for t in range(fn.num_gens))
        if e in span_s:
            continue
        b = _fitting(fn, fn, sources, images, e, q_n[e], _order_two_elements(fn), span_i)
        sources.append(e)
        images.append(b)
        span_s, span_i = _grown(fn, span_s, e), _grown(fn, span_i, b)

    def sigma(y):
        c = _coords_in(fn, sources, [], y)
        return fn.reduce([sum(x * im[t] for x, im in zip(c, images)) for t in range(fn.num_gens)])
    return sigma


def _quotient_lifts(diff, graph):
    """Generators of graph^perp / graph in diff coordinates, those of the
    form `nikulin._graph_quotient` builds."""
    return _subquotient(diff, perp_subgroup(diff, graph), subgroup_matrix(diff, graph))[0]


def test_any_fitting_images_give_an_isomorphic_complement():
    # Witt's extension theorem for the nonsingular F_2-space q_N: two
    # identifications of one H_L differ by an isometry sigma of q_N, and
    # id (+) sigma carries one graph quotient onto the other. That isometry
    # is built and its witness checked, which proves each case
    rng = random.Random(3)
    fn = discriminant_form(ambient())
    sources = _lattices(random.Random(1), 60, (-4, 1), 4) + [Lattice([[4, 2], [2, 4]])]
    moved = 0
    for lat in sources:
        try:
            datum = find_embedding_datum(lat)
        except NotFound:
            continue
        fl = discriminant_form(lat)
        gamma = _second_images(fl, fn, datum.h_l, rng)
        moved += gamma != list(datum.gamma)
        first, first_k = nikulin._graph_quotient(fl, datum.h_l, datum.gamma)
        second, second_k = nikulin._graph_quotient(fl, datum.h_l, gamma)
        # the first is kept from the search: both equal quotients built anew
        fresh = discriminant_form(Lattice(lat.gram))
        assert (first, first_k) == nikulin._graph_quotient(fresh, datum.h_l, datum.gamma)
        assert (second, second_k) == nikulin._graph_quotient(fresh, datum.h_l, gamma)
        assert first_k == datum.k_fqf == canonical_form(negate_fqf(first))
        assert second_k == canonical_form(negate_fqf(second))
        assert first.num_gens == second.num_gens
        assert (exists_even_lattice(datum.k_signature, first_k)
                == exists_even_lattice(datum.k_signature, second_k))
        sigma = _witt_isometry(fn, datum.gamma, gamma)
        diff, k = nikulin._difference_form(fl), fl.num_gens
        graph1, graph2 = ([list(h) + list(g) for h, g in zip(datum.h_l, images)]
                          for images in (datum.gamma, gamma))
        gens2 = _quotient_lifts(diff, graph2)
        witness = [[x % d for x, d in zip(
            _coords_in(diff, gens2, graph2, list(y[:k]) + list(sigma(y[k:]))), second.orders)]
            for y in _quotient_lifts(diff, graph1)]
        assert verify_fqf_iso(first, second, witness)
    assert moved >= 20


def test_isomorphism_sweep_hash_is_unchanged():
    digest, verdicts = _iso_sweep()
    # witnesses and refusals, on one-prime and multi-prime groups
    assert all(verdicts[iso, multi] for iso in (True, False) for multi in (True, False))
    assert digest == "b5f4469296978d12a740165b97d680e9b52a2060a6fbf8293ab23d6055593808"


def test_is_isomorphic_agrees_with_the_witness_search_on_the_sweep(monkeypatch):
    # every p-part of the sweep is nondegenerate, so the keys decide each
    # pair without the witness search; so is a degenerate p-part against a
    # nondegenerate one of the same orders and den
    calls = []
    search = fqf.fqf_isomorphic

    def counted(f, g):
        calls.append((f, g))
        return search(f, g)

    monkeypatch.setattr(fqf, "fqf_isomorphic", counted)
    verdicts = Counter(
        (is_isomorphic(f, g), fqf_isomorphic(f, g) is not None) for f, g in _iso_pairs())
    assert set(verdicts) == {(True, True), (False, False)}
    degenerate = FiniteQuadraticForm((2, 2), [[Fraction(1, 2), 0], [0, 0]])
    plane = FiniteQuadraticForm((2, 2), [[Fraction(1, 2), 0], [0, Fraction(3, 2)]])
    assert degenerate.den == plane.den
    assert not is_isomorphic(degenerate, plane) and not is_isomorphic(plane, degenerate)
    assert not calls
