"""Sweep hashes of the gluing-datum search and the isomorphism test.

Every `find_embedding_datum` result on a seeded sweep of small grams (the
datum's canonical JSON, or the exception type and message) and every
`fqf_isomorphic` witness on seeded pairs of forms in several presentations
is written out and hashed, so a change to either search must reproduce
each result byte for byte. On the same pairs `is_isomorphic` must give
the verdict of the witness search.
"""

import hashlib
import math
import random
from collections import Counter

from enrlat.cli import canonical_json, datum_to_json
from enrlat.errors import Degenerate, EnrLatError
from enrlat.fqf import (
    FiniteQuadraticForm,
    canonical_form,
    direct_sum_fqf,
    discriminant_form,
    fqf_isomorphic,
    is_isomorphic,
    negate_fqf,
    p_part,
    trivial_form,
)
from enrlat.intmat import prime_factors
from enrlat.lattice import Lattice, gram_of_rows
from enrlat.nikulin import find_embedding_datum


def _lattices(rng, count, half_diag, off):
    """count seeded nondegenerate even lattices of rank 1 to 3, with
    diagonal entries 2 * half_diag and off-diagonal ones in -off..off."""
    out = []
    while len(out) < count:
        n = rng.randint(1, 3)
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


def _datum_sweep():
    lines, found = [], 0
    for lat in _lattices(random.Random(1), 60, (-4, 1), 4):
        try:
            out = canonical_json(datum_to_json(find_embedding_datum(lat)))
            found += 1
        except EnrLatError as exc:
            out = "%s: %s" % (type(exc).__name__, exc)
        lines.append("%s %s" % ([list(r) for r in lat.gram], out))
    return _hash(lines), found, len(lines)


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
    digest, found, total = _datum_sweep()
    assert (found, total) == (54, 60)
    assert digest == "7f922b17a34f902d51e3c63ce1affad598b2a58633aed86ca837ecdba14bc925"


def test_isomorphism_sweep_hash_is_unchanged():
    digest, verdicts = _iso_sweep()
    # witnesses and refusals, on one-prime and multi-prime groups
    assert all(verdicts[iso, multi] for iso in (True, False) for multi in (True, False))
    assert digest == "b5f4469296978d12a740165b97d680e9b52a2060a6fbf8293ab23d6055593808"


def test_is_isomorphic_agrees_with_the_witness_search_on_the_sweep():
    verdicts = Counter(
        (is_isomorphic(f, g), fqf_isomorphic(f, g) is not None) for f, g in _iso_pairs())
    assert set(verdicts) == {(True, True), (False, False)}
