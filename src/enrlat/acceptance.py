"""Acceptance criteria: deterministic end-to-end checks with fixed seeds
and wall-clock budgets, shared by the test suite and the command line."""

import json
import random
import time
from dataclasses import dataclass
from itertools import product as iproduct
from math import isqrt

from .classgroups import class_group, is_fundamental, ray_class2_order, cm_report
from .embeddings import (
    character_upper_bound,
    embedding_complement,
    embedding_for_label,
    suggest_params,
    t_gram,
    vectors_of_norm,
)
from .enriques import epsilon, generate_isometry, is_twice_even
from .errors import BadShape, EnrLatError
from .fqf import discriminant_form, is_isomorphic, milgram_signature, p_part, trivial_form
from .intmat import det_bareiss, is_prime, mat_mul, transpose
from .lattice import Lattice, orthogonal_complement, standard_lattice
from .nikulin import (
    condition_star,
    exists_even_lattice,
    find_embedding_datum,
    index_p_sublattice,
    transfer_datum_down,
    transfer_datum_up,
    verify_embedding_datum,
)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    ok: bool
    elapsed: float
    limit: float
    detail: str


def load_fixtures(path=None):
    """The published counts, or a file of the same shape: every section and
    count the criteria read, with its JSON type. Anything else is BadShape."""
    from importlib import resources

    with resources.files("enrlat").joinpath("fixtures/published_counts.json").open() as fh:
        published = json.load(fh)
    if path is None:
        return published
    try:
        with open(path) as fh:
            fixtures = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BadShape("cannot read fixtures file %s: %s" % (path, exc))
    if not _fits(fixtures, published):
        raise BadShape("fixtures file %s lacks a section or count of the published ones" % path)
    return fixtures


def _fits(obj, ref):
    # every key of ref but the comment is in obj, with ref's JSON type
    # there (a bool is no count)
    if isinstance(ref, dict):
        return isinstance(obj, dict) and all(
            key in obj and _fits(obj[key], value) for key, value in ref.items()
            if not key.startswith("_"))
    return type(obj) is type(ref)


def _random_posdef_params(rng):
    while True:
        a, c = rng.randint(1, 10), rng.randint(1, 10)
        b = rng.randint(-10, 10)
        if 4 * a * c - b * b > 0:
            return (a, b, c)


def _criterion_1(fixtures):
    rng = random.Random(101)
    labels = [(1, 0), (0, 1), (1, 1)]
    for _ in range(25):
        params = _random_posdef_params(rng)
        seen = set()
        for label in labels:
            emb = embedding_for_label(20, params, label)
            assert emb.label == label
            seen.add(emb.label)
        assert seen == set(labels)
    want = fixtures["label_counts"]["20"]
    return "25 parameter sets, %d labels each" % want


def _criterion_2(fixtures):
    checked = []
    for rho, seed in ((19, 202), (18, 203)):
        want = fixtures["label_counts"][str(rho)]
        size = {19: 3, 18: 4}[rho]
        param_sets = suggest_params(rho, seed, count=3)
        if rho == 18:
            # (a, -b, c): the same lattice with the first basis vector negated
            param_sets += [(a, -b, c) for a, b, c in param_sets]
        for params in param_sets:
            got = set()
            for label in iproduct((0, 1), repeat=size):
                if not any(label):
                    continue
                emb = embedding_for_label(rho, params, label)
                assert emb.label == label
                got.add(label)
            assert len(got) == want, (rho, params, len(got))
        checked.append("%d:%d" % (rho, want))
    want = fixtures["label_counts"]["17"]
    for m in (1, 2, 3):
        got = set()
        for label in iproduct((0, 1), repeat=5):
            if not any(label):
                continue
            emb = embedding_for_label(17, (m,), label)
            assert emb.label == label
            got.add(label)
        assert len(got) == want, (m, len(got))
    checked.append("17:%d" % want)
    return "full label sweeps " + ", ".join(checked)


def _criterion_3(fixtures):
    rng = random.Random(303)
    nlat = standard_lattice("N")
    found = 0
    while found < 1000:
        x = [rng.randint(-9, 9) for _ in range(12)]
        if nlat.norm(x) % 4 != 2:
            continue
        assert epsilon(x) == 0, x
        found += 1
    return "1000 vectors of norm 2 mod 4 all have parity 0"


def _criterion_4(fixtures):
    rng = random.Random(404)
    nlat = standard_lattice("N")
    g = [list(r) for r in nlat.gram]
    for i in range(200):
        mat = [list(r) for r in generate_isometry(404 + i, rng.randint(1, 12))]
        assert mat_mul(mat_mul(mat, g), transpose(mat)) == g
        for _ in range(10):
            x = [rng.randint(-9, 9) for _ in range(12)]
            y = [sum(x[r] * mat[r][c] for r in range(12)) for c in range(12)]
            assert epsilon(y) == epsilon(x)
    return "200 generated isometries preserve the pairing and the parity"


def _check_table_complement(rho, params, label):
    # the complement read off the embedding is twice even and is the one
    # that eliminates S = images * G * images^T afresh
    emb = embedding_for_label(rho, params, label)
    basis, comp = embedding_complement(emb)
    want_basis, want = orthogonal_complement(emb.ambient, [list(r) for r in emb.images])
    assert (basis, comp.gram, comp.det, comp.signature) == (
        want_basis, want.gram, want.det, want.signature)
    assert is_twice_even(comp.gram)


def _criterion_5(fixtures):
    count = 0
    rng = random.Random(101)
    for _ in range(25):
        params = _random_posdef_params(rng)
        for label in ((1, 0), (0, 1), (1, 1)):
            _check_table_complement(20, params, label)
            count += 1
    sweeps = [
        (19, suggest_params(19, 202, count=3), 3),
        (18, suggest_params(18, 203, count=3), 4),
        (17, [(1,), (2,), (3,)], 5),
    ]
    for rho, param_sets, size in sweeps:
        for params in param_sets:
            for label in iproduct((0, 1), repeat=size):
                if not any(label):
                    continue
                _check_table_complement(rho, params, label)
                count += 1
    return "%d complements are all twice even" % count


def _random_even_lattice(rng, max_rank=6, bound=12, det_cap=60000):
    while True:
        n = rng.randint(1, max_rank)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randint(-bound // 2, bound // 2)
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.randint(-bound, bound)
        d = det_bareiss(g)
        if d == 0 or abs(d) > det_cap:
            continue
        return Lattice(g)


def _criterion_6(fixtures):
    rng = random.Random(606)
    for _ in range(50):
        lat = _random_even_lattice(rng)
        pos, neg = lat.signature
        assert milgram_signature(discriminant_form(lat)) == (pos - neg) % 8
    return "50 random discriminant forms match the signature mod 8"


def naive_vectors(gram, value):
    """All nonzero integer vectors of the given norm, by box enumeration.

    The box radius per coordinate is ceil(sqrt(|value| * (G^-1)_ii)) + 1,
    with (G^-1)_ii = det(G without row and column i) / det G.
    Every point of the box is visited; the norm is built up one coordinate
    at a time, adding t * (g_ii * t + 2 * sum_{j<i} g_ij x_j) for x_i = t.
    Shares no code with vectors_of_norm; only sensible for definite gram of
    rank at most 4.
    """
    n = len(gram)
    det = abs(det_bareiss([list(r) for r in gram]))
    bounds = []
    for i in range(n):
        minor = abs(det_bareiss([[x for j, x in enumerate(r) if j != i]
                                 for k, r in enumerate(gram) if k != i]))
        top = abs(value) * minor
        root = isqrt(top // det)
        bounds.append(root + (root * root * det < top) + 1)
    out = set()
    x = [0] * n

    def walk(i, norm):
        lin = 2 * sum(gram[i][j] * x[j] for j in range(i))
        gii = gram[i][i]
        box = range(-bounds[i], bounds[i] + 1)
        if i < n - 1:
            for t in box:
                x[i] = t
                walk(i + 1, norm + t * (gii * t + lin))
            return
        for t in box:
            if norm + t * (gii * t + lin) == value:
                x[i] = t
                if any(x):
                    out.add(tuple(x))

    walk(0, 0)
    return out


def _criterion_7(fixtures):
    rng = random.Random(707)
    norms = (-2, -4, -6, -8)
    for _ in range(20):
        while True:
            r = rng.randint(1, 4)
            rows = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)]
            if det_bareiss(rows) != 0:
                break
        g = [
            [-2 * sum(rows[i][k] * rows[j][k] for k in range(r)) for j in range(r)]
            for i in range(r)
        ]
        lat = Lattice(g)
        for value in norms:
            fast = {tuple(v) for v in vectors_of_norm(lat, value)}
            assert fast == naive_vectors(g, value), (g, value)
    e8 = standard_lattice("E8")
    factor = fixtures["minimal_vector_counts"]["e8_factor"]
    for k in (1, 2, 3, 4):
        divisor_sum = sum(d ** 3 for d in range(1, k + 1) if k % d == 0)
        assert len(vectors_of_norm(e8, -2 * k)) == factor * divisor_sum, k
    e82 = standard_lattice("E82")
    assert len(vectors_of_norm(e82, -4)) == fixtures["minimal_vector_counts"]["e8_scaled_at_minus_4"]
    assert vectors_of_norm(e82, -2) == []
    return "enumeration agrees with the box oracle and the published counts"


def _criterion_8(fixtures):
    rng = random.Random(808)
    lats = []
    for _ in range(200):
        lat = _random_even_lattice(rng, max_rank=5, det_cap=20000)
        pos, neg = lat.signature
        assert exists_even_lattice((pos, neg), discriminant_form(lat)), lat.gram
        lats.append(lat)
    assert not exists_even_lattice((0, 1), trivial_form())
    for lat in lats[:20]:
        pos, neg = lat.signature
        assert not exists_even_lattice((pos + 1, neg), discriminant_form(lat))
    return "existence holds on 200 realized forms, fails on shifted signatures"


def _criterion_9(fixtures):
    rng = random.Random(909)
    done = 0
    while done < 20:
        k = rng.randint(0, 3)
        lat = _random_even_lattice(rng, max_rank=2 + k, det_cap=40000)
        if lat.rank != 2 + k or lat.signature != (2, k):
            continue
        det = abs(lat.det)
        primes = []
        p = 3
        while len(primes) < 3:
            if (2 * det) % p:
                primes.append(p)
            p += 2
            while not is_prime(p):
                p += 2
        discs = [det]
        cur = lat
        for p in primes:
            sub, _ = index_p_sublattice(cur, p)
            assert abs(sub.det) == abs(cur.det) * p * p
            part = p_part(discriminant_form(sub), p)
            assert part.invariant_factors == (p * p,), part.invariant_factors
            assert condition_star(cur, sub).verdict
            discs.append(abs(sub.det))
            cur = sub
        assert len(set(discs)) == len(discs)
        done += 1
    return "20 descents at three admissible primes each, all verified"


def _criterion_10(fixtures):
    lat = Lattice([[4, 0], [0, 4]])
    datum = find_embedding_datum(lat)
    ok, why = verify_embedding_datum(lat, datum)
    assert ok, why
    child, rows = index_p_sublattice(lat, 3)
    assert child.gram == ((36, 0), (0, 4))
    down = transfer_datum_down(lat, child, datum, rows)
    assert down.k_fqf.group_order == datum.k_fqf.group_order * 9
    ok, why = verify_embedding_datum(child, down)
    assert ok, why
    up = transfer_datum_up(lat, child, down, rows)
    ok, why = verify_embedding_datum(lat, up)
    assert ok, why
    assert is_isomorphic(up.k_fqf, datum.k_fqf)
    return "round trip through the index-3 sublattice preserves the invariants"


def _criterion_11(fixtures):
    r = cm_report([[2, 1], [1, 10]])
    assert r.reduced_form == (1, 1, 5) and r.applies and r.index == 3
    r = cm_report([[2, 1], [1, 2]])
    assert r.fundamental_disc == -3 and not r.applies
    r = cm_report([[4, 0], [0, 4]])
    assert r.splitting == "ramified" and not r.applies
    swept = 0
    for disc in range(-5, -200, -1):
        if disc % 8 != 5 or not is_fundamental(disc):
            continue
        h = class_group(disc).h
        assert ray_class2_order(disc) == 3 * h, disc
        swept += 1
    return "frozen reports plus %d inert fundamental discriminants" % swept


def _criterion_12(fixtures):
    for gram in fixtures["character_grams"]["trivial_bound"]:
        assert character_upper_bound(gram) == [(0, 0)], gram
    rng = random.Random(101)
    for _ in range(5):
        params = _random_posdef_params(rng)
        bound = character_upper_bound(t_gram(20, params))
        assert len(bound) == fixtures["character_grams"]["full_bound_size"], params
    return "trivial bounds on the listed shapes, full group on table shapes"


_CRITERIA = {
    1: ("rank-2 tables on random parameters", _criterion_1, 10.0),
    2: ("full label sweeps for the lower rank families", _criterion_2, 300.0),
    3: ("parity vanishes on norm 2 mod 4", _criterion_3, 1.0),
    4: ("generated isometries preserve parity", _criterion_4, 30.0),
    5: ("complements are twice even", _criterion_5, 60.0),
    6: ("discriminant signature matches mod 8", _criterion_6, 60.0),
    7: ("minimal vector enumeration against oracles", _criterion_7, 120.0),
    8: ("even lattice existence on realized forms", _criterion_8, 120.0),
    9: ("admissible odd-prime descent", _criterion_9, 60.0),
    10: ("gluing datum transfer round trip", _criterion_10, 60.0),
    11: ("ray order and endomorphism reports", _criterion_11, 30.0),
    12: ("character upper bounds", _criterion_12, 1.0),
}

SUITES = {
    "theorem-a": (1, 2, 12),
    "lemmas": (3, 4, 5),
    "oracles": (6, 7),
    "nikulin": (8, 9, 10),
    "theorem-c": (11,),
}


def criterion_numbers():
    return tuple(sorted(_CRITERIA))


def run_criterion(number, fixtures=None):
    if number not in _CRITERIA:
        raise KeyError("no acceptance criterion %r" % (number,))
    fixtures = load_fixtures() if fixtures is None else fixtures
    name, fn, limit = _CRITERIA[number]
    start = time.monotonic()
    try:
        detail = fn(fixtures)
        ok = True
    except AssertionError as exc:
        detail = "assertion failed: %s" % (exc,)
        ok = False
    except EnrLatError as exc:
        detail = "%s: %s" % (type(exc).__name__, exc)
        ok = False
    elapsed = time.monotonic() - start
    if ok and elapsed > limit:
        ok = False
        detail += " (over the %.0fs budget)" % limit
    return CriterionResult(number, name, ok, elapsed, limit, detail)


def run_suite(suite=None, fixtures=None):
    fixtures = load_fixtures() if fixtures is None else fixtures
    if suite is None:
        numbers = criterion_numbers()
    else:
        if suite not in SUITES:
            raise KeyError("no suite %r" % (suite,))
        numbers = SUITES[suite]
    return [run_criterion(n, fixtures) for n in numbers]


def format_result(result):
    word = "PASS" if result.ok else "FAIL"
    return "%s criterion %2d [%5.1fs <= %3.0fs] %s: %s" % (
        word,
        result.number,
        result.elapsed,
        result.limit,
        result.name,
        result.detail,
    )
