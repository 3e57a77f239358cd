"""Primitive embeddings into the rank-12 ambient lattice, by explicit tables.

The tables are data, read by one interpreter (`_candidates`). There is one
family per rank invariant rho = 17..20. A family names its parameters and
gives the source gram, the check on the parameters (the signature wanted of
the leading block of the gram), the basis permutations the label search
tries in turn, and one template per tabulated parity label; every other
nonzero label is reached through a permutation.

A template is (tuple gram, image rows[, sign rule]). The tuple gram asks
`iter_tuples_in_e82` for vectors t0, t1, ... of the definite scaled piece
E8(2) with those pairings, drawn by exact norm enumeration. An image row
"e f h k [ti]" gives the coefficients of the first four ambient basis
vectors and, when present, ti as the last eight coordinates. Every entry is
a linear form in the parameters, such as "2b-2a", parsed once at import. A
sign rule (p, r) covers p < 0: the template is built for the gram with
basis vector r negated, where p is positive, and image r is negated back;
-v has the parity of v, so the label is kept. Construction always ends in
full validation, so a table can only produce correct embeddings.
"""
import math
import re
from collections import defaultdict
from dataclasses import dataclass
from operator import mul, neg

from .enriques import ambient, epsilon
from .errors import (
    BadParams,
    BadShape,
    CapExceeded,
    DependentVectors,
    GramMismatch,
    NotDefinite,
    NotFound,
    NotPrimitive,
    RankTooLarge,
)
from .lattice import (
    Lattice,
    _check_gram,
    _check_int_matrix,
    _is_int,
    gram_of_rows,
    orthogonal_complement,
    rational_signature,
    standard_lattice,
)
from .intmat import snf_diagonal


def vectors_of_norm(lat, value, cap=200000):
    """All lattice vectors of the given self-pairing, definite lattices only.

    Integer Fincke-Pohst enumeration over a fraction-free LDL^T (Bareiss
    elimination of the gram, negated if negative definite, in reversed
    coordinate order: z_i = x_{k-1-i}): with leading minors
    D_0 = 1, D_1, ..., D_k and the elimination rows B_i,
    q = sum_i (D_{i+1} z_i + c_i)^2 / (D_i D_{i+1}) with
    c_i = sum_{j>i} B_i[j] z_j. Scaled by M = lcm(D_i D_{i+1}), every term
    has an integer weight, so each coordinate's range is an exact integer
    square root. Definiteness is read off the same elimination (Sylvester):
    the sign is that of g_00, and a pivot that is not positive raises
    NotDefinite.

    The descent fixes z_{k-1} = x_0 first and walks each range from the top
    down. It walks only half the tree: while every coordinate fixed so far
    is 0 the centre is 0 and the range symmetric, so it keeps t >= 0, and
    finds the vectors whose first nonzero coordinate is positive. The last
    two levels run in one loop: for each x_{k-2}, x_{k-1} is solved in place
    by an exact-square test. CapExceeded is raised inside that loop as soon
    as the vectors found, with their negatives, number more than `cap`.

    The order is pinned: by L1 norm, then coordinates in descending order.
    The walk lists the half in descending order, and every vector of it
    exceeds every negated one, so each L1 bucket is the half's vectors of
    that norm followed by their negatives in reverse; nothing is sorted.
    The `roots` goldens pin this order, and so does the E8(2) vector cache,
    whose order the tuple search follows. A value that is not an int, or a
    cap that is not a nonnegative int, is malformed: BadShape.
    """
    if not _is_int(value):
        raise BadShape("value: %r is not an integer" % (value,))
    if not _is_int(cap) or cap < 0:
        raise BadShape("cap: %r is not a nonnegative integer" % (cap,))
    k = lat.rank
    if k == 0:
        return []
    sign = 1 if lat.gram[0][0] > 0 else -1
    a = [[sign * x for x in reversed(row)] for row in reversed(lat.gram)]
    minors = [1]
    rows = []
    for i in range(k):
        piv, prev = a[i][i], minors[-1]
        if piv <= 0:
            raise NotDefinite("enumeration requires a definite lattice")
        minors.append(piv)
        rows.append(a[i][:])
        for r in range(i + 1, k):
            for s in range(i + 1, k):
                a[r][s] = (a[r][s] * piv - a[r][i] * a[i][s]) // prev
    if value == 0 or (value < 0) == (sign > 0):
        return []  # zero, or the sign the lattice never takes
    big_m = math.lcm(*(minors[i] * minors[i + 1] for i in range(k)))
    weights = [big_m // (minors[i] * minors[i + 1]) for i in range(k)]
    rem = big_m * sign * value
    if k == 1:
        # M = D_1 and w_0 = 1, so rem = (D_1 x_0)^2: one pair at most
        s = math.isqrt(rem)
        if s * s != rem or s % minors[1]:
            return []
        if cap < 2:
            raise CapExceeded("more than %d vectors" % cap)
        return [[s // minors[1]], [-s // minors[1]]]
    buckets = defaultdict(list)  # L1 norm -> the half's vectors of that norm
    found = 0
    z = [0] * k
    d0, w0, d1, w1 = minors[1], weights[0], minors[2], weights[1]
    row0 = rows[0]

    def last_two(i, rem, c, free, l1):
        # i = 1, z[2:] is fixed, c = c_1; for each z_1 the remainder must
        # be w_0 y_0^2 exactly, with y_0 = d_0 z_0 + c_0
        nonlocal found
        s = math.isqrt(rem // w1)
        base = sum(map(mul, row0[2:], z[2:]))
        b1 = row0[1]
        for t in range((s - c) // d1, -((s + c) // d1) - 1 if free else -1, -1):
            y = d1 * t + c
            r = rem - w1 * y * y
            if r % w0:
                continue
            r //= w0
            s0 = math.isqrt(r)
            if s0 * s0 != r:
                continue
            c0 = base + b1 * t
            for y0 in (s0, -s0) if s0 and (free or t) else (s0,):
                if (y0 - c0) % d0 == 0:
                    z[0], z[1] = (y0 - c0) // d0, t
                    buckets[l1 + abs(t) + abs(z[0])].append(z[::-1])
                    found += 1
                    if 2 * found > cap:
                        raise CapExceeded("more than %d vectors" % cap)

    def rec(i, rem, c, free, l1):
        # z[i+1:] is fixed, of L1 norm l1, c = c_i,
        # rem = M |value| - sum_{j>i} w_j y_j^2; w y^2 <= rem holds exactly
        # when |y| <= isqrt(rem // w), y = d z_i + c.
        # Until some fixed coordinate is nonzero, c = 0 and t >= 0.
        d, w = minors[i + 1], weights[i]
        s = math.isqrt(rem // w)
        row = rows[i - 1]
        base = sum(map(mul, row[i + 1:], z[i + 1:]))
        down, b = last_two if i == 2 else rec, row[i]
        for t in range((s - c) // d, -((s + c) // d) - 1 if free else -1, -1):
            z[i] = t
            y = d * t + c
            down(i - 1, rem - w * y * y, base + b * t, free or t != 0, l1 + abs(t))

    (last_two if k == 2 else rec)(k - 1, rem, 0, False, 0)
    out = []
    for n in sorted(buckets):
        half = buckets[n]
        out += half
        out += [list(map(neg, v)) for v in reversed(half)]
    # rec refers to itself, so this frame's cells, buckets among them, live
    # on until a cyclic collection; emptying buckets frees its lists now
    buckets.clear()
    return out


_E82_CACHE = {}

# enumeration is skipped for norms past this; the frame path covers them
_ENUM_NORM_BOUND = 24

# the most squares one frame coordinate is split into, the most frame tuples
# tried, and the most search nodes iter_tuples_in_e82 visits
_MAX_SQUARES = 8
_FRAME_TUPLE_LIMIT = 200
TUPLE_NODE_CAP = 500_000


def _e82_vectors(norm):
    # Tuples, not lists: a tuple of ints leaves the cyclic collector's
    # tracked set after one pass, so the ~9,100 cached vectors are not
    # walked again by every full collection. Each list is replaced in
    # place, so the lists and the tuples are never all alive at once.
    if norm not in _E82_CACHE:
        vecs = vectors_of_norm(standard_lattice("E82"), norm)
        for i, v in enumerate(vecs):
            vecs[i] = tuple(v)
        _E82_CACHE[norm] = tuple(vecs)
    return _E82_CACHE[norm]


_FRAME = []


def _orthogonal_frame():
    """Eight mutually orthogonal minimal vectors of the definite scaled
    piece, fixed once."""
    if _FRAME:
        return _FRAME
    e82 = standard_lattice("E82")
    roots = _e82_vectors(-4)

    def dfs(chosen):
        if len(chosen) == 8:
            return chosen
        for cand in roots:
            if all(e82.bilinear(cand, c) == 0 for c in chosen):
                got = dfs(chosen + [cand])
                if got is not None:
                    return got
        return None

    frame = dfs([])
    assert frame is not None
    _FRAME.extend(tuple(r) for r in frame)
    return _FRAME


def _square_decomps(n):
    # nonincreasing tuples of positive squares summing to n; up to eight
    # terms so a primitive tuple always exists (n-1 as four squares plus 1)
    out = []

    def rec(rem, bound, acc):
        if rem == 0:
            if acc:
                out.append(tuple(acc))
            return
        if len(acc) >= _MAX_SQUARES:
            return
        top = min(bound, int(math.isqrt(rem)))
        for k in range(top, 0, -1):
            if rem - k * k > (_MAX_SQUARES - len(acc) - 1) * k * k:
                continue
            rec(rem - k * k, k, acc + [k])

    rec(n, int(math.isqrt(n)), [])
    out.sort(key=lambda rep: (rep[0], len(rep), rep))
    return out


def _frame_tuples(gram):
    """Constructive tuples on the orthogonal frame: diagonal gram with all
    entries divisible by four."""
    t = len(gram)
    if any(gram[i][j] != 0 for i in range(t) for j in range(t) if i != j):
        return
    needs = []
    for i in range(t):
        if gram[i][i] >= 0 or gram[i][i] % 4:
            return
        needs.append(-gram[i][i] // 4)
    frame = _orthogonal_frame()
    from itertools import product as iproduct

    reprs = [_square_decomps(n)[:6] for n in needs]
    if any(not r for r in reprs):
        return
    count = 0
    for shift in range(8):
        for combo in iproduct(*reprs):
            if sum(len(rep) for rep in combo) > 8:
                continue
            rows = []
            off = shift
            ok = True
            for rep in combo:
                if off + len(rep) > 8:
                    ok = False
                    break
                row = [0] * 8
                for j, coeff in enumerate(rep):
                    for c in range(8):
                        row[c] += coeff * frame[off + j][c]
                rows.append(tuple(row))
                off += len(rep)
            if not ok:
                continue
            yield tuple(rows)
            count += 1
            if count >= _FRAME_TUPLE_LIMIT:
                return


# gram (as a tuple of rows) -> (finished, the tuples iter_tuples_in_e82 has
# yielded for it), finished once the search has run to its end. Nested
# tuples of ints, which the cyclic collector stops tracking, and never a
# suspended search; the oldest gram goes first.
_TUPLES = {}
_TUPLES_KEPT = 256


def iter_tuples_in_e82(gram):
    """Yield tuples of vectors of the definite scaled piece with the given
    mutual pairings that span a primitive sublattice, deterministically
    ordered.

    The tuples yielded are kept per gram and replayed on the next call; a
    caller that reads past them reruns the search, skips what is kept and
    keeps what follows once it stops reading. The search is deterministic,
    so every call yields what a fresh search yields, CapExceeded included.
    """
    key = tuple(map(tuple, gram))
    finished, kept = _TUPLES.get(key, (False, ()))
    yield from kept
    if finished:
        return
    grown = list(kept)
    try:
        for n, rows in enumerate(_search_tuples(key)):
            if n == len(grown):
                grown.append(rows)
                yield rows
        finished = True
    finally:
        # another call may have kept more of the same sequence meanwhile
        if finished or len(grown) > len(_TUPLES.get(key, (False, ()))[1]):
            if key not in _TUPLES and len(_TUPLES) >= _TUPLES_KEPT:
                del _TUPLES[next(iter(_TUPLES))]
            _TUPLES[key] = (finished, tuple(grown))


def _search_tuples(gram):
    e82 = standard_lattice("E82")
    t = len(gram)
    nodes = [0]

    def keep(rows):
        return all(x == 1 for x in snf_diagonal([list(r) for r in rows]))

    seen = set()
    for rows in _frame_tuples(gram):
        if rows not in seen and keep(rows):
            seen.add(rows)
            yield rows
    if any(abs(gram[i][i]) > _ENUM_NORM_BOUND for i in range(t)):
        return

    # every prefix of a basis of a primitive sublattice spans a primitive
    # sublattice, so the search descends only into primitive prefixes
    def dfs(chosen):
        pos = len(chosen)
        if pos == t:
            rows = tuple(tuple(r) for r in chosen)
            if rows not in seen:
                yield rows
            return
        for cand in _e82_vectors(gram[pos][pos]):
            nodes[0] += 1
            if nodes[0] > TUPLE_NODE_CAP:
                raise CapExceeded("tuple search spent %d nodes, over its cap of %d"
                                  % (nodes[0], TUPLE_NODE_CAP))
            if all(
                e82.bilinear(cand, chosen[i]) == gram[pos][i] for i in range(pos)
            ) and keep(chosen + [cand]):
                yield from dfs(chosen + [cand])

    yield from dfs([])


@dataclass(frozen=True)
class PrimitiveEmbedding:
    source: Lattice
    images: tuple
    ambient: Lattice

    @property
    def label(self):
        return tuple(epsilon(list(r)) for r in self.images)


def embedding_from_images(source, images):
    """Validated primitive embedding given by basis images in the ambient
    lattice."""
    nlat = ambient()
    if not isinstance(source, Lattice):
        source = Lattice(source)
    _check_int_matrix(images)
    if len(images) != source.rank:
        raise BadShape("one image per basis vector required")
    rows = [list(r) for r in images]
    for r in rows:
        if len(r) != nlat.rank:
            raise BadShape("images must have length %d" % nlat.rank)
    diag = snf_diagonal(rows)
    if len(diag) < len(rows) or 0 in diag:
        raise DependentVectors("images are dependent")
    got = gram_of_rows(rows, nlat.gram)
    want = [list(r) for r in source.gram]
    if got != want:
        raise GramMismatch("images have pairings %s, expected %s" % (got, want))
    index = math.prod(diag)
    if index != 1:
        raise NotPrimitive(index)
    return PrimitiveEmbedding(source, tuple(tuple(r) for r in rows), nlat)


def embedding_complement(emb):
    return orthogonal_complement(emb.ambient, [list(r) for r in emb.images])


# A linear form in the parameters, such as "2b-2a", "-4m" or "0", is stored
# as its integer coefficients: the constant, then one per parameter.
_TERM = re.compile(r"([+-]?)(\d*)([a-z]?)")


def _form(text, names):
    coeffs = [0] * (len(names) + 1)
    terms = [t for t in _TERM.findall(text) if t[1] or t[2]]
    assert "".join(map("".join, terms)) == text, text
    for sign, num, name in terms:
        coeffs[names.index(name) + 1 if name else 0] += int(sign + (num or "1"))
    return tuple(coeffs)


def _value(form, params):
    return form[0] + sum(map(mul, form[1:], params))


class _Family:
    """The table family of one rank invariant, parsed once from its spec."""

    def __init__(self, names, gram, check, perms, templates):
        self.names = names.split()
        self.gram_forms = self._matrix(gram)
        self.block, self.signature, self.message = check
        self.perms = [tuple(map(int, p)) for p in perms.split()]
        self.templates = {
            tuple(map(int, key)): self._template(*spec) for key, spec in templates.items()
        }
        # each parameter is read off the first entry of the gram that is a
        # multiple of that parameter alone
        self.read = [
            next((i, j, f[k + 1]) for i, row in enumerate(self.gram_forms)
                 for j, f in enumerate(row) if f.count(0) == len(f) - 1 and f[k + 1])
            for k in range(len(self.names))
        ]

    def _matrix(self, rows):
        return [[_form(x, self.names) for x in row.split()] for row in rows]

    def _template(self, tgram, rows, sign=None):
        images = []
        for row in rows:
            head = row.split()
            slot = int(head[4][1:]) if len(head) > 4 else None
            images.append(([_form(x, self.names) for x in head[:4]], slot))
        if sign is not None:
            sign = (self.names.index(sign[0]), sign[1])
        return self._matrix(tgram), images, sign

    def gram(self, params):
        return [[_value(f, params) for f in row] for row in self.gram_forms]

    def params(self, gram):
        return tuple(gram[i][j] // k for i, j, k in self.read)


# The tables; the module docstring describes the format.
_FAMILIES = {
    20: _Family(
        "a b c", ["4a 2b", "2b 4c"],
        (2, (2, 0, 0), "the rank-two block must be positive definite"),
        "01 10",
        {
            "10": ([], ["1 2a 0 0", "0 2b 1 c"]),
            "11": ([], ["1 2a 0 0", "1 2b-2a 1 c-b+a"]),
        },
    ),
    19: _Family(
        "a d l b m c", ["4a 2d 2l", "2d 4b 2m", "2l 2m 4c"],
        (3, (2, 1, 0), "parameters must give signature (2, 1)"),
        "012 021 102 120 201 210",
        {
            "100": (["4c"], ["1 2a 0 0", "0 2d 1 b", "0 2l 0 m t0"]),
            "110": (["4c"], ["1 2a 0 0", "1 2d-2a 1 b-d+a", "0 2l 0 m-l t0"]),
            "111": (["4b-4m 0", "0 4c"], ["1 0 a 1", "1 2m d-m 0 t0", "1 0 l 0 t1"], ("m", 2)),
        },
    ),
    18: _Family(
        "a b c", ["4a 2b 0 0", "2b 4c 0 0", "0 0 0 2", "0 0 2 0"],
        (2, (1, 1, 0), "the rank-two block must be indefinite"),
        "0123 1023 0132 1032",
        {
            "1000": (["4c"], ["1 2a 0 0", "0 2b 0 0 t0", "0 0 1 0", "0 0 0 1"]),
            "1100": (["4a-4b+4c"], ["1 2a 0 0", "1 2b-2a 0 0 t0", "0 0 1 0", "0 0 0 1"],
                     ("b", 0)),
            "1010": (["4c"], ["1 2a 0 -a", "0 2b 0 -b t0", "1 0 1 0", "0 0 0 1"]),
            "0010": (["4a 0 0", "0 4c 0", "0 0 -8"],
                     ["0 0 1 0 t0", "0 0 0 b t1", "1 0 0 0", "2 2 0 0 t2"]),
            "0011": (["4a 0 0", "0 4c 0", "0 0 -4"],
                     ["0 0 1 0 t0", "0 0 0 b t1", "1 0 0 0", "1 2 0 0 t2"]),
            "1110": (["4a-4b+4c"], ["1 2a 0 -a", "1 2b-2a 0 a-b t0", "1 0 1 0", "0 0 0 1"],
                     ("b", 0)),
            "1011": (["4c 0", "0 -4"],
                     ["1 2a 0 -a", "0 2b 0 -b t0", "1 0 1 0", "1 0 1 1 t1"]),
            "1111": (["4a-4b+4c 0", "0 -4"],
                     ["1 2a 0 -a", "1 2b-2a 0 a-b t0", "1 0 1 0", "1 0 1 1 t1"], ("b", 0)),
        },
    ),
    17: _Family(
        "m", ["0 2 0 0 0", "2 0 0 0 0", "0 0 0 2 0", "0 0 2 0 0", "0 0 0 0 -4m"],
        (5, (2, 3, 0), "the last parameter must be a positive multiple of four over four"),
        "01234 01324 10234 10324 23014 23104 32014 32104",
        {
            "10000": (["-8 0", "0 -4m"],
                      ["1 0 0 0", "2 2 0 0 t0", "0 0 1 0", "0 0 0 1", "0 0 0 0 t1"]),
            "11000": (["-4 0", "0 -4m"],
                      ["1 0 0 0", "1 2 0 0 t0", "0 0 1 0", "0 0 0 1", "0 0 0 0 t1"]),
            "10001": (["-8 -2", "-2 -4m"],
                      ["1 0 0 0", "2 2 0 0 t0", "0 0 1 0", "0 0 0 1", "1 0 0 0 t1"]),
            "11001": (["-4 -2", "-2 -4m"],
                      ["1 0 0 0", "1 2 0 0 t0", "0 0 1 0", "0 0 0 1", "1 0 0 0 t1"]),
            "00001": (["-8 -6 -2", "-6 -8 -2", "-2 -2 -4m"],
                      ["2 2 0 0 t0", "2 2 0 0 t1", "0 0 1 0", "0 0 0 1", "1 0 0 0 t2"]),
            "11110": (["-4 0 0", "0 -4 0", "0 0 -4m"],
                      ["1 0 0 0", "1 2 0 1 t0", "1 0 -1 0", "1 0 -1 -1 t1", "0 0 0 0 t2"]),
            "11111": (["-4 0 -2", "0 -4 0", "-2 0 -4m"],
                      ["1 0 0 0", "1 2 0 1 t0", "1 0 -1 0", "1 0 -1 -1 t1", "1 0 0 0 t2"]),
            "10100": (["-8 0", "0 -4m"],
                      ["1 0 0 0", "2 2 0 1 t0", "1 0 -1 0", "0 0 0 -1", "0 0 0 0 t1"]),
            "11100": (["-4 0", "0 -4m"],
                      ["1 0 0 0", "1 2 0 1 t0", "1 0 -1 0", "0 0 0 -1", "0 0 0 0 t1"]),
            "11101": (["-4 -2", "-2 -4m"],
                      ["1 0 0 0", "1 2 0 1 t0", "1 0 -1 0", "0 0 0 -1", "1 0 0 0 t1"]),
            "10101": (["-8 -2", "-2 -4m"],
                      ["1 0 0 0", "2 2 0 1 t0", "1 0 -1 0", "0 0 0 -1", "1 0 0 0 t1"]),
        },
    ),
}


def _family(rho):
    if rho not in _FAMILIES:
        raise BadParams("no table family for rank invariant %s" % (rho,))
    return _FAMILIES[rho]


def t_gram(rho, params):
    """Gram matrix of the small lattice attached to each table family."""
    fam = _family(rho)
    if len(params) != len(fam.names):
        raise BadParams("rank invariant %s takes %d parameters" % (rho, len(fam.names)))
    return fam.gram(params)


def _candidates(fam, template, params):
    """Image rows of one template at these parameters, one list per tuple
    of the definite scaled piece, lazily."""
    tgram, rows, sign = template
    flip = sign is not None and params[sign[0]] < 0
    if flip:
        r = sign[1]
        g = fam.gram(params)
        params = fam.params([[-x if (i == r) != (j == r) else x for j, x in enumerate(row)]
                             for i, row in enumerate(g)])
    heads = [([_value(f, params) for f in coeffs], slot) for coeffs, slot in rows]
    tuples = [()]
    if tgram:
        tuples = iter_tuples_in_e82([[_value(f, params) for f in row] for row in tgram])
    for tup in tuples:
        images = [head + (list(tup[slot]) if slot is not None else [0] * 8)
                  for head, slot in heads]
        if flip:
            images[r] = [-x for x in images[r]]
        yield images


# candidate tuples embedding_for_label tries per label permutation
ATTEMPT_CAP = 200

# (rho, params) -> (source Lattice, ((permutation, permuted params), ...))
# of the last few parameter sets that passed the check
_PREPARED = {}
_PREPARED_KEPT = 16


def _prepared(fam, rho, params):
    key = (rho, params)
    got = _PREPARED.get(key)
    if got is None:
        g = t_gram(rho, params)
        if rational_signature([row[:fam.block] for row in g[:fam.block]]) != fam.signature:
            raise BadParams(fam.message)
        perms = tuple((sigma, fam.params([[g[s][t] for t in sigma] for s in sigma]))
                      for sigma in fam.perms)
        if len(_PREPARED) >= _PREPARED_KEPT:
            del _PREPARED[next(iter(_PREPARED))]
        got = _PREPARED[key] = (Lattice(g), perms)
    return got


def embedding_for_label(rho, params, label):
    """Primitive embedding with prescribed parity label from the tables.

    Each permutation tries at most ATTEMPT_CAP candidates. NotFound means
    every permutation ran out of candidates; CapExceeded means none
    succeeded and at least one stopped at the cap.
    """
    fam = _family(rho)
    source, perms = _prepared(fam, rho, tuple(int(x) for x in params))
    label = tuple(int(x) % 2 for x in label)
    if len(label) != source.rank:
        raise BadShape("label must have length %d" % source.rank)
    if not any(label):
        raise NotFound("the tables cover nonzero labels only")
    spent = 0
    capped = False
    for sigma, sigma_params in perms:
        template = fam.templates.get(tuple(label[s] for s in sigma))
        if template is None:
            continue
        attempts = 0
        for rows in _candidates(fam, template, sigma_params):
            attempts += 1
            if attempts > ATTEMPT_CAP:
                capped = True
                break
            images = [None] * len(label)
            for i, s in enumerate(sigma):
                images[s] = rows[i]
            try:
                emb = embedding_from_images(source, images)
            except NotPrimitive:
                continue
            assert emb.label == label
            return emb
        spent += attempts
    if capped:
        raise CapExceeded("label search drew %d candidates, over its cap of %d per permutation"
                          % (spent, ATTEMPT_CAP))
    raise NotFound("no table entry produced a valid embedding for %s" % (label,))


def character_upper_bound(gram):
    """Characters of the mod-2 reduction vanishing on every residue class
    whose self-pairing is 2 mod 4."""
    _check_gram(gram)
    n = len(gram)
    if n > 20:
        raise RankTooLarge("rank %d exceeds the enumeration bound" % n)
    from itertools import product as iproduct

    constraints = []
    for v in iproduct((0, 1), repeat=n):
        if not any(v):
            continue
        norm = sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))
        if norm % 4 == 2:
            constraints.append(v)
    out = []
    for alpha in iproduct((0, 1), repeat=n):
        if all(sum(a * b for a, b in zip(alpha, v)) % 2 == 0 for v in constraints):
            out.append(alpha)
    return sorted(out)


def realized_characters(rho, params):
    """Labels the tables actually produce, as a subset of all characters.

    The zero character is always included; each nonzero label is kept when
    its table construction succeeds and validates, and left out when its
    search runs out (NotFound) or stops at a cap (CapExceeded). Parameters
    the tables refuse raise BadParams.
    """
    width = len(_family(rho).gram_forms)
    from itertools import product as iproduct

    out = [(0,) * width]
    for label in iproduct((0, 1), repeat=width):
        if not any(label):
            continue
        try:
            embedding_for_label(rho, params, label)
        except (NotFound, CapExceeded):
            continue
        out.append(label)
    return sorted(out)


def suggest_params(rho, seed, count=3):
    """Deterministic parameter sets accepted by the tables."""
    import random

    rng = random.Random(seed)
    out = []
    seen = set()
    if rho == 20:
        while len(out) < count:
            a, c = rng.randint(1, 6), rng.randint(1, 6)
            b = rng.randint(-4, 4)
            if 4 * a * c - b * b <= 0:
                continue
            p = (a, b, c)
            if p not in seen:
                seen.add(p)
                out.append(p)
        return out
    if rho == 19:
        tries = 0
        while len(out) < count and tries < 20000:
            tries += 1
            a, b, c = (rng.randint(-5, -1) for _ in range(3))
            d, l, m = (rng.randint(-9, 9) for _ in range(3))
            p = (a, d, l, b, m, c)
            if rational_signature(t_gram(19, p)) != (2, 1, 0):
                continue
            if p not in seen:
                seen.add(p)
                out.append(p)
        base = (-1, -4, -4, -3, -8, -3)
        while len(out) < count:
            p = _conjugated_params(base, rng)
            if p not in seen:
                seen.add(p)
                out.append(p)
        return out
    if rho == 18:
        while len(out) < count:
            a, c = rng.randint(-5, -1), rng.randint(-5, -1)
            b = rng.randint(1, 9)
            p = (a, b, c)
            top = [[4 * a, 2 * b], [2 * b, 4 * c]]
            if rational_signature(top) != (1, 1, 0):
                continue
            if p not in seen:
                seen.add(p)
                out.append(p)
        return out
    if rho == 17:
        m = 1 + (seed % 2)
        while len(out) < count:
            out.append((m,))
            m += 1
        return out
    raise BadParams("no table family for rank invariant %s" % (rho,))


def _conjugated_params(base, rng):
    g = t_gram(19, base)
    n = 3
    for _ in range(50):
        p = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(rng.randint(1, 3)):
            i, j = rng.sample(range(n), 2)
            c = rng.choice([-1, 1])
            for col in range(n):
                p[i][col] += c * p[j][col]
        new = gram_of_rows(p, g)
        if all(abs(x) <= 40 for row in new for x in row):
            return _FAMILIES[19].params(new)
    return _FAMILIES[19].params(g)
