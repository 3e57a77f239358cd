"""Primitive embeddings into the rank-12 ambient lattice, by explicit tables.

The tables are data, read by one interpreter (`_candidates`). There is one
family per rank invariant rho = 17..20. A family names its parameters and
gives the source gram, the check on the parameters (the signature wanted of
the leading block of the gram), the ranges `suggest_params` draws the
parameters from ("a 1 6, b -4 4": a from 1..6, then b from -4..4; rho = 17
draws none), the basis permutations the label search tries in turn, and one
template per tabulated parity label; every other nonzero label is reached
through a permutation.

A template is (tuple gram, image rows[, sign rule]). The tuple gram asks
`iter_tuples_in_e82` for vectors t0, t1, ... of the definite scaled piece
E8(2) with those pairings, drawn from the shells the lattice layer's norm
enumeration (`lattice.vectors_of_norm`) lists, kept per norm. An image row
"e f h k [ti]" gives the coefficients of the first four ambient basis
vectors and, when present, ti as the last eight coordinates. Every entry is
a linear form in the parameters, such as "2b-2a", parsed once at import, and
a constant one is folded there: a candidate evaluates only the others. A
sign rule (p, r) covers p < 0: the template is built for the gram with
basis vector r negated, where p is positive, and image r is negated back;
-v has the parity of v, so the label is kept. Construction always ends in
full validation, so a table can only produce correct embeddings.
"""
import math
import random
import re
from dataclasses import dataclass, field
from itertools import product
from operator import mul

from ._store import Store
from .enriques import ambient, epsilon
from .errors import (
    BadParams,
    BadShape,
    CapExceeded,
    DependentVectors,
    GramMismatch,
    NotFound,
    NotPrimitive,
    RankTooLarge,
)
from .lattice import (
    Lattice,
    _check_gram,
    _check_int_matrix,
    _int,
    _complement,
    _gram_from,
    _products,
    orthogonal_complement,
    rational_signature,
    standard_lattice,
    vectors_of_norm,
)
from .intmat import snf_diagonal


# enumeration is skipped for norms past this; the frame path covers them
_ENUM_NORM_BOUND = 24

# the most squares one frame coordinate is split into, the most frame tuples
# tried, and the most search nodes iter_tuples_in_e82 visits
_MAX_SQUARES = 8
_FRAME_TUPLE_LIMIT = 200
TUPLE_NODE_CAP = 500_000

# norm -> the vectors of E8(2) of that norm, in vectors_of_norm's order, as
# tuples. A function of the norm alone (E8(2) is fixed). The tuple search
# asks only for norms of absolute value at most _ENUM_NORM_BOUND, so the
# bound holds every shell it asks for and none is dropped and rebuilt.
_E82_CACHE = Store(2 * _ENUM_NORM_BOUND + 1)


def _e82_vectors(norm):
    # Tuples, not lists: a tuple of ints leaves the cyclic collector's
    # tracked set after one pass, so the ~9,100 kept vectors are not
    # walked again by every full collection. Each list is replaced in
    # place, so the lists and the tuples are never all alive at once.
    got = _E82_CACHE.lookup(norm)
    if got is None:
        vecs = vectors_of_norm(standard_lattice("E82"), norm)
        for i, v in enumerate(vecs):
            vecs[i] = tuple(v)
        got = _E82_CACHE.keep(norm, tuple(vecs))
    return got


# Eight mutually orthogonal vectors of norm -4 of E8(2), fixed: the first
# eight a depth-first search over the norm -4 shell, in vectors_of_norm's
# order, picks.
_FRAME = (
    (1, 0, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0),
    (1, 1, 2, 2, 1, 0, 0, 0),
    (1, 1, 2, 2, 2, 2, 1, 0),
    (1, 2, 2, 4, 3, 2, 1, 0),
    (2, 3, 4, 6, 5, 4, 3, 2),
)


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
    reprs = [_square_decomps(n)[:6] for n in needs]
    if any(not r for r in reprs):
        return
    count = 0
    for shift in range(8):
        for combo in product(*reprs):
            # the reps lie side by side from frame slot `shift` on
            if shift + sum(map(len, combo)) > 8:
                continue
            rows = []
            off = shift
            for rep in combo:
                row = [0] * 8
                for j, coeff in enumerate(rep):
                    for c in range(8):
                        row[c] += coeff * _FRAME[off + j][c]
                rows.append(tuple(row))
                off += len(rep)
            yield tuple(rows)
            count += 1
            if count >= _FRAME_TUPLE_LIMIT:
                return


# gram (as a tuple of rows) -> (finished, the first tuples iter_tuples_in_e82
# has yielded for it, at most ATTEMPT_CAP + 1: what one label permutation
# reads), finished once those are all the search yields. The search
# reads the gram and fixed data only: E8(2), _FRAME, the vectors of
# _E82_CACHE and this module's limits. Nested tuples of ints, which the
# cyclic collector stops tracking, and never a suspended search. A lookup
# that finds an unfinished entry counts as a hit, though the search may
# run again past it.
_TUPLES = Store(256)


def iter_tuples_in_e82(gram):
    """Yield tuples of vectors of the definite scaled piece with the given
    mutual pairings that span a primitive sublattice, deterministically
    ordered.

    The first ATTEMPT_CAP + 1 tuples yielded are kept per gram in the store
    `_TUPLES` (the 256 latest grams) and replayed on the next call; a caller
    that reads past them reruns the search, skips what is kept and keeps up
    to that bound once it stops reading. The search is deterministic, so
    every call yields what a fresh search yields, CapExceeded included.
    """
    key = tuple(map(tuple, gram))
    finished, kept = _TUPLES.lookup(key) or (False, ())
    yield from kept
    if finished:
        return
    grown, n = list(kept), 0  # n counts the tuples of the search
    try:
        for n, rows in enumerate(_search_tuples(key), 1):
            if n > len(kept):
                if n <= ATTEMPT_CAP + 1:
                    grown.append(rows)
                yield rows
        finished = n <= ATTEMPT_CAP + 1
    finally:
        # another call may have kept more of the same sequence meanwhile
        if finished or len(grown) > len(_TUPLES.get(key, (False, ()))[1]):
            _TUPLES.keep(key, (finished, tuple(grown)))


def _search_tuples(gram):
    e82 = standard_lattice("E82").gram
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
    # sublattice, so the search descends only into primitive prefixes. Each
    # chosen y comes with G y, so a shell vector pairs with y by one dot product
    def dfs(chosen, gys):
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
            if (all(sum(map(mul, cand, gy)) == w for gy, w in zip(gys, gram[pos]))
                    and keep(chosen + [cand])):
                yield from dfs(chosen + [cand], gys + [[sum(map(mul, r, cand)) for r in e82]])

    yield from dfs([], [])


@dataclass(frozen=True)
class PrimitiveEmbedding:
    """Primitive embedding of source into ambient by basis images.

    embedding_from_images also keeps the products images * G it checked
    the source's gram S with, so that `embedding_complement` reads S's det
    and signature off the source and takes no second product; equality,
    hash and repr ignore them.
    """
    source: Lattice
    images: tuple
    ambient: Lattice
    _prods: tuple = field(default=(), compare=False, repr=False)

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
    prods, pairs = _products(nlat, rows)
    got = _gram_from(prods, pairs)
    want = [list(r) for r in source.gram]
    if got != want:
        raise GramMismatch("images have pairings %s, expected %s" % (got, want))
    index = math.prod(diag)
    if index != 1:
        raise NotPrimitive(index)
    return PrimitiveEmbedding(source, tuple(tuple(r) for r in rows), nlat,
                              tuple(map(tuple, prods)))


def embedding_complement(emb):
    """(basis_rows, Lattice) of the orthogonal complement of the images.

    S = images * G * images^T is the gram of emb.source, so its det and
    signature are the source's and the kept products give the kernel: no
    second product and no elimination of S. With no kept products (a
    rank-0 source, or an embedding not built by embedding_from_images) it
    is `orthogonal_complement`'s.
    """
    if not emb._prods:
        return orthogonal_complement(emb.ambient, [list(r) for r in emb.images])
    return _complement(emb.ambient, emb._prods, emb.source.det, emb.source.signature)


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


def _folded(forms):
    # a row of forms as (the tuple of its constants, 0 where a form has a
    # parameter term; the (index, form) pairs of those that have one)
    return (tuple(0 if any(f[1:]) else f[0] for f in forms),
            [(i, f) for i, f in enumerate(forms) if any(f[1:])])


def _unfolded(row, forms, params):
    # a _folded row at these parameters: a constant row is its kept tuple
    if forms:
        row = list(row)
        for i, f in forms:
            row[i] = _value(f, params)
    return row


class _Family:
    """The table family of one rank invariant, parsed once from its spec:
    parameter names, source gram, check (block size, signature wanted of
    the leading block, message), draw ranges ("name low high", comma
    separated, in draw order), permutations and templates."""

    def __init__(self, names, gram, check, draws, perms, templates):
        self.names = names.split()
        self.gram_forms = self._matrix(gram)
        self.block, self.signature, self.message = check
        self.draws = [(self.names.index(name), int(low), int(high))
                      for name, low, high in map(str.split, filter(None, draws.split(",")))]
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
            images.append((*_folded([_form(x, self.names) for x in head[:4]]), slot))
        if sign is not None:
            sign = (self.names.index(sign[0]), sign[1])
        return list(map(_folded, self._matrix(tgram))), images, sign

    def gram(self, params):
        return [[_value(f, params) for f in row] for row in self.gram_forms]

    def params(self, gram):
        return tuple(gram[i][j] // k for i, j, k in self.read)

    def accepts(self, gram):
        """Whether the leading block of the gram has the wanted signature."""
        b = self.block
        return rational_signature([row[:b] for row in gram[:b]]) == self.signature


# The tables; the module docstring describes the format.
_FAMILIES = {
    20: _Family(
        "a b c", ["4a 2b", "2b 4c"],
        (2, (2, 0, 0), "the rank-two block must be positive definite"),
        "a 1 6, c 1 6, b -4 4",
        "01 10",
        {
            "10": ([], ["1 2a 0 0", "0 2b 1 c"]),
            "11": ([], ["1 2a 0 0", "1 2b-2a 1 c-b+a"]),
        },
    ),
    19: _Family(
        "a d l b m c", ["4a 2d 2l", "2d 4b 2m", "2l 2m 4c"],
        (3, (2, 1, 0), "parameters must give signature (2, 1)"),
        "a -5 -1, b -5 -1, c -5 -1, d -9 9, l -9 9, m -9 9",
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
        "a -5 -1, c -5 -1, b 1 9",
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
        "",
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
    if _int(rho, "rho") not in _FAMILIES:
        raise BadParams("no table family for rank invariant %s" % (rho,))
    return _FAMILIES[rho]


def t_gram(rho, params):
    """Gram matrix of the small lattice attached to each table family; a
    parameter that is not an int is malformed: BadShape."""
    fam = _family(rho)
    if len(params) != len(fam.names):
        raise BadParams("rank invariant %s takes %d parameters" % (rho, len(fam.names)))
    return fam.gram([_int(x, "params") for x in params])


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
    heads = [(_unfolded(head, forms, params), slot) for head, forms, slot in rows]
    tuples = [()]
    if tgram:
        tuples = iter_tuples_in_e82([_unfolded(*row, params) for row in tgram])
    for tup in tuples:
        images = [[*head, *(tup[slot] if slot is not None else (0,) * 8)]
                  for head, slot in heads]
        if flip:
            images[r] = [-x for x in images[r]]
        yield images


# candidate tuples embedding_for_label tries per label permutation
ATTEMPT_CAP = 200

# (rho, params) -> (source Lattice, ((permutation, permuted params), ...))
# of the last 16 parameter sets that passed the check. A function of rho and
# params alone: the family of rho is fixed data.
_PREPARED = Store(16)


def _prepared(fam, rho, params):
    key = (rho, params)
    got = _PREPARED.lookup(key)
    if got is None:
        g = t_gram(rho, params)
        if not fam.accepts(g):
            raise BadParams(fam.message)
        perms = tuple((sigma, fam.params([[g[s][t] for t in sigma] for s in sigma]))
                      for sigma in fam.perms)
        got = _PREPARED.keep(key, (Lattice(g), perms))
    return got


def embedding_for_label(rho, params, label):
    """Primitive embedding with prescribed parity label from the tables.

    Each permutation tries at most ATTEMPT_CAP candidates. NotFound means
    every permutation ran out of candidates; CapExceeded means none
    succeeded and at least one stopped at the cap. A parameter or label
    entry that is not an int is malformed: BadShape.
    """
    fam = _family(rho)
    source, perms = _prepared(fam, rho, tuple(_int(x, "params") for x in params))
    label = tuple(_int(x, "label") % 2 for x in label)
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
    constraints = []
    for v in product((0, 1), repeat=n):
        if not any(v):
            continue
        norm = sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))
        if norm % 4 == 2:
            constraints.append(v)
    out = []
    for alpha in product((0, 1), repeat=n):
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
    out = [(0,) * width]
    for label in product((0, 1), repeat=width):
        if not any(label):
            continue
        try:
            embedding_for_label(rho, params, label)
        except (NotFound, CapExceeded):
            continue
        out.append(label)
    return sorted(out)


# the most parameter sets suggest_params draws for one call
PARAM_DRAW_CAP = 20_000


def suggest_params(rho, seed, count=3):
    """Deterministic parameter sets accepted by the tables.

    Each parameter is drawn from its family's range, in spec order, with
    random.Random(seed); a set is kept when it is new and the family's check
    accepts its gram. After PARAM_DRAW_CAP draws short of `count` sets,
    CapExceeded names the draws spent and the sets kept: the ranges hold 98
    accepted sets for rho = 18 and 300 for rho = 20. rho = 17 draws nothing:
    m counts up from 1 + seed % 2. A rho, seed or count that is not an int,
    or a negative count, is a BadShape.
    """
    fam = _family(rho)
    _int(seed, "seed")
    if _int(count, "count") < 0:
        raise BadShape("count: %r is negative" % (count,))
    if not fam.draws:
        start = 1 + seed % 2
        return [(m,) for m in range(start, start + count)]
    rng = random.Random(seed)
    out = []
    seen = set()
    drawn = 0
    while len(out) < count:
        if drawn == PARAM_DRAW_CAP:
            raise CapExceeded(
                "parameter search spent %d draws and kept %d of the %d sets asked,"
                " over its cap of %d" % (drawn, len(out), count, PARAM_DRAW_CAP))
        drawn += 1
        p = [0] * len(fam.names)
        for k, low, high in fam.draws:
            p[k] = rng.randint(low, high)
        p = tuple(p)
        if p not in seen and fam.accepts(fam.gram(p)):
            seen.add(p)
            out.append(p)
    return out
