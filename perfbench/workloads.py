"""The three workloads: seeded inputs and the fixed list of operations.

`INPUTS[workload](seed, rounds)` builds plain-int inputs from the seed
without touching enrlat. `OPS[workload](inputs, modules)` turns them into a
`Plan`: a list of `Op`s that call enrlat through module attributes, so the
tracer's wrappers see every call. Each `Op` has a `check` that compares the
result with `oracles`; `Plan.after` holds checks that span several
operations and run once all are done.

A run is a whole number of rounds of a workload's list, one round per
`ROUND_NOMINAL_S` nominal seconds of `--seconds` (at least one).
"""

import random
from dataclasses import dataclass, field
from itertools import product

import oracles as orc

# Nominal (speed-normalised) seconds of one round of each workload.
ROUND_NOMINAL_S = {"tables": 1.5, "gluing": 30.0, "enumerate": 3.6}


class MissingInput(Exception):
    """An operation's input comes from an earlier operation that failed."""


@dataclass
class Op:
    kind: str
    run: object
    check: object
    expect_failure: bool = False


@dataclass
class Plan:
    ops: list
    after: list = field(default_factory=list)


def rounds_for(workload, seconds):
    return max(1, round(seconds / ROUND_NOMINAL_S[workload]))


# ================================================================= tables

LABEL_LENGTH = {20: 2, 19: 3, 18: 4, 17: 5}


def t_gram(rho, p):
    """The small lattice of each table family, from the paper's shapes."""
    if rho == 20:
        a, b, c = p
        return [[4 * a, 2 * b], [2 * b, 4 * c]]
    if rho == 19:
        a, d, l, b, m, c = p
        return [[4 * a, 2 * d, 2 * l], [2 * d, 4 * b, 2 * m], [2 * l, 2 * m, 4 * c]]
    if rho == 18:
        a, b, c = p
        return [[4 * a, 2 * b, 0, 0], [2 * b, 4 * c, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]]
    (m,) = p
    g = [[0] * 5 for _ in range(5)]
    g[0][1] = g[1][0] = g[2][3] = g[3][2] = 2
    g[4][4] = -4 * m
    return g


def _params20(rng):
    while True:
        a, b, c = rng.randint(1, 6), rng.randint(-4, 4), rng.randint(1, 6)
        if 4 * a * c - b * b > 0:
            return (a, b, c)


def _params19(rng):
    while True:
        a, b, c = (rng.randint(-5, -1) for _ in range(3))
        d, l, m = (rng.randint(-9, 9) for _ in range(3))
        p = (a, d, l, b, m, c)
        g = t_gram(19, p)
        if orc.det_int(g) != 0 and orc.inertia(g) == (2, 1):
            return p


def _params18(rng):
    # a, c = -4 and -5 are left out: there the tuple search for label
    # (0, 0, 0, 1) runs out of budget (CapExceeded) on some b.
    while True:
        a, b, c = rng.randint(-3, -1), rng.randint(1, 9), rng.randint(-3, -1)
        if b * b > 4 * a * c:
            return (a, b, c)


def tables_inputs(seed, rounds):
    rng = random.Random(seed)
    ms = [1, 2, 3]
    rng.shuffle(ms)
    return [
        {20: _params20(rng), 19: _params19(rng), 18: _params18(rng), 17: (ms[r % 3],)}
        for r in range(rounds)
    ]


def tables_ops(inputs, mods):
    emb_mod = mods["embeddings"]
    ops = []
    realized = {}

    def label_op(r, rho, params, label):
        want = t_gram(rho, params)
        k = len(label)

        def run():
            emb = emb_mod.embedding_for_label(rho, params, label)
            basis, comp = emb_mod.embedding_complement(emb)
            return emb, basis, comp

        def check(res):
            emb, basis, comp = res
            images = [list(x) for x in emb.images]
            ok = (
                orc.gram_of(images, orc.N_GRAM) == want
                and orc.parity_label(images) == label
                and orc.maximal_minor_gcd(images) == 1
                and len(basis) == 12 - k
                and all(orc.pairing(b, orc.N_GRAM, x) == 0 for b in basis for x in images)
                and orc.maximal_minor_gcd(basis) == 1
            )
            if not ok:
                return False
            cg = orc.gram_of(basis, orc.N_GRAM)
            if [list(x) for x in comp.gram] != cg or not orc.is_twice_even(cg):
                return False
            if orc.det_int(cg) == 0:
                return False
            realized.setdefault((r, rho), set()).add(label)
            return True

        return Op("label%d" % rho, run, check)

    def bound_op(rho, params):
        g = t_gram(rho, params)
        return Op(
            "bound%d" % rho,
            lambda: emb_mod.character_upper_bound(g),
            lambda res: [tuple(x) for x in res] == orc.character_bound(g),
        )

    for r, sets in enumerate(inputs):
        for rho in (20, 19, 18, 17):
            params = sets[rho]
            ops.append(bound_op(rho, params))
            for label in product((0, 1), repeat=LABEL_LENGTH[rho]):
                if any(label):
                    ops.append(label_op(r, rho, params, label))

    def all_labels_realized():
        return all(
            len(realized.get((r, rho), ())) == orc.PUBLISHED_LABEL_COUNTS[rho]
            for r in range(len(inputs)) for rho in (20, 19, 18, 17)
        )

    return Plan(ops, [all_labels_realized])


# ================================================================= gluing

def _embed_rank1(s, k):
    """[[2sk]] inside N via e + s k f."""
    return [[2 * s * k]], [[1, s * k] + [0] * 10]


def _embed_rank2(a, b, c):
    """[[4a, 2b], [2b, 4c]] inside N via e + 2a f and 2b f + h + c k."""
    return (
        [[4 * a, 2 * b], [2 * b, 4 * c]],
        [[1, 2 * a] + [0] * 10, [0, 2 * b, 1, c] + [0] * 8],
    )


def _checked_embedding(gram, rows):
    if orc.gram_of(rows, orc.N_GRAM) != gram or orc.maximal_minor_gcd(rows) != 1:
        raise AssertionError("benchmark input %s has no primitive embedding" % (gram,))
    return gram


# Each round's gluing inputs come from fixed isometry classes, so every seed
# does the same amount of group work; the seed picks signs and Gram shapes.
# Descent cases: [[+-4]] and a det-16 form [[4a, 2b], [2b, 4c]] (4ac - b^2 = 4,
# all isometric to [[4, 0], [0, 4]]). Their index-3 children have
# |K| = 36,864, inside fqf._q_fingerprint's whole-group walk.
DET16_SHAPES = ((1, 0, 1), (1, 2, 2), (2, 2, 1), (1, -2, 2), (2, -2, 1))
# Datum cases without descent: six det-12 forms (4ac - b^2 = 3) and six
# det-28 forms (4ac - b^2 = 7) per round, shapes drawn by the seed.
DATUM_CLASSES = (((1, 1, 1), (1, -1, 1)), ((1, 1, 2), (1, -1, 2), (2, 1, 1), (2, -1, 1)))
DATUM_CASES_PER_CLASS = 6
CHAIN_GRAM = [[4, 0], [0, 4]]
CHAIN_PRIMES = (3, 5, 7)


def gluing_inputs(seed, rounds):
    rng = random.Random(seed)
    out = []
    for _ in range(rounds):
        descent = [
            _checked_embedding(*_embed_rank1(rng.choice((1, -1)), 2)),
            _checked_embedding(*_embed_rank2(*rng.choice(DET16_SHAPES))),
        ]
        datum = [
            _checked_embedding(*_embed_rank2(*rng.choice(shapes)))
            for shapes in DATUM_CLASSES for _ in range(DATUM_CASES_PER_CLASS)
        ]
        rng.shuffle(datum)
        out.append({"descent": descent, "datum": datum})
    return out


def _smallest_admissible_prime(det):
    p = 3
    while (2 * det) % p == 0 or any(p % q == 0 for q in range(3, p) if q * q <= p):
        p += 2
    return p


def gluing_ops(inputs, mods):
    lat_mod, fqf_mod, nik = mods["lattice"], mods["fqf"], mods["nikulin"]
    ops = []

    def need(state, key):
        if key not in state:
            raise MissingInput(key)
        return state[key]

    def datum_ok(gram, datum):
        """Rank, signature and |K| = |det L| 2^10 / |H|^2, counted here."""
        pos, neg = orc.inertia(gram)
        orders = orc.invariant_factors_rank_le2(gram)
        h = orc.span_size([tuple(x) for x in datum.h_l], orders)
        want_k = abs(orc.det_int(gram)) * 1024 // (h * h)
        return (
            datum.k_rank == 12 - len(gram)
            and tuple(datum.k_signature) == (2 - pos, 10 - neg)
            and orc.form_order(datum.k_fqf) == want_k
        )

    def datum_ops(gram, state):
        pos, neg = orc.inertia(gram)

        def find():
            lat = lat_mod.Lattice(gram)
            form = fqf_mod.discriminant_form(lat)
            exists = (nik.exists_even_lattice((pos, neg), form),
                      nik.exists_even_lattice((pos + 1, neg), form))
            state["lat"] = lat
            state["datum"] = nik.find_embedding_datum(lat)
            return exists, state["datum"]

        # The lattice realizes its own invariants; by Milgram's theorem
        # sig(q) = pos - neg mod 8, so the shifted signature cannot occur.
        return [
            Op("find", find, lambda res: res[0] == (True, False) and datum_ok(gram, res[1])),
            Op("verify", lambda: nik.verify_embedding_datum(need(state, "lat"), need(state, "datum")),
               lambda res: res[0] is True),
        ]

    def descent_ops(gram, state):
        p = _smallest_admissible_prime(abs(orc.det_int(gram)))

        def sublattice():
            child, rows = nik.index_p_sublattice(need(state, "lat"), p)
            star = nik.condition_star(state["lat"], child)
            state["child"], state["rows"] = child, rows
            return child, rows, star

        def check_sub(res):
            child, rows, star = res
            want = orc.gram_of(rows, gram)
            return (
                [list(x) for x in child.gram] == want
                and abs(orc.det_int(want)) == abs(orc.det_int(gram)) * p * p
                and star.verdict and star.index == p
            )

        def down():
            state["down"] = nik.transfer_datum_down(
                state["lat"], need(state, "child"), need(state, "datum"), state["rows"])
            return state["down"]

        def verify_child():
            return nik.verify_embedding_datum(need(state, "child"), need(state, "down"))

        def up():
            state["up"] = nik.transfer_datum_up(
                state["lat"], state["child"], need(state, "down"), state["rows"])
            return state["up"]

        def round_trip():
            return fqf_mod.fqf_isomorphic(need(state, "up").k_fqf, state["datum"].k_fqf)

        def same_shape(d):
            base = state["datum"]
            return d.k_rank == base.k_rank and d.k_signature == base.k_signature

        return [
            Op("sublattice", sublattice, check_sub),
            Op("down", down, lambda d: same_shape(d) and orc.form_order(d.k_fqf)
               == orc.form_order(state["datum"].k_fqf) * p * p),
            Op("verify_child", verify_child, lambda res: res[0] is True),
            Op("up", up, lambda d: same_shape(d) and orc.form_order(d.k_fqf)
               == orc.form_order(state["datum"].k_fqf)),
            Op("round_trip", round_trip, lambda images: images is not None
               and orc.is_form_isomorphism(state["up"].k_fqf, state["datum"].k_fqf, images)),
        ]

    def chain_ops(state):
        def find():
            state["cur"] = lat_mod.Lattice(CHAIN_GRAM)
            state["datum"] = nik.find_embedding_datum(state["cur"])
            state["gram"] = CHAIN_GRAM
            return state["datum"]

        def step(p):
            def run():
                cur, datum = need(state, "cur"), need(state, "datum")
                child, rows = nik.index_p_sublattice(cur, p)
                state.pop("datum")
                down = nik.transfer_datum_down(cur, child, datum, rows)
                state["gram"] = orc.gram_of(rows, state["gram"])
                state["cur"], state["datum"] = child, down
                state["before"] = datum
                return down

            def check(down):
                return (
                    [list(x) for x in state["cur"].gram] == state["gram"]
                    and orc.form_order(down.k_fqf) == orc.form_order(state["before"].k_fqf) * p * p
                )

            # the step at 7 meets fqf.milgram_signature's group-order cap
            return Op("chain%d" % p, run, check, expect_failure=(p == 7))

        return [Op("chain_find", find, lambda d: datum_ok(CHAIN_GRAM, d))] + [
            step(p) for p in CHAIN_PRIMES
        ]

    for rnd in inputs:
        ops.extend(chain_ops({}))
        for gram in rnd["descent"]:
            state = {}
            ops.extend(datum_ops(gram, state))
            ops.extend(descent_ops(gram, state))
        for gram in rnd["datum"]:
            ops.extend(datum_ops(gram, {}))
    return Plan(ops)


# ================================================================= enumerate

FIXED_ENUMERATIONS = (
    ("E8", 1, (-2, -4, -6)),
    ("E8(2)", 2, (-2, -4, -8, -12)),
)
ROOT_LATTICES = [("A", n) for n in range(2, 9)] + [("D", n) for n in range(4, 9)] + [
    ("E", 6), ("E", 7)]
RANDOM_LATTICES = 2
RANDOM_NORMS = (-2, -4)
BOX_POINT_CAP = 300_000
# E8 at -2 and E8(2) at -4, each this many times a round in a seeded basis
# (four elementary row operations); they are the bulk of the operations,
# so the median operation is an E8-sized minimal-vector enumeration.
REBASED_E8 = 15
REBASE_STEPS = 4


def _rebased(gram, rng):
    """U G U^T for a seeded unimodular U, a product of elementary row
    operations with coefficient +-1."""
    n = len(gram)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(REBASE_STEPS):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        u[i] = [a + s * b for a, b in zip(u[i], u[j])]
    return [[orc.pairing(a, gram, b) for b in u] for a in u]


def _random_definite_gram(rng):
    """-2 R R^T for a seeded lower-triangular R of rank 2..8 (diagonal 1 or
    2, entries below it -1, 0, 1) with a small box."""
    while True:
        r = rng.randint(2, 8)
        rows = [[0] * r for _ in range(r)]
        for i in range(r):
            rows[i][i] = rng.choice((1, 1, 2))
            for j in range(i):
                rows[i][j] = rng.choice((-1, 0, 0, 1))
        g = [[-2 * sum(a * b for a, b in zip(x, y)) for y in rows] for x in rows]
        volume = 1
        for b in orc.box_bounds(g, min(RANDOM_NORMS)):
            volume *= 2 * b + 1
        if volume <= BOX_POINT_CAP:
            return g


def enumerate_inputs(seed, rounds):
    rng = random.Random(seed)
    out = []
    for _ in range(rounds):
        items = []
        for name, scale, norms in FIXED_ENUMERATIONS:
            items += [(name, orc.e8_gram(scale), v, ("theta", scale)) for v in norms]
        for name, scale, value in (("E8", 1, -2), ("E8(2)", 2, -4)):
            items += [(name + "b", _rebased(orc.e8_gram(scale), rng), value, ("theta", scale))
                      for _ in range(REBASED_E8)]
        items += [
            ("%s%d" % (kind, n), orc.root_lattice_gram(kind, n), -2, ("roots", kind, n))
            for kind, n in ROOT_LATTICES
        ]
        for i in range(RANDOM_LATTICES):
            g = _random_definite_gram(rng)
            items += [("random", g, v, ("box",)) for v in RANDOM_NORMS]
        rng.shuffle(items)
        out.append(items)
    return out


def enumerate_ops(inputs, mods):
    lat_mod, emb_mod = mods["lattice"], mods["embeddings"]
    ops = []
    # Results on random lattices are compared with the box oracle after the
    # run, so its NumPy arrays stay out of the run's peak memory.
    deferred = []

    def box_agrees():
        boxes = {}
        for gram, value, vecs in deferred:
            key = tuple(map(tuple, gram))
            if key not in boxes:
                boxes[key] = orc.box_vectors(gram, RANDOM_NORMS)
            got = {tuple(v) for v in vecs}
            if got != boxes[key][value] or len(got) != len(vecs):
                return False
        return True

    for items in inputs:
        for name, gram, value, oracle in items:
            lat = lat_mod.Lattice(gram)

            def run(lat=lat, value=value):
                return emb_mod.vectors_of_norm(lat, value)

            def check(vecs, gram=gram, value=value, oracle=oracle):
                if oracle[0] == "theta":
                    want = orc.e8_theta_count(value, oracle[1])
                elif oracle[0] == "roots":
                    want = orc.root_count(oracle[1], oracle[2])
                else:
                    deferred.append((gram, value, vecs))
                    return True
                return orc.check_vector_list(vecs, gram, value, want)

            ops.append(Op(name, run, check))
    return Plan(ops, [box_agrees])


INPUTS = {"tables": tables_inputs, "gluing": gluing_inputs, "enumerate": enumerate_inputs}
OPS = {"tables": tables_ops, "gluing": gluing_ops, "enumerate": enumerate_ops}
