import contextlib
import gc
import hashlib
import json
import math
import random
import time
import weakref
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from enrlat import fqf, nikulin
from enrlat.cli import main
from enrlat.errors import (
    BadShape,
    CapExceeded,
    Degenerate,
    EnrLatError,
    NonWitt,
    NotIsotropic,
    NotSubgroup,
)
from enrlat.fqf import (
    FiniteQuadraticForm,
    _local,
    _local_key,
    _p_coords,
    _scales,
    _split_blocks,
    _subquotient,
    _two_torsion,
    canonical_form,
    direct_sum_fqf,
    discriminant_form,
    fqf_isomorphic,
    is_isomorphic,
    milgram_signature,
    negate_fqf,
    p_part,
    perp_subgroup,
    subgroup_order,
    quotient_form,
    subgroup_matrix,
    trivial_form,
    verify_fqf_iso,
)
from enrlat.intmat import _smith, prime_factors
from enrlat.nikulin import exists_even_lattice
from enrlat.lattice import Lattice, gram_of_rows, standard_lattice

from test_nikulin import _gluing_outcomes, _gram_sweep
from _oracles import (
    brute_b,
    brute_gauss_signature,
    brute_isomorphic,
    brute_q,
    brute_q_values,
    brute_radical,
    reference_exists_even_lattice,
    walk_jordan,
)


def random_even_lattice(rng, max_rank=5, bound=8, det_cap=3000):
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


def test_q_num_over_elements_against_product_and_brute_histogram():
    rng = random.Random(101)
    for _ in range(12):
        form = discriminant_form(random_even_lattice(rng, max_rank=3, det_cap=80))
        if form.is_trivial:
            continue
        # the whole group, then the subgroup spanned by two random elements
        gens = [list(form.reduce([rng.randint(1, 7) for _ in form.orders])) for _ in range(2)]
        gens = [g for g in gens if any(g)]
        sub_values = [
            [form.q_of(x) if i == j else Fraction(form.b_num(x, y), form.den)
             for j, y in enumerate(gens)]
            for i, x in enumerate(gens)
        ]
        units = [[int(i == j) for j in range(form.num_gens)] for i in range(form.num_gens)]
        for orders, values, basis in (
            (form.orders, form.values, units),
            (tuple(form.element_order(g) for g in gens), sub_values, gens),
        ):
            walked = FiniteQuadraticForm(orders, values)
            qnums = [walked.q_num(c) for c in walked.elements()]
            m = walked.den
            assert len(qnums) == walked.group_order
            assert list(walked.elements()) == list(product(*[range(d) for d in orders]))
            for coords, qnum in zip(walked.elements(), qnums):
                x = [sum(c * g[j] for c, g in zip(coords, basis))
                     for j in range(form.num_gens)]
                assert Fraction(qnum, m) == form.q_of(x)
            brute = Counter(q for _, q in brute_q_values(orders, values))
            assert Counter(Fraction(q, m) for q in qnums) == brute


def _two_torsion_forms():
    """Seeded discriminant forms, q_N and forms with mixed orders."""
    rng = random.Random(211)
    forms = [discriminant_form(random_even_lattice(rng, max_rank=4, det_cap=600))
             for _ in range(25)]
    forms.append(discriminant_form(standard_lattice("N")))
    forms.append(FiniteQuadraticForm((12, 2, 3), [[Fraction(1, 12), Fraction(1, 2), 0],
                                                  [Fraction(1, 2), 1, 0],
                                                  [0, 0, Fraction(2, 3)]]))
    forms.append(FiniteQuadraticForm((4, 6, 2), [[Fraction(3, 4), 0, Fraction(1, 2)],
                                                 [0, Fraction(1, 6), Fraction(1, 2)],
                                                 [Fraction(1, 2), Fraction(1, 2), 0]]))
    forms.append(FiniteQuadraticForm((3, 9), [[Fraction(2, 3), 0], [0, Fraction(2, 9)]]))
    return forms


def test_two_torsion_view_against_brute_force():
    mixed = 0
    for form in _two_torsion_forms():
        gens, elements = _two_torsion(form)
        assert gens == [[d // 2 if j == i else 0 for j in range(form.num_gens)]
                        for i, d in reversed(list(enumerate(form.orders))) if d % 2 == 0]
        # the nonzero elements x with 2x = 0, in the order of elements()
        brute = [c for c in form.elements()
                 if any(c) and not any(2 * x % d for x, d in zip(c, form.orders))]
        assert len(elements) == len(brute) == (1 << len(gens)) - 1
        mixed += bool(gens) and any(d != 2 for d in form.orders)
        for (mask, q, beta), c in zip(elements, brute):
            assert [sum(g[t] for b, g in enumerate(gens) if mask >> b & 1)
                    for t in range(form.num_gens)] == list(c)
            assert q == 2 * form.q_num(c) // form.den % 4
            assert 2 * form.q_num(c) % form.den == 0
            assert beta == sum((2 * form.b_num(c, g) // form.den) << b
                               for b, g in enumerate(gens))
        assert _two_torsion(form) is _two_torsion(form)
    assert mixed >= 3


def test_discriminant_form_of_unimodular_is_trivial():
    for tag in ("U", "E8", "Lambda"):
        form = discriminant_form(standard_lattice(tag))
        assert form.is_trivial


def test_discriminant_form_frozen_values():
    form = discriminant_form(Lattice([[4]]))
    assert form.invariant_factors == (4,)
    assert form.q_of([1]) == Fraction(1, 4)
    form = discriminant_form(Lattice([[-4]]))
    assert form.q_of([1]) == Fraction(7, 4)
    form = discriminant_form(standard_lattice("U2"))
    assert form.invariant_factors == (2, 2)
    vals = sorted(form.q_of(x) for x in ((0, 1), (1, 0), (1, 1)))
    assert vals == [0, 0, 1]


def test_milgram_on_frozen_forms():
    assert milgram_signature(discriminant_form(Lattice([[2]]))) == 1
    assert milgram_signature(discriminant_form(Lattice([[-2]]))) == 7
    assert milgram_signature(discriminant_form(standard_lattice("U2"))) == 0
    assert milgram_signature(trivial_form()) == 0


def test_milgram_matches_signature_mod_8():
    rng = random.Random(59)
    for _ in range(30):
        lat = random_even_lattice(rng)
        pos, neg = lat.signature
        assert milgram_signature(discriminant_form(lat)) == (pos - neg) % 8


def test_milgram_matches_brute_complex_sum():
    rng = random.Random(61)
    tried = 0
    while tried < 12:
        lat = random_even_lattice(rng, max_rank=3, det_cap=300)
        form = discriminant_form(lat)
        s = brute_gauss_signature(form.orders, form.values)
        assert s is not None
        assert milgram_signature(form) == s
        tried += 1


def test_milgram_additive_on_direct_sums():
    rng = random.Random(67)
    for _ in range(15):
        a = discriminant_form(random_even_lattice(rng, max_rank=3))
        b = discriminant_form(random_even_lattice(rng, max_rank=3))
        both = direct_sum_fqf(a, b)
        assert milgram_signature(both) == (milgram_signature(a) + milgram_signature(b)) % 8


def test_negate_flips_milgram():
    rng = random.Random(71)
    for _ in range(10):
        form = discriminant_form(random_even_lattice(rng, max_rank=3))
        assert milgram_signature(negate_fqf(form)) == (-milgram_signature(form)) % 8


def test_p_part_reassembly():
    # a form is isomorphic to the sum of its p-parts and to itself on a
    # random basis; multi-prime and degenerate forms included, whose
    # degenerate p-parts only the witness search decides
    rng = random.Random(73)
    forms = [discriminant_form(random_even_lattice(rng)) for _ in range(15)]
    three_pair = FiniteQuadraticForm((3, 3), [[0, Fraction(1, 3)], [Fraction(1, 3), 0]])
    forms += [
        FiniteQuadraticForm((12, 6, 5), [[Fraction(1, 12), Fraction(1, 6), 0],
                                         [Fraction(1, 6), Fraction(1, 3), 0],
                                         [0, 0, Fraction(4, 5)]]),
        direct_sum_fqf(discriminant_form(Lattice([[4, 2], [2, 8]])),
                       discriminant_form(Lattice([[6, 3], [3, 10]]))),
        FiniteQuadraticForm((6,), [[Fraction(3)]]),
        FiniteQuadraticForm((10, 3), [[Fraction(1, 5), 0], [0, Fraction(0)]]),
        FiniteQuadraticForm((2,), [[Fraction(0)]]),
        FiniteQuadraticForm((4,), [[Fraction(1, 2)]]),
        FiniteQuadraticForm((9,), [[Fraction(6, 9)]]),
        direct_sum_fqf(_block_form(("v", 4)), FiniteQuadraticForm((2,), [[Fraction(1)]])),
        direct_sum_fqf(three_pair, FiniteQuadraticForm((3,), [[Fraction(0)]])),
    ]
    sub_rng = random.Random(149)
    for form in _small_forms(sub_rng, 30, 2000):
        sub = _form_on_subgroup(form, [[sub_rng.randrange(d) for d in form.orders]])
        forms += [form] if sub.is_trivial else [form, sub]
    kinds = Counter()
    for form in forms:
        if form.is_trivial:
            continue
        primes = prime_factors(form.group_order)
        parts = [p_part(form, p) for p in primes]
        rebuilt = parts[0]
        for extra in parts[1:]:
            rebuilt = direct_sum_fqf(rebuilt, extra)
        for other in (rebuilt, _random_basis(form, rng)):
            iso = fqf_isomorphic(form, other)
            assert iso is not None and verify_fqf_iso(form, other, iso)
            assert is_isomorphic(form, other) and is_isomorphic(other, form)
        kinds[len(primes) > 1, any(_local_key(form, p) is None for p in primes)] += 1
    assert all(kinds[multi, degen] for multi in (True, False) for degen in (True, False)), kinds


def test_canonical_form_is_stable():
    rng = random.Random(79)
    for _ in range(10):
        form = discriminant_form(random_even_lattice(rng, max_rank=4))
        c1 = canonical_form(form)
        c2 = canonical_form(c1)
        assert c1.orders == c2.orders
        assert c1.values == c2.values


def test_discriminant_form_is_kept_on_the_lattice():
    lat = Lattice([[4, 2], [2, -4]])
    form = discriminant_form(lat)
    assert discriminant_form(lat) is form
    # an equal lattice built anew builds its own, equal form
    other = discriminant_form(Lattice([[4, 2], [2, -4]]))
    assert other is not form and other == form
    assert discriminant_form(standard_lattice("N")) is discriminant_form(standard_lattice("N"))


def _smith_path(f):
    """The form on the invariant-factor generators the Smith form of the
    diagonal of f's orders names: canonical_form's general branch."""
    k = f.num_gens
    dmat = [[f.orders[i] if i == j else 0 for j in range(k)] for i in range(k)]
    d, uinv_t, _ = _smith(dmat, True, False, inverse=True)
    kept = [j for j in range(k) if d[j][j] > 1]
    return FiniteQuadraticForm.over(
        [d[j][j] for j in kept], gram_of_rows([uinv_t[j] for j in kept], f.qmat), f.den)


def test_canonical_form_of_a_divisibility_chain_is_the_form_itself():
    rng = random.Random(97)
    chains = 0
    for _ in range(40):
        form = discriminant_form(random_even_lattice(rng, max_rank=4))
        if form.num_gens < 2:
            continue
        # moving the last generator to the front breaks the chain when its
        # order is larger, which forces the Smith path
        moved = form.orders[-1:] + form.orders[:-1]
        perm = [form.num_gens - 1] + list(range(form.num_gens - 1))
        permuted = FiniteQuadraticForm.over(
            moved, [[form.qmat[i][j] for j in perm] for i in perm], form.den)
        chain = canonical_form(permuted)
        orders = chain.orders
        assert all(b % a == 0 for a, b in zip(orders, orders[1:]))
        assert fqf_isomorphic(chain, form) is not None
        if moved[0] > moved[-1]:
            chains += 1
            assert chain is not permuted and canonical_form(permuted) == chain
        # the chain's canonical form is itself, and the Smith path agrees
        assert canonical_form(chain) is chain
        assert _smith_path(chain) == chain
        assert _smith_path(chain).qmat == chain.qmat
    assert chains >= 5


def test_canonical_forms_and_kept_forms_leave_no_cycles():
    # with the cyclic collector off, reference counting alone must free them
    gc.disable()
    try:
        forms = [trivial_form(),
                 FiniteQuadraticForm((2, 4), [[1, 0], [0, Fraction(1, 4)]]),
                 FiniteQuadraticForm((4, 2), [[Fraction(1, 4), 0], [0, 1]])]
        refs = []
        for form in forms:
            refs += [weakref.ref(form), weakref.ref(canonical_form(form))]
        lat = Lattice([[4, 0], [0, -12]])
        refs += [weakref.ref(lat), weakref.ref(canonical_form(discriminant_form(lat)))]
        # the kept readings hold ints, tuples and strings, never the forms
        # read; both forms on (Z/2) + (Z/4) are degenerate, so failures are
        # kept too
        for form in forms + [discriminant_form(lat)]:
            for p in prime_factors(form.group_order):
                with contextlib.suppress(Degenerate):
                    _scales(form, p)
            with contextlib.suppress(NonWitt):
                milgram_signature(form)
        del forms, form, lat
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def _recorded_splits(monkeypatch):
    """Count every split that runs, by form value and prime; the tests that
    call this empty the kept readings through the `stores` fixture."""
    runs = Counter()
    split = fqf._split_blocks

    def recorded(f, p):
        runs[(f.orders, f.den, f.qmat, p)] += 1
        return split(f, p)

    monkeypatch.setattr(fqf, "_split_blocks", recorded)
    return runs


def test_degenerate_splits_are_kept_and_raised_again(monkeypatch, stores):
    """A degenerate p-part is kept as its message and raised again, as a
    Degenerate by `_scales` and as the cause of milgram_signature's
    NonWitt, with no second split; the other p-parts keep their scales."""
    runs = _recorded_splits(monkeypatch)
    degenerate = FiniteQuadraticForm((2,), [[0]])  # q vanishes on the radical
    vanishing = FiniteQuadraticForm((2,), [[1]])  # q does not: the Gauss sum is 0
    three = FiniteQuadraticForm((3,), [[Fraction(2, 3)]])
    mixed = direct_sum_fqf(vanishing, three)
    for form in (degenerate, vanishing, mixed):
        messages = []
        for _ in range(2):
            with pytest.raises(Degenerate) as exc:
                _scales(form, 2)
            messages.append(str(exc.value))
            with pytest.raises(NonWitt) as exc:
                milgram_signature(FiniteQuadraticForm.over(form.orders, form.qmat, form.den))
            assert isinstance(exc.value.__cause__, Degenerate)
            messages.append(str(exc.value.__cause__))
        kept = stores["_LOCAL"][(form.orders, form.den, form.qmat)]
        assert messages == [kept[2]] * 4 and messages[0]
    with pytest.raises(NonWitt):
        exists_even_lattice((1, 0), degenerate)
    assert _scales(mixed, 3) == {1: (1, 1, None)} and list(runs.values()) == [1] * 4


def test_kept_splittings_keep_the_latest_256_keys(monkeypatch, stores):
    runs = _recorded_splits(monkeypatch)
    forms = [FiniteQuadraticForm((d,), [[Fraction(1 + d % 2, d)]]) for d in range(2, 302)]
    keys = [(f.orders, f.den, f.qmat) for f in forms]
    for form in forms:
        _local(form)
    assert len(set(keys)) == 300 and fqf._LOCAL.bound == 256
    assert list(fqf._LOCAL) == keys[-256:]
    # every p-part of a form split once
    assert set(runs) == {key + (p,) for key, f in zip(keys, forms)
                         for p in prime_factors(f.group_order)}
    assert set(runs.values()) == {1}
    # the oldest key was evicted, so its form splits again and evicts the
    # next oldest; the latest (of order 301 = 7 * 43) is still kept
    _scales(forms[0], 2)
    _scales(forms[-1], 7)
    assert runs[keys[0] + (2,)] == 2 and runs[keys[-1] + (7,)] == runs[keys[-1] + (43,)] == 1
    assert list(fqf._LOCAL) == keys[-255:] + keys[:1]


def test_fresh_forms_of_one_value_read_their_local_data_once(monkeypatch, stores):
    """Three fresh forms of one value, each through the signature, the
    existence test and the isomorphism keys, miss `_LOCAL` once and split
    each p-part once. [[8, 2], [2, 4]] is the same lattice on swapped basis
    vectors, so its form has another value; it is read before the count."""
    other = discriminant_form(Lattice([[8, 2], [2, 4]]))
    _local(other)
    runs = _recorded_splits(monkeypatch)
    local = stores["_LOCAL"]
    misses = local.misses
    for _ in range(3):
        form = discriminant_form(Lattice([[4, 2], [2, 8]]))
        assert form != other and is_isomorphic(form, other)
        assert milgram_signature(form) == 2 and exists_even_lattice((2, 0), form)
    key = (form.orders, form.den, form.qmat)
    assert local.misses - misses == 1 and key in local
    assert runs == {key + (p,): 1 for p in (2, 7)}


def test_odd_jordan_blocks_multiply_to_group_order():
    rng = random.Random(83)
    for _ in range(10):
        form = discriminant_form(random_even_lattice(rng))
        for p in prime_factors(form.group_order):
            if p == 2:
                continue
            blocks = _split_blocks(form, p)
            total = 1
            for _, scale, _ in blocks:
                total *= scale
            assert total == p_part(form, p).group_order


def test_two_adic_jordan_covers_group():
    rng = random.Random(89)
    for _ in range(10):
        form = discriminant_form(random_even_lattice(rng))
        blocks = _split_blocks(form, 2)
        total = 1
        for blk in blocks:
            if blk[0] == "q":
                total *= blk[1]
            else:
                total *= blk[1] ** 2
        assert total == p_part(form, 2).group_order


def test_splits_unit_block_examples():
    # a one-generator block splits off A[2] exactly when scale 2 is odd
    def scale_two_is_odd(form):
        return _scales(form, 2).get(1, (0, 1, None))[2] is not None

    assert scale_two_is_odd(discriminant_form(Lattice([[2]])))
    assert not scale_two_is_odd(discriminant_form(Lattice([[-4]])))
    assert not scale_two_is_odd(trivial_form())


def test_quotient_by_isotropic_divides_order_by_square():
    lat = Lattice([[4, 0], [0, 4]])
    form = discriminant_form(lat)
    smat = subgroup_matrix(form, [[2, 2]])
    tmat = perp_subgroup(form, [[2, 2]])
    assert subgroup_order(form, tmat) == 8
    quo = quotient_form(form, tmat, smat)
    assert quo.group_order == 8 // 2
    coords, orders = _subquotient(form, tmat, smat)
    assert orders == quo.orders
    for i, amb in enumerate(coords):
        unit = [0] * quo.num_gens
        unit[i] = 1
        assert quo.q_of(unit) == form.q_of(amb) % 2


def test_subgroup_solves_reject_what_lies_outside():
    form = discriminant_form(Lattice([[4, 0], [0, 4]]))
    smat = subgroup_matrix(form, [[2, 2]])
    tmat = perp_subgroup(form, [[2, 2]])
    with pytest.raises(NotSubgroup):
        quotient_form(form, smat, tmat)


def test_quotient_form_rejects_a_non_isotropic_denominator():
    # Z/4 with q(1) = 1/4: q(2) = 1
    form = discriminant_form(Lattice([[4]]))
    with pytest.raises(NotIsotropic) as exc:
        quotient_form(form, subgroup_matrix(form, [[1]]), subgroup_matrix(form, [[2]]))
    assert str(exc.value) == "q does not vanish on the denominator subgroup"
    # (Z/4)^2 with q(x) = (x_1^2 + x_2^2) / 4: (2, 2) is isotropic, but
    # b((1, 0), (2, 2)) = 1/2
    form = discriminant_form(Lattice([[4, 0], [0, 4]]))
    whole = subgroup_matrix(form, [[1, 0], [0, 1]])
    with pytest.raises(NotIsotropic) as exc:
        quotient_form(form, whole, subgroup_matrix(form, [[2, 2]]))
    assert str(exc.value) == "denominator pairs nontrivially with numerator"


def test_isomorphism_search_and_verification():
    a = discriminant_form(Lattice([[4, 0], [0, 4]]))
    b = discriminant_form(Lattice([[4, 0], [0, 4]]))
    iso = fqf_isomorphic(a, b)
    assert iso is not None
    assert verify_fqf_iso(a, b, iso)
    c = discriminant_form(Lattice([[-4, 0], [0, -4]]))
    assert fqf_isomorphic(a, c) is None


def test_isomorphism_distinguishes_same_group_different_form():
    # both are (Z/2)^2 but with different quadratic values
    u2 = discriminant_form(standard_lattice("U2"))
    d4 = discriminant_form(
        Lattice([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]])
    )
    assert u2.invariant_factors == d4.invariant_factors
    assert fqf_isomorphic(u2, d4) is None


def test_isomorphism_of_a_form_with_itself_is_the_identity():
    rng = random.Random(157)
    forms = _small_forms(rng, 20, 4096) + [trivial_form(), discriminant_form(standard_lattice("N"))]
    for form in forms:
        k = form.num_gens
        units = [[int(i == j) for j in range(k)] for i in range(k)]
        assert fqf_isomorphic(form, form) == units
        # an equal form built apart from it gets the same map
        twin = FiniteQuadraticForm(form.orders, form.values)
        assert twin is not form and fqf_isomorphic(form, twin) == units


def test_degenerate_two_elementary_forms_get_a_verified_map():
    # integral values but a zero pairing: the backtracking search swaps
    # the two generators, there being no symplectic splitting to find
    a = FiniteQuadraticForm((2, 2), [[0, 0], [0, 1]])
    b = FiniteQuadraticForm((2, 2), [[1, 0], [0, 0]])
    iso = fqf_isomorphic(a, b)
    assert iso == [[0, 1], [1, 0]]
    assert verify_fqf_iso(a, b, iso)


def test_witness_search_stops_at_its_cap_where_the_keys_decide(monkeypatch):
    # <1/4> + <3/4> and <3/4> + <1/4> differ as forms: the search needs a
    # second candidate to find the swap, and is_isomorphic needs none
    a = FiniteQuadraticForm((4, 4), [[Fraction(1, 4), 0], [0, Fraction(3, 4)]])
    b = FiniteQuadraticForm((4, 4), [[Fraction(3, 4), 0], [0, Fraction(1, 4)]])
    assert a != b and fqf_isomorphic(a, b) == [[0, 1], [1, 0]]
    monkeypatch.setattr(fqf, "ISO_CAP", 1)
    with pytest.raises(CapExceeded) as info:
        fqf_isomorphic(a, b)
    assert str(info.value) == "isomorphism search spent 2 candidates, over its cap of 1"
    assert is_isomorphic(a, b)


def _blocks(*blocks):
    """The orthogonal sum of Jordan blocks ('q', s, q) = <q>, ('u', s) and
    ('v', s), each on its own generators."""
    out = trivial_form()
    for kind, s, *a in blocks:
        if kind == "q":
            block = FiniteQuadraticForm((s,), [a])
        else:
            d, e = Fraction(2 * (kind == "v"), s), Fraction(1, s)
            block = FiniteQuadraticForm((s, s), [[d, e], [e, d]])
        out = direct_sum_fqf(out, block)
    return out


def _witnessed(a, b):
    iso = fqf_isomorphic(a, b)
    return iso is not None and verify_fqf_iso(a, b, iso)


def test_two_adic_rewrites_are_isomorphisms():
    # v + v = u + u, and <a / s> + v = <5a / s> + u at the scales next to
    # s, for every unit a: each side splits into those blocks, the two
    # sides get one key, and the witness search finds a map
    def check(left, right):
        a, b = _blocks(*left), _blocks(*right)
        assert _split_blocks(a, 2) == left and _split_blocks(b, 2) == right
        assert a != b and _witnessed(a, b) and is_isomorphic(a, b)
        assert _local_key(a, 2) == _local_key(b, 2)

    checked = 0
    for s in (2, 4, 8, 16):
        check((("v", s), ("v", s)), (("u", s), ("u", s)))
        for t in (s // 2, 2 * s):
            for a in range(1, 2 * s, 2) if t > 1 else ():
                five = Fraction(5 * a, s) % 2
                q, plane = ("q", s, Fraction(a, s)), ("v", t)
                left = (q, plane) if s > t else (plane, q)
                right = tuple(("q", s, five) if b is q else ("u", t) for b in left)
                check(left, right)
                checked += 1
    assert checked == 2 + 8 + 16 + 32


def test_two_adic_units_count_mod_eight_against_brute():
    # <a / 2^k> and <b / 2^k> are isomorphic exactly when a = b mod 4 at
    # k = 1 and mod 8 above
    for s in (2, 4, 8, 16):
        for a, b in product(range(1, 2 * s, 2), repeat=2):
            fa, fb = _blocks(("q", s, Fraction(a, s))), _blocks(("q", s, Fraction(b, s)))
            want = brute_isomorphic(fa.orders, fa.values, fb.orders, fb.values)
            assert want == ((a - b) % min(8, 2 * s) == 0)
            assert is_isomorphic(fa, fb) == want
            assert (_local_key(fa, 2) == _local_key(fb, 2)) == want


def test_large_two_adic_pairs_are_decided_by_the_key_alone(monkeypatch):
    # <1/4> + <7/4> and <3/4> + <5/4> are isomorphic; with four or five
    # planes u at scale 4 (|A| = 2^20, 2^24), or four and <1/8> + <3/8>
    # (2^26), the witness search took seconds to minutes to find a map.
    # The key decides each pair, and the twin <1/4> + <3/4> that is not
    # isomorphic to either, without that search
    calls = []
    monkeypatch.setattr(fqf, "fqf_isomorphic", lambda f, g: calls.append((f, g)))
    eighths = (("q", 8, Fraction(1, 8)), ("q", 8, Fraction(3, 8)))
    for rest in ((("u", 4),) * 4, (("u", 4),) * 5, (("u", 4),) * 4 + eighths):
        a, b, twin = (_blocks(("q", 4, Fraction(x, 4)), ("q", 4, Fraction(y, 4)), *rest)
                      for x, y in ((1, 7), (3, 5), (1, 3)))
        for f, g, want in ((a, b, True), (a, twin, False), (b, twin, False)):
            start = time.perf_counter()
            assert is_isomorphic(f, g) == want
            assert time.perf_counter() - start < 0.05
    assert not calls


def _all_forms(orders):
    """Every form on (+) Z/orders[i], degenerate ones included: q(e_i) in
    (1 / d_i) Z with d_i^2 q(e_i) even, b(e_i, e_j) in (1 / gcd) Z."""
    k = len(orders)
    diag = [[Fraction(t, d) for t in range(2 * d) if d * t % 2 == 0] for d in orders]
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    offs = [[Fraction(c, g) for c in range(g)]
            for g in (math.gcd(orders[i], orders[j]) for i, j in pairs)]
    out = []
    for qs in product(*diag):
        for bs in product(*offs):
            vals = [[qs[i] if i == j else Fraction(0) for j in range(k)] for i in range(k)]
            for (i, j), b in zip(pairs, bs):
                vals[i][j] = vals[j][i] = b
            out.append(FiniteQuadraticForm(orders, vals))
    return out


@pytest.mark.parametrize("orders,degenerate", [
    ((9,), True), ((27,), True), ((3, 9), True), ((5, 5), True),
    ((2,), True), ((2, 2), True), ((2, 2, 2), False),
    ((4, 4), False), ((2, 4), False), ((2, 8), False), ((4, 8), False), ((2, 16), False)])
def test_is_isomorphic_on_every_form_of_a_group_against_brute(orders, degenerate):
    # the forms fall into classes by brute force (within buckets of equal
    # q-value multisets); each form is then decided against a member of
    # every class, both ways. Degenerate forms, which the decision hands
    # to the witness search, are left out of the 2-groups with more than
    # two elements, where they are most of the forms. Those 2-groups have
    # scales where the 2-adic key fuses oddities and walks signs.
    forms = [f for f in _all_forms(orders)
             if degenerate or len(brute_radical(f.orders, f.values)) == 1]
    reps = []  # (sorted q values, representative)
    cls = []
    for f in forms:
        hist = sorted(q for _, q in brute_q_values(f.orders, f.values))
        rep = next((r for h, r in reps if h == hist
                    and brute_isomorphic(r.orders, r.values, f.orders, f.values)), None)
        if rep is None:
            rep = f
            reps.append((hist, f))
        cls.append(rep)
    for f, rep in zip(forms, cls):
        for _, r in reps:
            assert is_isomorphic(f, r) == is_isomorphic(r, f) == (r is rep), (f.values, r.values)
    assert len(reps) > 2
    assert not degenerate or any(len(brute_radical(f.orders, f.values)) > 1 for f in forms)


def _presented(form, rows, orders):
    """The form on the elements rows of form, taken as generators of the
    given orders, with its values read off by the oracle."""
    return FiniteQuadraticForm(orders, [
        [brute_q(form.values, x) if i == j else brute_b(form.values, x, y)
         for j, y in enumerate(rows)]
        for i, x in enumerate(rows)
    ])


def _presentations(form, rng):
    """form under other presentations of its group: generators reversed,
    cyclic factors split into prime powers (Z/6 as Z/2 + Z/3) or coprime
    ones merged (Z/2 + Z/3 as Z/6), and a random basis of the same orders."""
    k = form.num_gens
    units = [[int(i == j) for j in range(k)] for i in range(k)]
    out = [_presented(form, units[::-1], form.orders[::-1])]
    split = [(i, d // p**a, p**a) for i, d in enumerate(form.orders)
             for p, a in prime_factors(d).items()]
    out.append(_presented(form, [[c * u for u in units[i]] for i, c, _ in split],
                          [q for _, _, q in split]))
    pair = next(((i, j) for j in range(k) for i in range(j)
                 if math.gcd(form.orders[i], form.orders[j]) == 1), None)
    if pair is not None:
        i, j = pair
        rest = [t for t in range(k) if t not in pair]
        out.append(_presented(form, [[a + b for a, b in zip(units[i], units[j])]]
                              + [units[t] for t in rest],
                              [form.orders[i] * form.orders[j]] + [form.orders[t] for t in rest]))
    elems = list(form.elements())
    for _ in range(20):
        rows = [rng.choice([x for x in elems if form.element_order(x) == d]) for d in form.orders]
        if subgroup_order(form, subgroup_matrix(form, rows)) == form.group_order:
            out.append(_presented(form, rows, form.orders))
            break
    return out


def test_isomorphism_against_brute_force_across_presentations():
    rng = random.Random(151)
    grams = [[[6]], [[4, 0], [0, 2]], [[2, 1], [1, 2]], [[4, 2], [2, 4]], [[8, 0], [0, 4]],
             [[2, 0, 0], [0, 2, 0], [0, 0, 6]], [[-2, 0], [0, 10]], [[4, 0], [0, 6]]]
    while len(grams) < 16:
        grams.append([list(r) for r in random_even_lattice(rng, max_rank=3, det_cap=32).gram])
    base = []
    for gram in grams:
        form = discriminant_form(Lattice(gram))
        if form.is_trivial or form.num_gens > 3:
            continue
        base += [form, negate_fqf(form)]
        if len(base) > 2 and form.group_order * base[-3].group_order <= 32:
            base.append(direct_sum_fqf(form, base[-3]))
        iso = next((x for x in form.elements() if any(x) and form.q_of(x) == 0), None)
        if iso is not None:
            quo = quotient_form(form, perp_subgroup(form, [list(iso)]), subgroup_matrix(form, [list(iso)]))
            if not quo.is_trivial:
                base.append(quo)
    pool = [g for form in base for g in [form] + _presentations(form, rng) if g.num_gens <= 3]
    verdicts = Counter()
    for a in pool:
        for b in pool:
            if a.group_order != b.group_order:
                continue
            iso = fqf_isomorphic(a, b)
            want = brute_isomorphic(a.orders, a.values, b.orders, b.values)
            assert (iso is not None) == want, (a.orders, a.values, b.orders, b.values)
            assert is_isomorphic(a, b) == want, (a.orders, a.values, b.orders, b.values)
            if iso is not None:
                assert verify_fqf_iso(a, b, iso)
            verdicts[want, a.orders == b.orders] += 1
    # isomorphic pairs in different presentations, and same-group pairs that
    # are not isomorphic
    assert verdicts[True, False] and verdicts[False, True], verdicts


def test_odd_index_sublattice_keeps_two_part():
    rng = random.Random(97)
    checked = 0
    while checked < 8:
        lat = random_even_lattice(rng, max_rank=3, det_cap=500)
        n = lat.rank
        rows = [[3 if i == j else 0 for j in range(n)] for i in range(n)]
        from enrlat.lattice import sublattice_from_gram_change

        sub = sublattice_from_gram_change(lat, rows)
        two_a = p_part(discriminant_form(lat), 2)
        two_b = p_part(discriminant_form(sub), 2)
        assert fqf_isomorphic(two_a, two_b) is not None
        checked += 1


def _form_on_subgroup(f, gens):
    """The form f restricts to on the subgroup the gens generate: its
    quotient by the trivial subgroup."""
    return quotient_form(f, subgroup_matrix(f, gens), subgroup_matrix(f, []))


def test_form_on_subgroup_takes_any_generators_of_the_subgroup():
    # [[4]] generates the same order-3 subgroup of Z/6 as [[2]]
    form = FiniteQuadraticForm((6,), [[Fraction(1, 6)]])
    two = _form_on_subgroup(form, [[2]])
    assert two == _form_on_subgroup(form, [[4]])
    assert two.orders == (3,) and two.values == ((Fraction(2, 3),),)


def _small_forms(rng, count, max_order):
    """Discriminant forms of seeded even lattices, some orthogonal sums of
    two of them and some subquotients, on groups of order <= max_order."""
    out = []
    while len(out) < count:
        lat = random_even_lattice(rng, max_rank=4, det_cap=max_order)
        if lat.rank <= 2 and abs(lat.det) * 4 ** lat.rank <= max_order and rng.random() < 0.5:
            # twice an even lattice: even 2-adic blocks of scale >= 2
            lat = Lattice([[2 * x for x in row] for row in lat.gram])
        form = discriminant_form(lat)
        if form.is_trivial:
            continue
        out.append(form)
        if len(out) > 1 and form.group_order * out[-2].group_order <= max_order:
            out.append(direct_sum_fqf(form, out[-2]))
        iso = next((x for x in form.elements() if any(x) and form.q_of(x) == 0), None)
        if iso is not None:
            smat = subgroup_matrix(form, [list(iso)])
            quo = quotient_form(form, perp_subgroup(form, [list(iso)]), smat)
            if not quo.is_trivial:
                out.append(quo)
    return out


def test_integer_q_and_b_against_fraction_sums():
    rng = random.Random(131)
    for form in _small_forms(rng, 40, 4096):
        elems = list(form.elements())
        for _ in range(30):
            x, y = rng.choice(elems), rng.choice(elems)
            assert form.q_of(x) == brute_q(form.values, x)
            assert Fraction(form.b_num(x, y), form.den) == brute_b(form.values, x, y)
            # the integer matrix over the denominator is the same form
            assert form.q_num(x) == form.q_of(x) * form.den


_HALF, _THIRD, _QUARTER = Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)


@pytest.mark.parametrize("orders, values, message", [
    ((1,), [[0]], "generator orders must be at least 2"),
    ((2, 0), [[0, 0], [0, 0]], "generator orders must be at least 2"),
    ((2, 2), [[0, 0]], "value matrix must be 2 x 2"),
    ((2, 2), [[0, 0], [0]], "value matrix must be 2 x 2"),
    ((2,), [[0, 0]], "value matrix must be 1 x 1"),
    ((2, 2), [[0, _HALF], [0, 0]], "value matrix must be symmetric"),
    ((2, 2, 2), [[0, 0, 0], [0, 0, _HALF], [0, 0, 0]], "value matrix must be symmetric"),
    ((3,), [[_THIRD]], "q value 1/3 invalid for a generator of order 3"),
    ((2,), [[Fraction(7, 3)]], "q value 1/3 invalid for a generator of order 2"),
    ((2, 2), [[0, _THIRD], [_THIRD, 0]], "pairing 1/3 invalid for order 2"),
    ((2, 4), [[0, _QUARTER], [_QUARTER, 0]], "pairing 1/4 invalid for order 2"),
    # generator by generator: a bad pairing of e_0 before a bad q of e_1,
    # and a bad q of e_0 before a bad pairing of e_0
    ((2, 3), [[0, _THIRD], [_THIRD, _THIRD]], "pairing 1/3 invalid for order 2"),
    ((2, 2), [[_THIRD, _THIRD], [_THIRD, 0]], "q value 1/3 invalid for a generator of order 2"),
])
def test_constructor_rejections_by_type_and_message(orders, values, message):
    with pytest.raises(BadShape) as exc:
        FiniteQuadraticForm(orders, values)
    assert type(exc.value) is BadShape and str(exc.value) == message
    if all(len(r) == len(orders) for r in values) and len(values) == len(orders):
        # the same matrix over its denominator, through the integer constructor
        den = math.lcm(1, *(Fraction(x).denominator for r in values for x in r))
        qmat = [[int(Fraction(x) * den) for x in r] for r in values]
        with pytest.raises(BadShape) as exc:
            FiniteQuadraticForm.over(orders, qmat, den)
        assert type(exc.value) is BadShape and str(exc.value) == message


@pytest.mark.parametrize("orders", [(2.5,), ("4",), (True,), (2, 4.0)])
def test_constructor_rejects_orders_that_are_not_ints(orders):
    # 2.5 and "4" used to become orders 2 and 4
    with pytest.raises(BadShape) as exc:
        FiniteQuadraticForm(orders, [[0] * len(orders)] * len(orders))
    assert type(exc.value) is BadShape
    assert str(exc.value) == "generator order: %r is not an integer" % (orders[-1],)


def test_constructor_reduces_before_it_checks():
    # b is read mod 1 and q mod 2, so these entries are valid
    form = FiniteQuadraticForm((2, 2), [[Fraction(5, 2), _HALF], [-_HALF, 2]])
    assert form.values == ((_HALF, _HALF), (_HALF, 0))
    assert (form.den, form.qmat) == (2, ((1, 1), (1, 0)))
    # the values come out over their least common denominator
    assert FiniteQuadraticForm.over((4,), [[6]], 24).qmat == ((1,),)


def _block_form(block):
    if block[0] == "q":
        return FiniteQuadraticForm((block[1],), [[block[2]]])
    s = block[1]
    diag = Fraction(0) if block[0] == "u" else Fraction(2, s)
    return FiniteQuadraticForm((s, s), [[diag, Fraction(1, s)], [Fraction(1, s), diag]])


def test_jordan_blocks_sum_to_the_form():
    rng = random.Random(137)
    # q(e1) = q(e2) = 0 and b(e1, e2) = 1 / p^k: no generator has a unit
    # t(x, x), so the odd split takes the pair path through e1 + e2
    pairs = [FiniteQuadraticForm((p**k, p**k), [[0, Fraction(1, p**k)], [Fraction(1, p**k), 0]])
             for p, k in ((3, 1), (3, 2), (5, 1))]
    odd = [FiniteQuadraticForm((p,), [[Fraction(2, p)]]) for p in (3, 5)]
    pairs += [direct_sum_fqf(pair, q) for pair in pairs for q in odd if q.den == pair.den]
    kinds = Counter()
    for form in _small_forms(rng, 60, 4096) + pairs:
        total = trivial_form()
        for p in prime_factors(form.group_order):
            for blk in _split_blocks(form, p):
                kinds[blk[0]] += 1
                total = direct_sum_fqf(total, _block_form(blk))
        iso = fqf_isomorphic(total, form)
        assert iso is not None and verify_fqf_iso(total, form, iso)
    assert kinds["q"] and kinds["u"] and kinds["v"]


def test_exists_even_lattice_against_whole_group_walk():
    rng = random.Random(139)
    d4_4 = [[2, -1, 0, 0, 0], [-1, 2, -1, -1, 0], [0, -1, 2, 0, 0], [0, -1, 0, 2, 0],
            [0, 0, 0, 0, 4]]
    fixed = [discriminant_form(Lattice(g)) for g in ([[4, 2], [2, 4]], [[4, 2], [2, 8]], d4_4)]
    forms = _small_forms(rng, 45, 256) + fixed + [direct_sum_fqf(fixed[0], fixed[2])]
    checked = Counter()
    for form in forms:
        for p in prime_factors(form.group_order):
            checked[p == 2] += 1
            walked = walk_jordan(form.orders, form.values, p)
            got = _split_blocks(form, p)
            assert [b[1] for b in walked] == [b[1] for b in got]
        for rank in range(form.num_gens, form.num_gens + 3):
            for tpos in range(rank + 1):
                sig = (tpos, rank - tpos)
                want = reference_exists_even_lattice(sig, form.orders, form.values)
                assert exists_even_lattice(sig, form) == want
    assert checked[True] and checked[False]


def test_milgram_on_every_block_type_against_brute_sum():
    forms = []
    # odd p = 1 and 3 mod 4, q = 2t / p^k with t a square and a non-square
    for p, square, nonsquare in ((5, 1, 2), (13, 1, 2), (3, 1, 2), (7, 2, 3)):
        for k in range(1, 4 if p < 13 else 3):
            for t in (square, nonsquare):
                forms.append(("q", FiniteQuadraticForm((p**k,), [[Fraction(2 * t, p**k)]])))
    for k in range(1, 5):
        for u in (1, 3, 5, 7):
            forms.append(("q", FiniteQuadraticForm((2**k,), [[Fraction(u, 2**k)]])))
    for k in range(1, 4):
        for kind in ("u", "v"):
            forms.append((kind, _block_form((kind, 2**k))))
    # several blocks at one scale, whose units and oddities the signature
    # reads as one product and one sum
    def q(s, a):
        return _block_form(("q", s, Fraction(a, s)))

    sums = [
        direct_sum_fqf(q(4, 1), q(4, 3)),
        direct_sum_fqf(q(2, 3), q(2, 3)),
        direct_sum_fqf(_block_form(("v", 4)), q(4, 3)),
        direct_sum_fqf(_block_form(("u", 2)), q(2, 5)),
        direct_sum_fqf(_block_form(("v", 8)), _block_form(("v", 8))),
        direct_sum_fqf(q(3, 4), q(3, 4)),
        direct_sum_fqf(q(27, 4), q(27, 2)),
        direct_sum_fqf(q(9, 4), q(9, 4)),
    ]
    for kind, form in forms + [(None, form) for form in sums]:
        (p,) = prime_factors(form.group_order)
        if kind is None:
            assert len(_scales(form, p)) == 1 and len(_split_blocks(form, p)) == 2
        else:
            assert [b[0] for b in _split_blocks(form, p)] == [kind]
        assert milgram_signature(form) == brute_gauss_signature(form.orders, form.values), form


def test_degenerate_forms_raise_nonwitt():
    u2 = discriminant_form(standard_lattice("U2"))
    d4 = discriminant_form(Lattice([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0],
                                    [0, -1, 0, 2]]))
    three = FiniteQuadraticForm((3,), [[Fraction(2, 3)]])
    q_nonzero = [
        FiniteQuadraticForm((2,), [[Fraction(1)]]),
        FiniteQuadraticForm((4,), [[Fraction(1)]]),
        _form_on_subgroup(d4, [[1, 0]]),
        direct_sum_fqf(three, FiniteQuadraticForm((2,), [[Fraction(1)]])),
    ]
    isotropic = next(x for x in u2.elements() if any(x) and u2.q_of(x) == 0)
    q_zero = [
        FiniteQuadraticForm((2,), [[Fraction(0)]]),
        FiniteQuadraticForm((3,), [[Fraction(0)]]),
        FiniteQuadraticForm((4,), [[Fraction(1, 2)]]),
        FiniteQuadraticForm((9,), [[Fraction(6, 9)]]),
        _form_on_subgroup(u2, [list(isotropic)]),
        direct_sum_fqf(u2, FiniteQuadraticForm((5,), [[Fraction(0)]])),
    ]
    for zero, forms in ((False, q_nonzero), (True, q_zero)):
        for form in forms:
            radical = brute_radical(form.orders, form.values)
            assert len(radical) > 1
            assert all(q == 0 for _, q in radical) == zero
            if not zero:
                # the Gauss sum vanishes
                assert brute_gauss_signature(form.orders, form.values) is None
            with pytest.raises(NonWitt):
                milgram_signature(form)
            with pytest.raises(NonWitt):
                exists_even_lattice((form.num_gens, 0), form)


def _random_basis(form, rng):
    """form on a seeded random basis with the same generator orders."""
    elems = list(form.elements())
    while True:
        rows = [rng.choice([x for x in elems if form.element_order(x) == d]) for d in form.orders]
        if subgroup_order(form, subgroup_matrix(form, rows)) == form.group_order:
            return _presented(form, rows, form.orders)


def test_cli_exists_on_degenerate_form_is_a_nonwitt_envelope(tmp_path, capsys):
    path = tmp_path / "degenerate.json"
    path.write_text('{"invariant_factors": [2, 3], "q": [[[1, 1], [0, 1]], [[0, 1], [0, 1]]]}')
    code = main(["--json", "nikulin-exists", "--signature", "[2,0]", "--fqf-file", str(path)])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "NonWitt"


def _split_outcome(f, p):
    try:
        return repr(fqf._split_blocks(f, p))
    except Degenerate as exc:
        return "Degenerate: %s" % exc


def _random_two_group_form(rng, k, orders):
    """A seeded form on k generators of the given orders: q(e_i) = s / d_i
    and b(e_i, e_j) = r / gcd(d_i, d_j); degenerate ones included."""
    ds = [rng.choice(orders) for _ in range(k)]
    zero = rng.choice((0.0, 0.5, 0.8))
    vals = [[Fraction(0)] * k for _ in range(k)]
    for i, di in enumerate(ds):
        vals[i][i] = Fraction(rng.randrange(2 * di), di)
        for j in range(i):
            if rng.random() >= zero:
                vals[i][j] = vals[j][i] = Fraction(rng.randrange(math.gcd(di, ds[j])),
                                                   math.gcd(di, ds[j]))
    return FiniteQuadraticForm(ds, vals)


def _split_forms(rng):
    """Discriminant forms of seeded sparse even lattices of rank 1 to 9,
    seeded (Z/2)^k forms with k <= 12 and 2-group forms of orders 2, 4, 8,
    the small forms and quotients of `_small_forms`, and on small lattices
    the difference form and the graph quotient of the datum found."""
    forms = []
    while len(forms) < 150:
        n = rng.randint(1, 9)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
            for j in range(i):
                if rng.random() < 0.4:
                    g[i][j] = g[j][i] = rng.randint(-3, 3)
        try:
            forms.append(discriminant_form(Lattice(g)))
        except Degenerate:
            pass
    forms += [_random_two_group_form(rng, rng.randint(1, 12), (2,)) for _ in range(400)]
    forms += [_random_two_group_form(rng, rng.randint(1, 8), (2, 4, 8)) for _ in range(200)]
    forms += _small_forms(rng, 60, 400)
    for g in ([[2]], [[-2]], [[4]], [[-4, 2], [2, -4]], [[2, 1], [1, -2]], [[4, 0], [0, 4]],
              [[-2, 0], [0, 2]], [[-2, -1, 0], [-1, -2, -1], [0, -1, -4]]):
        lat = Lattice(g)
        fl = discriminant_form(lat)
        forms.append(nikulin._difference_form(fl))
        try:
            datum = nikulin.find_embedding_datum(lat)
        except EnrLatError:
            continue
        forms.append(nikulin._graph_quotient(fl, datum.h_l, datum.gamma)[0])
    return forms


# sha256 of every `_split_blocks(f, p)` outcome, the block tuple or the
# Degenerate message, on `_split_forms` at each prime of the group order
SPLIT_DIGEST = "966b21f61f754a206cfda5134d335dc2b81bc280b2d622aa525ad53a909a25bd"


def test_split_blocks_outcomes_are_pinned():
    lines = [_split_outcome(f, p) for f in _split_forms(random.Random(28))
             for p in prime_factors(f.group_order)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SPLIT_DIGEST


# -- trusted constructions and kept readings ---------------------------------

@st.composite
def _valid_forms(draw):
    """A form on up to four generators of orders 2 to 12: q(e_i) = s / d_i
    with s even at odd d_i (any s at even d_i, so odd 2-adic diagonals
    occur) and b(e_i, e_j) = r / gcd(d_i, d_j); degenerate ones included."""
    orders = draw(st.lists(st.sampled_from((2, 3, 4, 5, 6, 8, 9, 12)), max_size=4))
    vals = [[Fraction(0)] * len(orders) for _ in orders]
    for i, d in enumerate(orders):
        s = draw(st.integers(0, 2 * d - 1))
        vals[i][i] = Fraction(s - s % 2 * (d % 2), d)
        for j, e in enumerate(orders[:i]):
            g = math.gcd(d, e)
            vals[i][j] = vals[j][i] = Fraction(draw(st.integers(0, g - 1)), g)
    return FiniteQuadraticForm(orders, vals)


def _value(f):
    return f.orders, f.den, f.qmat


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(f=_valid_forms())
def test_negation_is_the_checked_negation(f):
    # negate_fqf skips the checks of `over`; it must give what they give
    neg = negate_fqf(f)
    checked = FiniteQuadraticForm.over(f.orders, [[-x for x in r] for r in f.qmat], f.den)
    assert _value(neg) == _value(checked)
    assert negate_fqf(neg) == f


# 3e on Z/6 with q(e) = 1/6 has q = 9/6: the scaled matrix shares 3 with den
_SIXTH = FiniteQuadraticForm([6], [[Fraction(1, 6)]])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(f=_valid_forms())
@example(f=trivial_form())
@example(f=_SIXTH)
def test_p_part_is_the_checked_p_part(f):
    # p_part skips the checks of `over` on the gram of its generators; at
    # 7, which divides no order drawn, the p-part is trivial
    for p in (2, 3, 5, 7):
        coords, orders = _p_coords(f, p)
        checked = FiniteQuadraticForm.over(orders, gram_of_rows(coords, f.qmat), f.den)
        assert _value(p_part(f, p)) == _value(checked)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(f1=_valid_forms(), f2=_valid_forms())
@example(f1=trivial_form(), f2=_SIXTH)
@example(f1=_SIXTH, f2=trivial_form())
@example(f1=trivial_form(), f2=trivial_form())
def test_direct_sum_is_the_checked_direct_sum(f1, f2):
    # direct_sum_fqf skips the checks of the constructor on the block
    # diagonal of the two value matrices
    k1, k2 = f1.num_gens, f2.num_gens
    checked = FiniteQuadraticForm(f1.orders + f2.orders,
                                  [list(r) + [0] * k2 for r in f1.values]
                                  + [[0] * k1 + list(r) for r in f2.values])
    assert _value(direct_sum_fqf(f1, f2)) == _value(checked)


def test_unchecked_builds_meet_their_edge_cases():
    part = p_part(_SIXTH, 2)
    assert (part.orders, part.den, part.qmat) == ((2,), 2, ((3,),))
    assert p_part(_SIXTH, 7) == trivial_form() == p_part(trivial_form(), 2)
    assert direct_sum_fqf(trivial_form(), _SIXTH) == _SIXTH == direct_sum_fqf(_SIXTH, trivial_form())


def test_kept_graph_quotients_equal_a_cold_rebuild(stores):
    """Every graph quotient the gluing sweep keeps, and the complement's
    form kept with it, read back from the store unchecked, have the values
    of those built from an empty store and of checked constructions of
    their values; the kept K is the cold canonical_form(negate_fqf(quot))."""
    _gluing_outcomes(_gram_sweep(), lambda: None)
    kept = list(stores["_GLUED"])
    assert len(kept) > 30 and sum(1 for key in kept if key[3]) > 15
    glued = stores["_GLUED"]
    for orders, den, qmat, h_l, gamma in kept:
        fl = FiniteQuadraticForm.over(orders, qmat, den)
        glued.clear()
        cold, cold_k = nikulin._graph_quotient(fl, h_l, gamma)
        hits = glued.hits
        warm, warm_k = nikulin._graph_quotient(fl, h_l, gamma)
        assert glued.hits == hits + 1 and warm is not cold and warm_k is not cold_k
        assert _value(warm) == _value(cold) == _value(
            FiniteQuadraticForm.over(cold.orders, cold.qmat, cold.den))
        k = canonical_form(negate_fqf(cold))
        assert _value(warm_k) == _value(cold_k) == _value(k) == _value(
            FiniteQuadraticForm.over(k.orders, k.qmat, k.den))


def test_graph_quotients_have_orders_that_divide_one_another(monkeypatch, stores):
    """Every graph quotient of the gluing sweep, built or read back, has
    orders that divide one another, since quotient_form names its
    generators by a Smith form: K = negate_fqf(quot) is then its own
    canonical_form, so _graph_quotient keeps K with no canonical_form."""
    seen = []
    graph_quotient = nikulin._graph_quotient

    def recorded(*args):
        seen.append(graph_quotient(*args))
        return seen[-1]

    monkeypatch.setattr(nikulin, "_graph_quotient", recorded)
    _gluing_outcomes(_gram_sweep(), lambda: None)
    assert len(seen) > 30 and any(len(set(quot.orders)) > 1 for quot, _ in seen)
    for quot, k in seen:
        assert all(b % a == 0 for a, b in zip(quot.orders, quot.orders[1:]))
        assert _value(k) == _value(negate_fqf(quot)) == _value(canonical_form(k))


def _readings(f):
    """The signature of f and its `_scales` at each prime of its order, or
    the type and message of what each call raised."""
    out = []
    for p in [None, *prime_factors(f.group_order)]:
        try:
            out.append(milgram_signature(f) if p is None else _scales(f, p))
        except EnrLatError as exc:
            out.append((type(exc).__name__, str(exc)))
    return out


def test_kept_readings_equal_those_of_a_fresh_form(monkeypatch, stores):
    """Each form built along the gluing sweep, read from what the sweep
    left in `_LOCAL` and once more, reads the signature and scales of a
    fresh form of the same value split from empty stores."""
    built = []
    keep = FiniteQuadraticForm._keep

    def recorded(self, *args):
        keep(self, *args)
        built.append(self)

    monkeypatch.setattr(FiniteQuadraticForm, "_keep", recorded)
    _gluing_outcomes(_gram_sweep(), lambda: None)
    monkeypatch.setattr(FiniteQuadraticForm, "_keep", keep)
    warmed = sum((f.orders, f.den, f.qmat) in stores["_LOCAL"] for f in built)
    assert warmed > 80
    read = [(_readings(f), _readings(f)) for f in built]
    for f, (first, second) in zip(built, read):
        for store in stores.values():
            store.clear()
        assert first == second == _readings(FiniteQuadraticForm.over(f.orders, f.qmat, f.den))


def test_a_capped_reading_keeps_nothing(stores):
    big = FiniteQuadraticForm((1 << 23,), [[Fraction(1, 1 << 23)]])
    raised = []
    for call in [milgram_signature, lambda f: exists_even_lattice((1, 0), f)] * 2:
        with pytest.raises(CapExceeded) as exc:
            call(big)
        raised.append(str(exc.value))
    assert len(set(raised)) == 1
    assert not stores["_LOCAL"] and stores["_LOCAL"].misses == 0
