import json
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from enrlat.cli import main
from enrlat.errors import Degenerate, NonWitt, NotSubgroup
from enrlat.fqf import (
    FiniteQuadraticForm,
    _q_fingerprint,
    _walk,
    canonical_form,
    direct_sum_fqf,
    discriminant_form,
    form_on_subgroup,
    fqf_isomorphic,
    milgram_signature,
    negate_fqf,
    odd_jordan,
    p_part,
    perp_subgroup,
    subgroup_order,
    quotient_form,
    splits_unit_block,
    subgroup_matrix,
    trivial_form,
    two_adic_jordan,
    verify_fqf_iso,
)
from enrlat.intmat import prime_factors
from enrlat.nikulin import exists_even_lattice
from enrlat.lattice import Lattice, direct_sum, standard_lattice

from _oracles import (
    brute_b,
    brute_gauss_signature,
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


def test_walk_kernel_against_product_q_of_and_brute_histogram():
    rng = random.Random(101)
    for _ in range(12):
        form = discriminant_form(random_even_lattice(rng, max_rank=3, det_cap=80))
        if form.is_trivial:
            continue
        # the whole group, then the subgroup spanned by two random elements
        gens = [list(form.reduce([rng.randint(1, 7) for _ in form.orders])) for _ in range(2)]
        gens = [g for g in gens if any(g)]
        sub_values = [
            [form.q_of(x) if i == j else form.b_of(x, y) for j, y in enumerate(gens)]
            for i, x in enumerate(gens)
        ]
        units = [[int(i == j) for j in range(form.num_gens)] for i in range(form.num_gens)]
        for orders, values, basis in (
            (form.orders, form.values, units),
            (tuple(form.element_order(g) for g in gens), sub_values, gens),
        ):
            walked = FiniteQuadraticForm(orders, values)
            qnums = list(_walk(walked))
            m = walked.den
            assert len(qnums) == walked.group_order
            assert list(walked.elements()) == list(product(*[range(d) for d in orders]))
            for coords, qnum in zip(walked.elements(), qnums):
                x = [sum(c * g[j] for c, g in zip(coords, basis))
                     for j in range(form.num_gens)]
                assert Fraction(qnum, m) == form.q_of(x)
            brute = Counter(q for _, q in brute_q_values(orders, values))
            hist = tuple((Fraction(q, m), c) for q, c in _q_fingerprint(walked))
            assert hist == tuple(sorted(brute.items()))


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
    rng = random.Random(73)
    for _ in range(15):
        form = discriminant_form(random_even_lattice(rng))
        parts = [p_part(form, p) for p in prime_factors(form.group_order)]
        if not parts:
            continue
        rebuilt = parts[0]
        for extra in parts[1:]:
            rebuilt = direct_sum_fqf(rebuilt, extra)
        assert fqf_isomorphic(form, rebuilt) is not None


def test_canonical_form_is_stable():
    rng = random.Random(79)
    for _ in range(10):
        form = discriminant_form(random_even_lattice(rng, max_rank=4))
        c1 = canonical_form(form)
        c2 = canonical_form(c1)
        assert c1.orders == c2.orders
        assert c1.values == c2.values


def test_odd_jordan_blocks_multiply_to_group_order():
    rng = random.Random(83)
    for _ in range(10):
        form = discriminant_form(random_even_lattice(rng))
        for p in prime_factors(form.group_order):
            if p == 2:
                continue
            blocks = odd_jordan(form, p)
            total = 1
            for scale, _ in blocks:
                total *= scale
            assert total == p_part(form, p).group_order


def test_two_adic_jordan_covers_group():
    rng = random.Random(89)
    for _ in range(10):
        form = discriminant_form(random_even_lattice(rng))
        blocks = two_adic_jordan(form)
        total = 1
        for blk in blocks:
            if blk[0] == "q":
                total *= blk[1]
            else:
                total *= blk[1] ** 2
        assert total == p_part(form, 2).group_order


def test_splits_unit_block_examples():
    yes = discriminant_form(Lattice([[2]]))
    assert splits_unit_block(yes)
    no = discriminant_form(Lattice([[-4]]))
    assert not splits_unit_block(no)
    assert not splits_unit_block(trivial_form())


def test_quotient_by_isotropic_divides_order_by_square():
    lat = Lattice([[4, 0], [0, 4]])
    form = discriminant_form(lat)
    smat = subgroup_matrix(form, [[2, 2]])
    tmat = perp_subgroup(form, [[2, 2]])
    assert subgroup_order(form, tmat) == 8
    quo, qmap = quotient_form(form, tmat, smat)
    assert quo.group_order == 8 // 2
    for i, amb in enumerate(qmap.gens_in_ambient):
        unit = [0] * quo.num_gens
        unit[i] = 1
        assert quo.q_of(unit) == form.q_of(amb) % 2
    assert not any(qmap.to_coords([2, 2]))


def test_subgroup_solves_reject_what_lies_outside():
    form = discriminant_form(Lattice([[4, 0], [0, 4]]))
    smat = subgroup_matrix(form, [[2, 2]])
    tmat = perp_subgroup(form, [[2, 2]])
    _, qmap = quotient_form(form, tmat, smat)
    # (1, 0) pairs to 1/2 with (2, 2), so it is not in the numerator
    with pytest.raises(NotSubgroup):
        qmap.to_coords([1, 0])
    with pytest.raises(NotSubgroup):
        quotient_form(form, smat, tmat)


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


def test_degenerate_two_elementary_forms_get_a_verified_map():
    # integral values but a zero pairing: the backtracking search swaps
    # the two generators, there being no symplectic splitting to find
    a = FiniteQuadraticForm((2, 2), [[0, 0], [0, 1]])
    b = FiniteQuadraticForm((2, 2), [[1, 0], [0, 0]])
    iso = fqf_isomorphic(a, b)
    assert iso == [[0, 1], [1, 0]]
    assert verify_fqf_iso(a, b, iso)


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


def test_form_on_subgroup_takes_any_generators_of_the_subgroup():
    # [[4]] generates the same order-3 subgroup of Z/6 as [[2]]; a list of
    # generators is never mistaken for a subgroup matrix
    form = FiniteQuadraticForm((6,), [[Fraction(1, 6)]])
    two, coords2 = form_on_subgroup(form, [[2]])
    four, coords4 = form_on_subgroup(form, [[4]])
    assert two == four and coords2 == coords4
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
            quo, _ = quotient_form(form, perp_subgroup(form, [list(iso)]), smat)
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
            assert form.b_of(x, y) == brute_b(form.values, x, y)
            # the integer matrix over the denominator is the same form
            assert form.q_num(x) == form.q_of(x) * form.den
            assert form.b_num(x, y) == form.b_of(x, y) * form.den


def _block_form(block):
    if block[0] == "q":
        return FiniteQuadraticForm((block[1],), [[block[2]]])
    s = block[1]
    diag = Fraction(0) if block[0] == "u" else Fraction(2, s)
    return FiniteQuadraticForm((s, s), [[diag, Fraction(1, s)], [Fraction(1, s), diag]])


def test_jordan_blocks_sum_to_the_form():
    rng = random.Random(137)
    kinds = Counter()
    for form in _small_forms(rng, 60, 4096):
        total = trivial_form()
        for p in prime_factors(form.group_order):
            if p == 2:
                blocks = two_adic_jordan(form)
            else:
                blocks = [("q", scale, value) for scale, value in odd_jordan(form, p)]
            for blk in blocks:
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
            got = two_adic_jordan(form) if p == 2 else odd_jordan(form, p)
            assert [b[1] for b in walked] == [b[1] if p == 2 else b[0] for b in got]
        for rank in range(form.num_gens, form.num_gens + 3):
            for tpos in range(rank + 1):
                sig = (tpos, rank - tpos)
                want = reference_exists_even_lattice(sig, form.orders, form.values)
                assert exists_even_lattice(sig, form) == want
    assert checked[True] and checked[False]


def _brute_histogram(form):
    hist = Counter(q for _, q in brute_q_values(form.orders, form.values))
    return tuple(sorted(hist.items()))


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
    for kind, form in forms:
        (p,) = prime_factors(form.group_order)
        blocks = two_adic_jordan(form) if p == 2 else [("q",) + b for b in odd_jordan(form, p)]
        assert [b[0] for b in blocks] == [kind]
        assert milgram_signature(form) == brute_gauss_signature(form.orders, form.values), form


def test_degenerate_forms_raise_nonwitt():
    u2 = discriminant_form(standard_lattice("U2"))
    d4 = discriminant_form(Lattice([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0],
                                    [0, -1, 0, 2]]))
    three = FiniteQuadraticForm((3,), [[Fraction(2, 3)]])
    q_nonzero = [
        FiniteQuadraticForm((2,), [[Fraction(1)]]),
        FiniteQuadraticForm((4,), [[Fraction(1)]]),
        form_on_subgroup(d4, [[1, 0]])[0],
        direct_sum_fqf(three, FiniteQuadraticForm((2,), [[Fraction(1)]])),
    ]
    isotropic = next(x for x in u2.elements() if any(x) and u2.q_of(x) == 0)
    q_zero = [
        FiniteQuadraticForm((2,), [[Fraction(0)]]),
        FiniteQuadraticForm((3,), [[Fraction(0)]]),
        FiniteQuadraticForm((4,), [[Fraction(1, 2)]]),
        FiniteQuadraticForm((9,), [[Fraction(6, 9)]]),
        form_on_subgroup(u2, [list(isotropic)])[0],
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


def test_q_fingerprint_on_multi_prime_and_degenerate_forms():
    rng = random.Random(149)
    forms = [
        FiniteQuadraticForm((12, 6, 5), [[Fraction(1, 12), Fraction(1, 6), 0],
                                         [Fraction(1, 6), Fraction(1, 3), 0],
                                         [0, 0, Fraction(4, 5)]]),
        direct_sum_fqf(discriminant_form(Lattice([[4, 2], [2, 8]])),
                       discriminant_form(Lattice([[6, 3], [3, 10]]))),
        FiniteQuadraticForm((6,), [[Fraction(3)]]),
        FiniteQuadraticForm((10, 3), [[Fraction(1, 5), 0], [0, Fraction(0)]]),
    ]
    degenerate = 0
    for form in _small_forms(rng, 30, 2000):
        forms.append(form)
        gens = [[rng.randrange(d) for d in form.orders]]
        sub = form_on_subgroup(form, gens)[0]
        if not sub.is_trivial:
            forms.append(sub)
            degenerate += len(brute_radical(sub.orders, sub.values)) > 1
    assert degenerate
    for form in forms:
        hist = tuple((Fraction(q, form.den), c) for q, c in _q_fingerprint(form))
        assert hist == _brute_histogram(form)
    assert sum(len(prime_factors(f.group_order)) > 1 for f in forms) > 5


def test_cli_exists_on_degenerate_form_is_a_nonwitt_envelope(tmp_path, capsys):
    path = tmp_path / "degenerate.json"
    path.write_text('{"invariant_factors": [2, 3], "q": [[[1, 1], [0, 1]], [[0, 1], [0, 1]]]}')
    code = main(["--json", "nikulin-exists", "--signature", "[2,0]", "--fqf-file", str(path)])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "NonWitt"
