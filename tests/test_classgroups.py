import pytest

from enrlat.classgroups import (
    class_group,
    class_number_nonmaximal,
    cm_report,
    fundamental_split,
    is_fundamental,
    prime2_splitting,
    ray_class2_order,
    reduce_form,
)
from enrlat.errors import BadCongruence, BadShape, NotFundamental, NotImaginary
from enrlat.intmat import prime_factors

from _oracles import reduced_forms_by_direct_scan


KNOWN_CLASS_NUMBERS = {
    -3: 1,
    -4: 1,
    -7: 1,
    -8: 1,
    -11: 1,
    -15: 2,
    -20: 2,
    -23: 3,
    -24: 2,
    -31: 3,
    -47: 5,
    -71: 7,
    -163: 1,
    -408: 4,
}


def test_class_numbers_frozen():
    for disc, h in KNOWN_CLASS_NUMBERS.items():
        assert class_group(disc).h == h, disc


def test_class_group_rejects_bad_discriminants():
    with pytest.raises(NotImaginary):
        class_group(5)
    with pytest.raises(BadCongruence):
        class_group(-5)
    for bad in (-3.0, -4.0, True, "-3"):
        for call in (class_group, fundamental_split, is_fundamental):
            with pytest.raises(BadShape, match="disc: .* is not an integer"):
                call(bad)
    # a conductor of True is no conductor 1
    for bad in (2.5, 1.0, True, "2", None):
        with pytest.raises(BadShape, match="conductor: .* is not an integer"):
            class_number_nonmaximal(-4, bad)


def test_forms_agree_with_independent_scan():
    for disc in range(-3, -400, -1):
        if disc % 4 not in (0, 1):
            continue
        got = sorted(class_group(disc).forms)
        assert got == reduced_forms_by_direct_scan(disc), disc


def test_reduce_form_lands_on_listed_form():
    group = class_group(-47)
    listed = set(group.forms)
    assert reduce_form((2, -3, 7)) in listed
    assert reduce_form((6, 1, 2)) in listed
    assert reduce_form((1, -1, 5)) == (1, 1, 5)  # b on the boundary
    # reduction is idempotent
    for f in group.forms:
        assert reduce_form(f) == f


def test_ambiguous_count_is_two_power_genus_count():
    # number of ambiguous classes is 2^(t-1) with t the number of prime
    # discriminant factors, one per prime dividing the discriminant
    for disc in (-15, -20, -24, -84, -120, -420):
        t = len(prime_factors(disc))
        assert class_group(disc).ambiguous_count == 2 ** (t - 1), disc


def test_fundamental_split_frozen():
    assert fundamental_split(-75) == (5, -3)
    assert fundamental_split(-304) == (4, -19)
    assert fundamental_split(-4) == (1, -4)


def test_fundamental_split_reassembles():
    for disc in range(-3, -300, -1):
        if disc % 4 not in (0, 1):
            continue
        f, d0 = fundamental_split(disc)
        assert is_fundamental(d0)
        assert f * f * d0 == disc


def test_prime2_splitting():
    assert prime2_splitting(-8) == "ramified"
    assert prime2_splitting(-4) == "ramified"
    assert prime2_splitting(-7) == "split"
    assert prime2_splitting(-3) == "inert"
    assert prime2_splitting(-23) == "split"
    assert prime2_splitting(-19) == "inert"
    with pytest.raises(NotFundamental):
        prime2_splitting(-12)


def test_ray_order_frozen_and_tripling():
    assert ray_class2_order(-23) == 3
    assert ray_class2_order(-7) == 1
    for disc in range(-5, -200, -1):
        if disc % 8 != 5 or not is_fundamental(disc):
            continue
        h = class_group(disc).h
        assert ray_class2_order(disc) == 3 * h
        assert ray_class2_order(disc) == class_group(4 * disc).h


def test_ray_order_matches_dual_order_everywhere():
    for disc in range(-3, -120, -1):
        if disc % 4 not in (0, 1) or not is_fundamental(disc):
            continue
        assert ray_class2_order(disc) == class_group(4 * disc).h, disc


def test_nonmaximal_class_number_formula():
    # h(f^2 d0) computed by the conductor formula equals direct enumeration
    for disc in (-12, -16, -27, -28, -32, -48, -75, -99, -100, -147):
        f, d0 = fundamental_split(disc)
        assert class_number_nonmaximal(d0, f) == class_group(disc).h, disc


def test_cm_report_frozen_applies():
    r = cm_report([[2, 1], [1, 10]])
    assert r.disc == -19
    assert r.reduced_form == (1, 1, 5)
    assert r.splitting == "inert"
    assert r.end_is_maximal
    assert r.applies
    assert r.index == 3


def test_cm_report_exceptional_discriminant():
    r = cm_report([[2, 1], [1, 2]])
    assert r.fundamental_disc == -3
    assert not r.applies
    assert r.index == 1


def test_cm_report_ramified_case():
    r = cm_report([[4, 0], [0, 4]])
    assert r.splitting == "ramified"
    assert not r.applies


def test_cm_report_split_case():
    r = cm_report([[2, 1], [1, 4]])
    assert r.disc == -7
    assert r.splitting == "split"
    assert not r.applies


def test_cm_report_nonmaximal_order():
    r = cm_report([[4, 2], [2, 4]])
    assert r.disc == -12
    assert r.conductor == 2
    assert r.content == 2
    # the conductor equals the content here, so the order is maximal
    assert r.end_is_maximal


def test_applies_implies_index_three():
    import random

    rng = random.Random(139)
    seen_applies = 0
    for _ in range(300):
        a, b = rng.randint(1, 9), rng.randint(-9, 9)
        c = rng.randint(1, 9)
        if 4 * a * c - b * b <= 0:
            continue
        r = cm_report([[2 * a, b], [b, 2 * c]])
        if r.applies:
            assert r.index == 3
            assert r.end_is_maximal
            assert r.splitting == "inert"
            seen_applies += 1
        else:
            assert r.index == 1
    assert seen_applies > 5
