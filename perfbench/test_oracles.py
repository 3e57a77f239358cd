"""Tests of the benchmark's own oracles against facts known independently.

    python3 -m pytest perfbench -q
"""

import os
import sys
from fractions import Fraction
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles as orc  # noqa: E402
import workloads  # noqa: E402


def test_theta_counts():
    assert [orc.e8_theta_count(-2 * k) for k in (1, 2, 3, 4)] == [240, 2160, 6720, 17520]
    assert [orc.e8_theta_count(v, 2) for v in (-2, -4, -6, -8, -12)] == [0, 240, 0, 2160, 6720]
    assert orc.e8_theta_count(-3) == 0 and orc.e8_theta_count(2) == 0


def test_box_oracle_counts_roots():
    for kind, n in (("A", 2), ("A", 3), ("A", 4), ("D", 4), ("D", 5), ("E", 6)):
        g = orc.root_lattice_gram(kind, n)
        roots = orc.box_vectors(g, (-2,))[-2]
        assert len(roots) == orc.root_count(kind, n)
        assert all(orc.pairing(v, g, v) == -2 for v in roots)


def test_box_oracle_on_scaled_square_lattice():
    # Z^3 scaled by -2: norm -4 vectors are the 12 with two entries +-1
    g = [[-2 if i == j else 0 for j in range(3)] for i in range(3)]
    found = orc.box_vectors(g, (-2, -4))
    assert len(found[-4]) == 12
    assert found[-2] == {
        v for v in [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]}


def test_gram_helpers():
    assert orc.det_int(orc.e8_gram()) == 1
    assert orc.det_int(orc.N_GRAM) == 1024
    assert orc.det_int([[0, 1], [1, 0]]) == -1
    assert orc.inertia(orc.e8_gram()) == (0, 8)
    assert orc.inertia(orc.N_GRAM) == (2, 10)
    assert orc.inertia([[0, 2], [2, 0]]) == (1, 1)
    inv = orc.inverse([[2, 1], [1, 2]])
    assert inv == [[Fraction(2, 3), Fraction(-1, 3)], [Fraction(-1, 3), Fraction(2, 3)]]


def test_primitivity_and_labels():
    assert orc.maximal_minor_gcd([[1, 2, 3]]) == 1
    assert orc.maximal_minor_gcd([[2, 4, 6]]) == 2
    assert orc.maximal_minor_gcd([[1, 0, 0], [0, 2, 0]]) == 2
    assert orc.maximal_minor_gcd([[1, 0, 0], [0, 2, 1]]) == 1
    assert orc.parity_label([[1, 0] + [0] * 10, [1, 1] + [0] * 10]) == (1, 0)
    assert orc.is_twice_even([[4, 2], [2, -8]]) and not orc.is_twice_even([[2, 0], [0, 4]])


def test_character_bound():
    assert orc.character_bound([[2]]) == [(0,)]
    assert orc.character_bound([[4]]) == [(0,), (1,)]
    # a table shape: every class has norm 0 mod 4, so the bound is everything
    assert len(orc.character_bound(workloads.t_gram(20, (1, 1, 2)))) == 4


def test_discriminant_group_helpers():
    assert orc.invariant_factors_rank_le2([[4, 0], [0, 4]]) == [4, 4]
    assert orc.invariant_factors_rank_le2([[8, 2], [2, 4]]) == [2, 14]
    assert orc.invariant_factors_rank_le2([[-12]]) == [12]
    assert orc.span_size([(2, 0), (0, 2)], (4, 4)) == 4
    assert orc.span_size([(1, 0)], (4, 4)) == 4
    assert orc.span_size([], (4,)) == 1


def test_form_isomorphism_check():
    # the discriminant form of [[4]]: Z/4 with q(1) = 1/4 mod 2
    f = SimpleNamespace(orders=(4,), values=((Fraction(1, 4),),))
    assert orc.is_form_isomorphism(f, f, [[1]])
    assert orc.is_form_isomorphism(f, f, [[3]])
    assert not orc.is_form_isomorphism(f, f, [[2]])
    g = SimpleNamespace(orders=(4,), values=((Fraction(3, 4),),))
    assert not orc.is_form_isomorphism(f, g, [[1]])


def test_inputs_are_seeded_and_embedded():
    for name, make in workloads.INPUTS.items():
        assert make(7, 2) == make(7, 2), name
        assert make(7, 2) != make(8, 2), name
    for rnd in workloads.gluing_inputs(3, 2):
        for gram in rnd["descent"]:
            assert abs(orc.det_int(gram)) in (4, 16)
    for sets in workloads.tables_inputs(5, 3):
        assert orc.inertia(workloads.t_gram(19, sets[19])) == (2, 1)
        a, b, c = sets[18]
        assert orc.inertia([[4 * a, 2 * b], [2 * b, 4 * c]]) == (1, 1)
    assert sorted(s[17] for s in workloads.tables_inputs(5, 3)) == [(1,), (2,), (3,)]
