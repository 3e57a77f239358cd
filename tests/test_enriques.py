import random

import pytest

from enrlat.enriques import (
    ambient,
    epsilon,
    generate_isometry,
    involution_eigenlattices,
    is_twice_even,
)
from enrlat.errors import BadLength, BadShape
from enrlat.intmat import mat_mul, transpose
from enrlat.lattice import standard_lattice


def test_epsilon_on_basis_vectors():
    """Only the two hyperbolic coordinates enter the parity."""
    for i in range(12):
        v = [0] * 12
        v[i] = 1
        assert epsilon(v) == (1 if i < 2 else 0)


def test_epsilon_requires_length_twelve():
    with pytest.raises(BadLength):
        epsilon([1, 0, 0])


def test_epsilon_is_linear_mod_two():
    rng = random.Random(103)
    for _ in range(200):
        x = [rng.randint(-9, 9) for _ in range(12)]
        y = [rng.randint(-9, 9) for _ in range(12)]
        s = [a + b for a, b in zip(x, y)]
        assert epsilon(s) == (epsilon(x) + epsilon(y)) % 2


def test_norm_two_mod_four_forces_zero_parity():
    rng = random.Random(107)
    amb = ambient()
    hits = 0
    while hits < 300:
        x = [rng.randint(-9, 9) for _ in range(12)]
        if amb.norm(x) % 4 != 2:
            continue
        assert epsilon(x) == 0
        hits += 1


def test_parity_one_vectors_have_norm_zero_mod_four():
    # contrapositive of the same statement, on even-norm vectors
    rng = random.Random(109)
    amb = ambient()
    hits = 0
    while hits < 300:
        x = [rng.randint(-9, 9) for _ in range(12)]
        if epsilon(x) != 1:
            continue
        assert amb.norm(x) % 4 == 0
        hits += 1


def test_is_twice_even():
    assert is_twice_even(standard_lattice("U2").gram)
    assert is_twice_even(standard_lattice("E82").gram)
    assert not is_twice_even(standard_lattice("U").gram)
    assert not is_twice_even([[2]])
    assert is_twice_even([])


def test_involution_split_shapes():
    split = involution_eigenlattices()
    m = standard_lattice("M")
    n = standard_lattice("N")
    assert split.plus.gram == m.gram
    assert split.minus.gram == n.gram
    assert split.index == 1024


def test_involution_pieces_are_orthogonal():
    split = involution_eigenlattices()
    lam = standard_lattice("Lambda")
    for a in split.plus_rows:
        for b in split.minus_rows:
            assert lam.bilinear(list(a), list(b)) == 0


def test_generated_isometries_preserve_gram_and_parity():
    amb = ambient()
    g = [list(r) for r in amb.gram]
    rng = random.Random(113)
    for i in range(40):
        mat = [list(r) for r in generate_isometry(1000 + i, rng.randint(1, 12))]
        assert mat_mul(mat_mul(mat, g), transpose(mat)) == g
        for _ in range(8):
            x = [rng.randint(-5, 5) for _ in range(12)]
            y = [sum(x[r] * mat[r][c] for r in range(12)) for c in range(12)]
            assert epsilon(y) == epsilon(x)


def test_generated_isometries_are_deterministic():
    a = generate_isometry(42, 7)
    b = generate_isometry(42, 7)
    assert a == b
    c = generate_isometry(43, 7)
    assert c != a


@pytest.mark.parametrize("length", [2.5, 7.0, True, "7", None, -3])
def test_generated_isometry_rejects_a_malformed_length(length):
    with pytest.raises(BadShape, match="length: .* is (not an integer|negative)"):
        generate_isometry(42, length)
