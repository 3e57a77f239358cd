"""Reduced binary quadratic forms, class numbers, splitting of two, and the
endomorphism report for definite rank-2 even lattices."""

from dataclasses import dataclass
from math import gcd, isqrt

from .errors import (
    BadCongruence,
    BadShape,
    CapExceeded,
    NotEvenGram,
    NotFundamental,
    NotImaginary,
    NotPositiveDefinite,
)
from .intmat import legendre, prime_factors
from .lattice import _check_gram, _int


def _check_disc(disc):
    if _int(disc, "disc") >= 0:
        raise NotImaginary("a negative discriminant is required")
    if disc % 4 not in (0, 1):
        raise BadCongruence("a discriminant is 0 or 1 modulo 4")


@dataclass(frozen=True)
class ClassGroup:
    disc: int
    forms: tuple
    h: int
    ambiguous_count: int


# the pairs (b, a) `class_group` walks before it gives up
CLASS_GROUP_CAP = 1 << 20


def class_group(disc):
    """All reduced primitive positive forms of the given discriminant.

    The walk over b and then a takes about |disc| / 7 pairs (b, a). Before
    walking the a of one b it counts them, and raises CapExceeded when
    they would take the total past CLASS_GROUP_CAP.
    """
    _check_disc(disc)
    absd = -disc
    forms = []
    spent = 0
    b = absd % 2
    while b * b <= absd // 3:
        ac4 = b * b + absd
        if ac4 % 4 == 0:
            ac = ac4 // 4
            a = max(b, 1)
            more = isqrt(ac) - a + 1
            if spent + more > CLASS_GROUP_CAP:
                raise CapExceeded(
                    "class group search spent %d pairs (b, a) and needs %d more, "
                    "over its cap of %d" % (spent, more, CLASS_GROUP_CAP))
            spent += more
            while a * a <= ac:
                if ac % a == 0:
                    c = ac // a
                    if gcd(gcd(a, b), c) == 1:
                        forms.append((a, b, c))
                        if b and b < a and a < c:
                            forms.append((a, -b, c))
                a += 1
        b += 2
    forms.sort()
    ambiguous = sum(1 for (a, b, c) in forms if b == 0 or a == b or a == c)
    return ClassGroup(disc, tuple(forms), len(forms), ambiguous)


def reduce_form(form):
    """Reduced representative of a positive definite binary form."""
    a, b, c = form
    if a <= 0 or b * b - 4 * a * c >= 0:
        raise NotPositiveDefinite("a positive definite form is required")
    while True:
        if -a < b <= a <= c and (b >= 0 or a != c):
            return (a, b, c)
        if c < a or (c == a and b < 0):
            a, b, c = c, -b, a
            continue
        shift = ((b + a) % (2 * a)) - a
        if shift == -a:
            # boundary case b = -a mod 2a must land on +a, not -a
            shift = a
        c = c + (shift * shift - b * b) // (4 * a)
        b = shift


def fundamental_split(disc):
    """Write the discriminant as conductor^2 times a fundamental one."""
    _check_disc(disc)
    square = 1
    for p, e in prime_factors(-disc).items():
        square *= p ** (e // 2)
    core = disc // (square * square)
    if core % 4 == 1:
        return square, core
    assert square % 2 == 0
    return square // 2, 4 * core


def is_fundamental(disc):
    _check_disc(disc)
    return fundamental_split(disc)[0] == 1


def prime2_splitting(disc):
    """Behavior of the prime two in the maximal order."""
    if not is_fundamental(disc):
        raise NotFundamental("%d is not fundamental" % disc)
    if disc % 2 == 0:
        return "ramified"
    return "split" if disc % 8 == 1 else "inert"


def _unit_halved(disc):
    if disc == -3:
        return 3
    if disc == -4:
        return 2
    return 1


def ray_class2_order(disc):
    """Order of the quotient ray group at the modulus two."""
    if not is_fundamental(disc):
        raise NotFundamental("%d is not fundamental" % disc)
    h = class_group(disc).h
    mult = {"inert": 3, "split": 1, "ramified": 2}[prime2_splitting(disc)]
    e = _unit_halved(disc)
    num = h * mult
    assert num % e == 0
    value = num // e
    cross = class_group(4 * disc).h
    assert value == cross, (disc, value, cross)
    return value


def kronecker2(disc):
    if disc % 2 == 0:
        return 0
    return 1 if disc % 8 in (1, 7) else -1


def class_number_nonmaximal(d0, conductor):
    """Class number of the order of conductor f inside the maximal order."""
    if not is_fundamental(d0):
        raise NotFundamental("%d is not fundamental" % d0)
    if _int(conductor, "conductor") < 1:
        raise BadShape("the conductor must be positive")
    h0 = class_group(d0).h
    if conductor == 1:
        return h0
    num = h0 * conductor
    for p in prime_factors(conductor):
        chi = kronecker2(d0) if p == 2 else legendre(d0 % p, p)
        num = num // p * (p - chi)
    e = _unit_halved(d0)
    assert num % e == 0
    return num // e


@dataclass(frozen=True)
class CmReport:
    gram: tuple
    form: tuple
    reduced_form: tuple
    disc: int
    conductor: int
    fundamental_disc: int
    content: int
    end_is_maximal: bool
    splitting: str
    applies: bool
    index: int


def cm_report(gram):
    """Endomorphism data of a positive definite even rank-2 lattice and
    whether the index-3 conclusion applies."""
    _check_gram(gram)
    if len(gram) != 2:
        raise BadShape("a two-by-two matrix is required")
    if gram[0][0] % 2 or gram[1][1] % 2:
        raise NotEvenGram("diagonal entries must be even")
    a, b, c = gram[0][0] // 2, gram[0][1], gram[1][1] // 2
    disc = b * b - 4 * a * c
    if a <= 0 or disc >= 0:
        raise NotPositiveDefinite("the lattice must be positive definite")
    conductor, d0 = fundamental_split(disc)
    content = gcd(gcd(a, b), c)
    maximal = conductor == content
    splitting = prime2_splitting(d0)
    applies = maximal and splitting == "inert" and d0 != -3
    return CmReport(
        gram=tuple(tuple(int(x) for x in r) for r in gram),
        form=(a, b, c),
        reduced_form=reduce_form((a, b, c)),
        disc=disc,
        conductor=conductor,
        fundamental_disc=d0,
        content=content,
        end_is_maximal=maximal,
        splitting=splitting,
        applies=applies,
        index=3 if applies else 1,
    )
