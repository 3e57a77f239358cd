"""Independent oracles the tests compare against.

Everything here is deliberately naive: correctness over speed, and no
imports from the package under test beyond plain data.
"""

import cmath
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, pi, sqrt


def _fraction_inverse(m):
    n = len(m)
    a = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        d = a[col][col]
        a[col] = [x / d for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def sigma3(k):
    return sum(d ** 3 for d in range(1, k + 1) if k % d == 0)


def brute_q_values(orders, qvals):
    """(coords, q(x) in [0, 2)) for every element x, in Fraction arithmetic."""
    for coords in product(*[range(d) for d in orders]):
        q = Fraction(0)
        for i, ci in enumerate(coords):
            q += qvals[i][i] * ci * ci
            for j in range(i + 1, len(coords)):
                q += 2 * qvals[i][j] * ci * coords[j]
        yield coords, q % 2


def brute_gauss_signature(orders, qvals):
    """Signature mod 8 of a finite quadratic form by direct complex
    summation of exp(pi i q(x)) over the whole group."""
    total = 0j
    size = 1
    for d in orders:
        size *= d
    for _, q in brute_q_values(orders, qvals):
        total += cmath.exp(1j * pi * float(q))
    if abs(total) < 1e-9:
        return None
    angle = cmath.phase(total / sqrt(size)) / (pi / 4)
    s = round(angle) % 8
    assert abs(angle - round(angle)) < 1e-6
    return s


def snf_diagonal_by_minor_gcds(m):
    """Smith diagonal d1..dr with d_k = gcd(k-minors)/gcd((k-1)-minors)."""
    rows, cols = len(m), len(m[0]) if m else 0
    prev = 1
    out = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in _combos(rows, k):
            for cs in _combos(cols, k):
                g = gcd(g, _minor(m, rs, cs))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def _combos(n, k):
    def rec(start, acc):
        if len(acc) == k:
            yield tuple(acc)
            return
        for i in range(start, n):
            yield from rec(i + 1, acc + [i])

    yield from rec(0, [])


def _minor(m, rs, cs):
    sub = [[Fraction(m[r][c]) for c in cs] for r in rs]
    n = len(sub)
    det = Fraction(1)
    sign = 1
    for col in range(n):
        piv = None
        for r in range(col, n):
            if sub[r][col] != 0:
                piv = r
                break
        if piv is None:
            return 0
        if piv != col:
            sub[col], sub[piv] = sub[piv], sub[col]
            sign = -sign
        det *= sub[col][col]
        for r in range(col + 1, n):
            f = sub[r][col] / sub[col][col]
            sub[r] = [x - f * y for x, y in zip(sub[r], sub[col])]
    det *= sign
    assert det.denominator == 1
    return abs(int(det))


def reduced_forms_by_direct_scan(disc):
    """Reduced primitive positive binary forms, enumerated over a in
    1..sqrt(|D|/3) instead of over b. Independent of the package loop."""
    assert disc < 0 and disc % 4 in (0, 1)
    forms = []
    for a in range(1, isqrt(-disc // 3) + 1):
        for b in range(-a + 1, a + 1):
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            if gcd(gcd(a, abs(b)), c) == 1:
                forms.append((a, b, c))
    return sorted(forms)
