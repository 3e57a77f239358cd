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


def brute_q(qvals, x):
    """q(x) in [0, 2) from the value matrix, in Fraction arithmetic."""
    q = Fraction(0)
    for i, ci in enumerate(x):
        q += qvals[i][i] * ci * ci
        for j in range(i + 1, len(x)):
            q += 2 * qvals[i][j] * ci * x[j]
    return q % 2


def brute_b(qvals, x, y):
    """b(x, y) in [0, 1) from the value matrix, in Fraction arithmetic."""
    return sum(
        (qvals[i][j] * xi * yj for i, xi in enumerate(x) for j, yj in enumerate(y)),
        Fraction(0),
    ) % 1


def brute_q_values(orders, qvals):
    """(coords, q(x) in [0, 2)) for every element x, in Fraction arithmetic."""
    for coords in product(*[range(d) for d in orders]):
        yield coords, brute_q(qvals, coords)


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


def brute_radical(orders, qvals):
    """(x, q(x)) for every x with b(x, y) = 0 for all y, in Fraction
    arithmetic; checking y on the generators suffices."""
    units = [[int(i == j) for j in range(len(orders))] for i in range(len(orders))]
    return [(x, q) for x, q in brute_q_values(orders, qvals)
            if all(brute_b(qvals, x, e) == 0 for e in units)]


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


def _element_order(orders, x):
    out = 1
    for d, c in zip(orders, x):
        g = d // gcd(d, c % d)
        out = out * g // gcd(out, g)
    return out


def _p_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def walk_jordan(orders, qvals, p):
    """Jordan blocks of the p-part by walking the group, as the package
    split them before it did linear algebra: take the first element of the
    top order whose q value has exactly that denominator (a block ('q',
    scale, value)), or else the first pair pairing to exactly that
    denominator (a block ('u', scale) or ('v', scale), told apart by the
    q-value histogram of their span), and keep what is orthogonal to it."""
    cur = [x for x in product(*[range(d) for d in orders])
           if _p_power(_element_order(orders, x), p)]
    blocks = []
    while len(cur) > 1:
        top = max(_element_order(orders, x) for x in cur)
        tops = [x for x in cur if _element_order(orders, x) == top]
        x = next((x for x in tops if brute_q(qvals, x).denominator == top), None)
        if x is not None:
            blocks.append(("q", top, brute_q(qvals, x)))
            span = [x]
        else:
            x, y = next((x, y) for x in tops for y in tops
                        if brute_b(qvals, x, y).denominator == top)
            pairs = list(product(range(top), repeat=2))
            hist = sorted(brute_q(qvals, [a * s + b * t for s, t in zip(x, y)]) for a, b in pairs)
            hu = sorted(Fraction(2 * a * b, top) % 2 for a, b in pairs)
            hv = sorted(Fraction(2 * (a * a + a * b + b * b), top) % 2 for a, b in pairs)
            assert hist in (hu, hv)
            blocks.append(("u" if hist == hu else "v", top))
            span = [x, y]
        cur = [z for z in cur if all(brute_b(qvals, z, s) == 0 for s in span)]
    return blocks


def reference_exists_even_lattice(signature, orders, qvals):
    """Nikulin's existence test as the package runs it (Gauss signature,
    length, and the p-adic conditions on the Jordan blocks), with the
    Gauss sum and the Jordan blocks taken by walking the whole group."""
    tpos, tneg = signature
    if tpos < 0 or tneg < 0:
        return False
    order = 1
    for d in orders:
        order *= d
    if (tpos - tneg) % 8 != brute_gauss_signature(orders, qvals):
        return False
    if tpos + tneg < len(orders):
        return False
    if tpos + tneg == 0:
        return not orders
    primes = [p for p in range(2, order + 1) if order % p == 0
              and all(p % r for r in range(2, isqrt(p) + 1))]
    for p in primes:
        if tpos + tneg > sum(1 for d in orders if d % p == 0):
            continue
        p_order = 1
        while order % (p_order * p) == 0:
            p_order *= p
        rest = order // p_order
        if p == 2:
            if any(q in (Fraction(1, 2), Fraction(3, 2))
                   for x, q in brute_q_values(orders, qvals)
                   if _element_order(orders, x) == 2):
                continue
            unit = rest
            for blk in walk_jordan(orders, qvals, 2):
                unit *= blk[2].numerator if blk[0] == "q" else 7 if blk[0] == "u" else 3
            if unit % 8 not in (1, 7):
                return False
        else:
            value = (-1) ** tneg * rest
            for _, _, q in walk_jordan(orders, qvals, p):
                value *= q.numerator
            if pow(value % p, (p - 1) // 2, p) != 1:
                return False
    return True
