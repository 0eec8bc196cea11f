"""Polynomials over GF(q), q prime, as ascending lists of ints in [0, q)
with no trailing zeros (the zero polynomial is []).

Factoring runs these with a small q (Zassenhaus).  Inputs may hold any
ints; every result is reduced.
"""

from __future__ import annotations

import operator

from .poly import _int_mul, _list_sum, _strip


def gf_from_int(f: list[int], q: int) -> list[int]:
    return _strip([c % q for c in f])


def gf_sub(a, b, q):
    return gf_from_int(_list_sum(a, b, operator.sub), q)


def gf_mul(a, b, q):
    return gf_from_int(_int_mul(a, b), q) if a and b else []


def gf_divmod(a, b, q):
    """Quotient and remainder of a by b != 0.  The working copy of a is
    reduced only where a quotient coefficient is read and once at the
    end: between, each entry takes at most deg b products below q**2."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db = len(b) - 1
    if len(a) - 1 < db:
        return [], gf_from_int(a, q)
    low = b[:db]
    inv = 1 if b[-1] == 1 else pow(b[-1], -1, q)
    quo = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        f = a[i] * inv % q
        if f:
            quo[i - db] = f
            a[i - db : i] = [x - f * y for x, y in zip(a[i - db : i], low)]
    return _strip(quo), gf_from_int(a[:db], q)


def gf_monic(a, q):
    if not a or a[-1] == 1:
        return list(a)
    inv = pow(a[-1], -1, q)
    return [(c * inv) % q for c in a]


def gf_gcd(a, b, q):
    a, b = list(a), list(b)
    while b:
        a, b = b, gf_divmod(a, b, q)[1]
    return gf_monic(a, q)


def gf_xgcd(a, b, q):
    """(g, s, t) with s a + t b = g, g the monic gcd; ([], [], []) when
    both are zero."""
    old_r, r = list(a), list(b)
    old_s, s = [1], []
    old_t, t = [], [1]
    while r:
        quo, rem = gf_divmod(old_r, r, q)
        old_r, r = r, rem
        old_s, s = s, gf_sub(old_s, gf_mul(quo, s, q), q)
        old_t, t = t, gf_sub(old_t, gf_mul(quo, t, q), q)
    if not old_r:
        return [], [], []
    inv = pow(old_r[-1], -1, q)
    scale = lambda v: _strip([(c * inv) % q for c in v])
    return scale(old_r), scale(old_s), scale(old_t)


def gf_pow_mod(a, n, m, q):
    """a**n mod m."""
    result = [1]
    base = gf_divmod(a, m, q)[1]
    while n:
        if n & 1:
            result = gf_divmod(gf_mul(result, base, q), m, q)[1]
        n >>= 1
        if n:
            base = gf_divmod(gf_mul(base, base, q), m, q)[1]
    return result


def gf_deriv(a, q):
    return _strip([(i * c) % q for i, c in enumerate(a)][1:])


def gf_is_squarefree(a, q):
    d = gf_deriv(a, q)
    if not d:
        return False
    return len(gf_gcd(a, d, q)) == 1


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first twelve prime bases: exact below
    3.3 * 10**24, a strong probable-prime test above."""
    if n < 2:
        return False
    for b in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % b == 0:
            return n == b
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
