"""The lifting of the modular lane's V back to Q.

The modular lane is ``localsmith``'s base-field lane over GF(q)
(``residue.ModularField``), q a prime just below 2**127.  ``crt`` joins
the images of V modulo the primes of ``PRIMES``, and ``reconstruct``
recovers each coefficient as a fraction by Wang's rational reconstruction
with a margin of ``MARGIN`` bits (Wang, Guy & Davenport, SIGSAM Bull.
1982; Monagan, ISSAC 2004).
"""

from __future__ import annotations

from math import gcd, isqrt, lcm

from .matpoly import MatPoly
from .poly import _from_ints

# The moduli, in the order tried: the largest primes below 2**127.  A
# local multiplier needing more is left to the exact lane.
PRIMES = (2**127 - 1, 2**127 - 25, 2**127 - 39, 2**127 - 295)
# The safety margin T of rational reconstruction, in bits.
MARGIN = 20


def crt(image, M, now, q):
    """Entrywise x == image mod M and x == now mod q, in [0, M q)."""
    inv = pow(M, -1, q)

    def lift(a, b):
        a, b = a + [0] * (len(b) - len(a)), b + [0] * (len(a) - len(b))
        return [x + M * ((y - x) * inv % q) for x, y in zip(a, b)]

    return [[lift(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(image, now)]


def reconstruct(image, M):
    """The MatPoly over Q with the image mod M, or None when a coefficient
    has no fraction within the bound.  Each entry is built in its integer
    form, over the lcm of its coefficients' denominators."""
    bound = isqrt(M >> (MARGIN + 1))
    rows = []
    for row in image:
        out = []
        for coeffs in row:
            cs = [wang(u, M, bound) for u in coeffs]
            if any(c is None for c in cs):
                return None
            den = lcm(*[d for _, d in cs])
            out.append(_from_ints([n * (den // d) for n, d in cs], den))
        rows.append(out)
    return MatPoly(rows)


def wang(u, M, bound):
    """(n, d) with n/d == u mod M, |n| <= bound and 0 < d <= bound, in
    lowest terms, or None: the extended Euclidean algorithm on (M, u),
    stopped at the first remainder <= bound.  With 2 bound**2 < M such a
    fraction is unique."""
    r0, r1, t0, t1 = M, u, 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1 = r1, r0 - k * r1
        t0, t1 = t1, t0 - k * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)
