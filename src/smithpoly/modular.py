"""The modular lane of the local forms: the chain construction's scalars
over GF(q), q a prime just below 2**127, and the lifting of its V back to
Q.

``ModularLane`` is the base-field lane of ``localsmith`` with K = GF(q),
run by ``localsmith._local_chains``.  ``crt`` joins the images of
V modulo the primes of ``PRIMES``, and ``reconstruct`` recovers each
coefficient as a fraction by Wang's rational reconstruction with a margin
of ``MARGIN`` bits (Wang, Guy & Davenport, SIGSAM Bull. 1982; Monagan,
ISSAC 2004).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import zip_longest
from math import gcd, isqrt, lcm

from .gfpoly import gf_from_int, gf_mul
from .matpoly import MatPoly
from .poly import Poly, _cleared
from .residue import ModularField

# The moduli, in the order tried: the largest primes below 2**127.  A
# local multiplier needing more is left to the exact lane.
PRIMES = (2**127 - 1, 2**127 - 25, 2**127 - 39, 2**127 - 295)
# The safety margin T of rational reconstruction, in bits.
MARGIN = 20


class UnluckyPrime(Exception):
    """q divides a nonzero numerator or a denominator of A or p."""


class ModularLane:
    """The base-field lane over K = GF(q): entries are ints in [0, q), the
    tableau has width s*n, and chains come in supercolumns of s.

    A digit entry e acts on a chain entry c (both of degree < s) by two
    GF(q)-linear maps, c -> rem(e c, p) and c -> quo(e c, p).  The residue
    lane's residual of a k-block chain is then sum_j G_{k-j} block_j, with
    G_t the rem map of digit t plus the quo map of digit t - 1, each an
    (s n) x (s n) matrix over GF(q); G_0 is the tableau.  No polynomial
    arithmetic runs in the kernel.

    A is held as planes: plane k lists coefficient k of every entry, row
    by row, mod q.  The digit expansion and the rem maps then run a whole
    plane per list operation.  A q that divides a denominator, or a
    nonzero numerator, of A or p raises UnluckyPrime: the reduction
    would lose that coefficient."""

    zero = 0

    def __init__(self, A: MatPoly, p: Poly, mu: int, q: int):
        self.q, self.F = q, ModularField(q)
        s, n = p.degree, A.rows
        w = self.width = s * n
        self.s, self.n = s, n
        self.p = pq = _mod_q(p, q)
        self.G = []
        zero = [0] * (n * n)
        # e l**b = quo_b p + rem_b: quo_b = sum_m c_{b-1-m} l**m, where c_b
        # is coefficient s-1 of rem_b; `carries` holds the c_b of digit t-1
        carries = [zero] * s
        for digit in _plane_digits(_planes(A, q), pq, mu, q):
            G = [[0] * w for _ in range(w)]
            R, now = digit, []  # R[a]: coefficient a of rem_b, for each entry
            for b in range(s):
                if b:
                    R = [[(x - y * pa) % q for x, y in zip(ra, R[-1])]
                         for ra, pa in zip([zero] + R[:-1], pq)]
                now.append(R[-1])
                for a in range(s):
                    plane = R[a] if a >= b else [
                        (x + y) % q for x, y in zip(R[a], carries[b - 1 - a])
                    ]
                    for i in range(n):
                        G[i * s + a][b::s] = plane[i * n : (i + 1) * n]
            carries = now
            self.G.append(G)
        self.sparse = {}  # k -> the rows of [G_k, G_{k-1}, ..., G_1], sparse

    def tableau(self):
        return self.G[0]

    def _rows(self, k):
        if k not in self.sparse:
            rows = []
            for r in range(self.width):
                cols, vals = [], []
                for j in range(k):
                    for c, v in enumerate(self.G[k - j][r]):
                        if v:
                            cols.append(j * self.width + c)
                            vals.append(v)
                rows.append((cols, vals))
            self.sparse[k] = rows
        return self.sparse[k]

    def residual(self, chain, k):
        q, mul, get = self.q, operator.mul, chain.__getitem__
        return [sum(map(mul, vals, map(get, cols))) % q for cols, vals in self._rows(k)]

    def extend(self, head, y, k):
        q = self.q
        return [e % q for e in head] + y

    def decode(self, vec):
        """V's column mod q: sum_j p**j * digit_j, by Horner."""
        s, w, p, q = self.s, self.width, self.p, self.q
        col = []
        for i in range(self.n):
            acc = []
            for j in range(len(vec) // w - 1, -1, -1):
                d = vec[j * w + i * s : j * w + i * s + s]
                acc = gf_mul(acc, p, q)
                acc = gf_from_int([a + b for a, b in zip_longest(acc, d, fillvalue=0)], q)
            col.append(Poly(acc))
        return col


def _mod_q(f: Poly, q: int) -> list:
    """The rational f mod q, with one inverse for its denominators."""
    ints, m = _cleared(f.coeffs)
    if m % q == 0:
        raise UnluckyPrime
    inv = pow(m, -1, q)
    out = [c * inv % q for c in ints]
    if not all(out[k] for k, c in enumerate(ints) if c):
        raise UnluckyPrime
    return out


def _planes(A: MatPoly, q: int) -> list:
    """Plane k: coefficient k of A[i][j] at i*n + j, mod q, with one
    inverse per row."""
    n = A.rows
    planes = [[0] * (n * n) for _ in range(max(A.max_degree() + 1, 1))]
    for i, row in enumerate(A.entries):
        m = lcm(*(c.denominator for e in row for c in e.coeffs))
        if m % q == 0:
            raise UnluckyPrime
        inv = pow(m, -1, q)
        for j, e in enumerate(row):
            for k, c in enumerate(e.coeffs):
                v = planes[k][i * n + j] = c.numerator * (m // c.denominator) * inv % q
                if c and not v:
                    raise UnluckyPrime
    return planes


def _plane_digits(planes, p, count, q):
    """The first `count` digits of the planes in powers of the monic p
    (zero digits past the last), each as s planes.  A division reduces a
    plane where it reads a quotient coefficient and once at the end."""
    s, size = len(p) - 1, len(planes[0])
    out = []
    while len(out) < count:
        a = planes + [[0] * size] * (s - len(planes))
        planes = [None] * (len(a) - s)
        for i in range(len(a) - 1, s - 1, -1):
            f = planes[i - s] = [x % q for x in a[i]]
            for j, pj in enumerate(p[:s]):
                if pj:
                    a[i - s + j] = [x - pj * y for x, y in zip(a[i - s + j], f)]
        out.append([[x % q for x in a[j]] for j in range(s)])
        if not planes:
            planes = [[0] * size]
    return out


def crt(image, M, now, q):
    """Entrywise x == image mod M and x == now mod q, in [0, M q)."""
    inv = pow(M, -1, q)

    def lift(a, b):
        a, b = a + [0] * (len(b) - len(a)), b + [0] * (len(a) - len(b))
        return [x + M * ((y - x) * inv % q) for x, y in zip(a, b)]

    return [[lift(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(image, now)]


def reconstruct(image, M):
    """The MatPoly over Q with the image mod M, or None when a coefficient
    has no fraction within the bound."""
    bound = isqrt(M >> (MARGIN + 1))
    rows = []
    for row in image:
        out = []
        for coeffs in row:
            cs = [wang(u, M, bound) for u in coeffs]
            if any(c is None for c in cs):
                return None
            out.append(Poly(cs))
        rows.append(out)
    return MatPoly(rows)


def wang(u, M, bound):
    """The fraction n/d == u mod M with |n|, d <= bound, or None: the
    extended Euclidean algorithm on (M, u), stopped at the first remainder
    <= bound.  With 2 bound**2 < M such a fraction is unique."""
    r0, r1, t0, t1 = M, u, 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1 = r1, r0 - k * r1
        t0, t1 = t1, t0 - k * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)
