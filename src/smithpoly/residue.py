"""The scalar fields of the echelon kernel: the base field K, the
residue field R/pR held as polynomials of degree < deg p, and GF(q) for a
prime q, held as ints in [0, q).

A field object gives ``zero``, ``one``, ``inv`` and ``neg``, and the
kernel's two row operations: ``scaled`` (a row times a scalar) and
``sub_multiple`` (row[j] -= f * b in place, over the pivot row's support
of (j, b) pairs).  The exact fields K and R/pR also give the ``mul`` those
use, and add and subtract with the scalars' own operators; in R/pR a
product is the polynomial product reduced mod p, and an inverse comes
from the extended Euclidean algorithm.  GF(q) reduces every result, so
zero is always the int 0, as the kernel's zero tests need.

K and GF(q) also give what is field-specific in the base-field lane
(``localsmith._BaseFieldLane``): ``embed`` takes A's and p's coefficients
into the field, ``reduce`` keeps computed values reduced, ``dot`` is the
residuals' dot product and ``decode`` turns a chain into a column of V.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import zip_longest
from math import lcm

from .errors import DegreeZero, NotIrreducible, NotMonic
from .gfpoly import gf_from_int, gf_mul
from .matpoly import lambda_iso
from .poly import Poly, poly_xgcd


class UnluckyPrime(Exception):
    """q divides a denominator, or a nonzero numerator, of A or p."""


def check_modulus(p: Poly) -> None:
    if not p.is_monic():
        raise NotMonic("residue arithmetic needs a monic polynomial")
    if p.degree < 1:
        raise DegreeZero("residue arithmetic needs degree >= 1")


class _ExactRows:
    """The row operations of an exact field, in its own mul."""

    neg = staticmethod(operator.neg)

    def scaled(self, row, c):
        mul = self.mul
        return [mul(e, c) if e else e for e in row]

    def sub_multiple(self, row, f, support):
        mul = self.mul
        for j, b in support:
            row[j] = row[j] - mul(f, b)


class BaseField(_ExactRows):
    """K itself: Fraction or GaussianRational scalars."""

    zero = Fraction(0)
    one = Fraction(1)
    mul = staticmethod(operator.mul)
    reduce = staticmethod(list)

    def inv(self, a):
        return self.one / a

    def embed(self, values) -> list:
        """Integral Fractions as ints, the rest as they are."""
        return [c.numerator if type(c) is Fraction and c.denominator == 1 else c for c in values]

    def dot(self, rows, chain) -> list:
        """Each sparse row (cols, vals) times the chain.  A chain of
        Fractions is scaled to ints by the lcm m of its denominators, so a
        row of ints gives one integer dot product and one Fraction.  Other
        rows (over Q(i), or for a non-integral p) add their products with
        the nonzero chain entries, as polynomial products would."""
        mul, out = operator.mul, []
        rational = all(type(c) is Fraction for c in chain)
        if rational:
            m = lcm(*[c.denominator for c in chain])
            get = [c.numerator * (m // c.denominator) for c in chain].__getitem__
        for cols, vals in rows:
            t = sum(map(mul, vals, map(get, cols))) if rational else None
            if type(t) is int:
                out.append(Fraction(t, m))
            else:
                out.append(sum(v * chain[c] for c, v in zip(cols, vals) if chain[c]))
        return out

    def decode(self, blocks, p) -> list:
        """sum_j p**j * blocks[j], each entry of a block a coefficient list."""
        return lambda_iso([[Poly(d) for d in b] for b in blocks], Poly(p))


BASE_FIELD = BaseField()


class ResidueField(_ExactRows):
    """R/pR for a monic p of degree >= 1; p is assumed irreducible, and
    ``inv`` says otherwise when it meets a zero divisor."""

    zero = Poly.zero()
    one = Poly.one()

    def __init__(self, p: Poly):
        check_modulus(p)
        self.p = p

    def mul(self, a: Poly, b: Poly) -> Poly:
        return (a * b) % self.p

    def inv(self, a: Poly) -> Poly:
        """u with u*a + v*p = gcd(a, p) = 1, of degree < deg p.  A gcd other
        than 1 means a is a zero divisor, so p is not irreducible
        (NotIrreducible)."""
        if not a:
            raise ZeroDivisionError("division by zero residue")
        g, u, _ = poly_xgcd(a, self.p)
        if not g.is_one():
            raise NotIrreducible(
                f"{self.p.human_text()} is not irreducible: R/pR has zero divisors"
            )
        return u


class ModularField:
    """GF(q) for a prime q: ints in [0, q), every result reduced."""

    zero = 0
    one = 1

    def __init__(self, q: int):
        self.q = q

    def inv(self, a: int) -> int:
        return pow(a, -1, self.q)

    def neg(self, a: int) -> int:
        return -a % self.q

    def scaled(self, row, c):
        q = self.q
        return [e * c % q for e in row]

    def sub_multiple(self, row, f, support):
        q = self.q
        for j, b in support:
            row[j] = (row[j] - f * b) % q

    def reduce(self, values) -> list:
        q = self.q
        return [v % q for v in values]

    def embed(self, values) -> list:
        """Rationals mod q, with one inverse for their denominators.  A
        denominator divisible by q, or a nonzero value that vanishes mod
        q, raises UnluckyPrime: the reduction would lose it."""
        q = self.q
        if all(type(c) is int for c in values):
            out = [c % q for c in values]
        else:
            m = lcm(*[c.denominator for c in values])
            if m % q == 0:
                raise UnluckyPrime
            inv = pow(m, -1, q)
            out = [c.numerator * (m // c.denominator) * inv % q for c in values]
        if out.count(0) != values.count(0):
            raise UnluckyPrime
        return out

    def dot(self, rows, chain) -> list:
        q, mul, get = self.q, operator.mul, chain.__getitem__
        return [sum(map(mul, vals, map(get, cols))) % q for cols, vals in rows]

    def decode(self, blocks, p) -> list:
        """sum_j p**j * blocks[j] mod q, entrywise by Horner."""
        q, col = self.q, []
        for digits in zip(*blocks):
            acc = []
            for d in reversed(digits):
                acc = gf_from_int([a + b for a, b in zip_longest(gf_mul(acc, p, q), d, fillvalue=0)], q)
            col.append(Poly(acc))
        return col
