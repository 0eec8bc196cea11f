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
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import DegreeZero, NotIrreducible, NotMonic
from .poly import Poly, poly_xgcd


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

    def inv(self, a):
        return self.one / a


BASE_FIELD = BaseField()


class ResidueField(_ExactRows):
    """R/pR for a monic p of degree >= 1; p is assumed irreducible, and
    ``inv`` says otherwise when it meets a zero divisor."""

    zero = Poly.zero()
    one = Poly.one()

    def __init__(self, p: Poly):
        if not p.is_monic():
            raise NotMonic("residue arithmetic needs a monic polynomial")
        if p.degree < 1:
            raise DegreeZero("residue arithmetic needs degree >= 1")
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
