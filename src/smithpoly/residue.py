"""The scalar fields of the echelon kernel: the base field K, and the
residue field R/pR held as polynomials of degree < deg p.

A field object gives ``zero``, ``one``, ``mul`` and ``inv``; addition,
subtraction and negation are the scalars' own.  In R/pR a product is the
polynomial product reduced mod p, and an inverse comes from the extended
Euclidean algorithm.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import DegreeZero, NotIrreducible, NotMonic
from .poly import Poly, poly_xgcd


class BaseField:
    """K itself: Fraction or GaussianRational scalars."""

    zero = Fraction(0)
    one = Fraction(1)
    mul = staticmethod(operator.mul)

    def inv(self, a):
        return self.one / a


BASE_FIELD = BaseField()


class ResidueField:
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
