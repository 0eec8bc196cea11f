"""Arithmetic in the residue field R/pR, held as polynomials reduced mod p.

Elements are length-s coefficient vectors over the base field, s = deg p.
A product is the polynomial product reduced mod p; a quotient multiplies
by the inverse that the extended Euclidean algorithm gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegreeZero,
    DimensionMismatch,
    NotIrreducible,
    NotMonic,
    PrimeMismatch,
)
from .poly import Poly, poly_xgcd


@dataclass(frozen=True)
class Companion:
    """The monic prime p of R/pR and its degree s."""

    p: Poly
    s: int

    def same_prime(self, other: "Companion") -> bool:
        return self is other or self.p == other.p


def companion_of(p: Poly) -> Companion:
    if not p.is_monic():
        raise NotMonic("residue arithmetic needs a monic polynomial")
    if p.degree < 1:
        raise DegreeZero("residue arithmetic needs degree >= 1")
    return Companion(p=p, s=p.degree)


@dataclass(frozen=True)
class ResidueElt:
    coeffs: tuple
    companion: Companion

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def to_poly(self) -> Poly:
        return Poly(self.coeffs)

    def __add__(self, other):
        _check(self, other)
        return ResidueElt(
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
            self.companion,
        )

    def __sub__(self, other):
        _check(self, other)
        return ResidueElt(
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
            self.companion,
        )

    def __neg__(self):
        return ResidueElt(tuple(-a for a in self.coeffs), self.companion)

    def __mul__(self, other):
        return residue_mul(self, other, self.companion)

    def __truediv__(self, other):
        return residue_div(self, other, self.companion)

    def __eq__(self, other):
        if not isinstance(other, ResidueElt):
            return NotImplemented
        return self.coeffs == other.coeffs and self.companion.same_prime(
            other.companion
        )

    def __hash__(self):
        return hash(self.coeffs)


def _check(x: ResidueElt, y: ResidueElt):
    if len(x.coeffs) != len(y.coeffs):
        raise DimensionMismatch("residue elements of different length")
    if not x.companion.same_prime(y.companion):
        raise PrimeMismatch("residue elements over different primes")


def residue_zero(S: Companion) -> ResidueElt:
    return ResidueElt((Fraction(0),) * S.s, S)


def residue_one(S: Companion) -> ResidueElt:
    return ResidueElt((Fraction(1),) + (Fraction(0),) * (S.s - 1), S)


def encode(f: Poly, S: Companion) -> ResidueElt:
    """Reduce a polynomial mod p and pad to a length-s vector."""
    r = f % S.p
    cs = list(r.coeffs) + [Fraction(0)] * (S.s - len(r.coeffs))
    return ResidueElt(tuple(cs), S)


def residue_mul(x: ResidueElt, y: ResidueElt, S: Companion) -> ResidueElt:
    if len(x.coeffs) != S.s or len(y.coeffs) != S.s:
        raise DimensionMismatch("length does not match deg p")
    _check(x, y)
    if S.s == 1:
        return ResidueElt((x.coeffs[0] * y.coeffs[0],), S)
    return encode(x.to_poly() * y.to_poly(), S)


def residue_div(x: ResidueElt, y: ResidueElt, S: Companion) -> ResidueElt:
    """x times the inverse of y from u*y + v*p = gcd(y, p); defined whenever
    y != 0 and p is irreducible.  A gcd other than 1 means y is a zero
    divisor, so p is not irreducible (NotIrreducible)."""
    if len(x.coeffs) != S.s or len(y.coeffs) != S.s:
        raise DimensionMismatch("length does not match deg p")
    _check(x, y)
    if y.is_zero():
        raise ZeroDivisionError("division by zero residue")
    if S.s == 1:
        return ResidueElt((x.coeffs[0] / y.coeffs[0],), S)
    g, u, _ = poly_xgcd(y.to_poly(), S.p)
    if not g.is_one():
        raise NotIrreducible(
            f"{S.p.human_text()} is not irreducible: R/pR has zero divisors"
        )
    return encode(x.to_poly() * u, S)
