"""Arithmetic in the residue field R/pR via the companion matrix of p.

Elements are length-s coefficient vectors over the base field, s = deg p.
Multiplication uses the companion-matrix form x*y = [y, Sy, ..., S^(s-1)y]x;
division solves that s x s system exactly instead of forming an inverse.
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
from .poly import Poly


@dataclass(frozen=True)
class Companion:
    """s x s companion matrix of a monic p: subdiagonal ones, last column
    holding the negated low-order coefficients."""

    p: Poly
    s: int
    matrix: tuple  # rows, each a tuple of field scalars

    def same_prime(self, other: "Companion") -> bool:
        return self is other or self.p == other.p


def companion_of(p: Poly) -> Companion:
    if not p.is_monic():
        raise NotMonic("companion matrix needs a monic polynomial")
    s = p.degree
    if s < 1:
        raise DegreeZero("companion matrix needs degree >= 1")
    zero = Fraction(0)
    rows = []
    for i in range(s):
        row = [zero] * s
        if i >= 1:
            row[i - 1] = Fraction(1)
        row[s - 1] = -p.coeffs[i]
        rows.append(tuple(row))
    return Companion(p=p, s=s, matrix=tuple(rows))


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


def _matvec(rows, v):
    out = []
    for row in rows:
        acc = Fraction(0)
        for a, b in zip(row, v):
            if a and b:
                acc = acc + a * b
        out.append(acc)
    return out


def residue_mul(x: ResidueElt, y: ResidueElt, S: Companion) -> ResidueElt:
    if len(x.coeffs) != S.s or len(y.coeffs) != S.s:
        raise DimensionMismatch("length does not match deg p")
    _check(x, y)
    if S.s == 1:
        return ResidueElt((x.coeffs[0] * y.coeffs[0],), S)
    w = list(y.coeffs)
    acc = [x.coeffs[0] * c for c in w]
    for j in range(1, S.s):
        w = _matvec(S.matrix, w)
        xj = x.coeffs[j]
        if xj:
            for i in range(S.s):
                acc[i] = acc[i] + xj * w[i]
    return ResidueElt(tuple(acc), S)


def residue_div(x: ResidueElt, y: ResidueElt, S: Companion) -> ResidueElt:
    """Solve [y, Sy, ..., S^(s-1)y] z = x; defined whenever y != 0 and p
    is irreducible.  A singular system means y is a zero divisor, so p is
    not irreducible (NotIrreducible)."""
    if len(x.coeffs) != S.s or len(y.coeffs) != S.s:
        raise DimensionMismatch("length does not match deg p")
    _check(x, y)
    if y.is_zero():
        raise ZeroDivisionError("division by zero residue")
    if S.s == 1:
        return ResidueElt((x.coeffs[0] / y.coeffs[0],), S)
    cols = [list(y.coeffs)]
    for _ in range(1, S.s):
        cols.append(_matvec(S.matrix, cols[-1]))
    n = S.s
    aug = [[cols[j][i] for j in range(n)] + [x.coeffs[i]] for i in range(n)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if aug[r][col]:
                piv = r
                break
        if piv is None:
            raise NotIrreducible(
                f"{S.p.human_text()} is not irreducible: R/pR has zero divisors"
            )
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [c * inv for c in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return ResidueElt(tuple(aug[i][n] for i in range(n)), S)
