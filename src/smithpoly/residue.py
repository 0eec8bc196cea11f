"""The scalar fields of the echelon kernel: the base field K, K = Q with
integer rows, and the residue field R/pR held as polynomials of degree
< deg p.

A field object gives ``zero``, ``one``, ``inv`` and ``neg`` on scalars,
and the kernel's row operations: ``row`` (a new row from a list of
scalars), ``join`` (columns appended to a row), ``unit`` (a pivot row
scaled to 1 at its pivot, giving the log's pivot inverse), ``scaled`` (a
row times such an inverse), ``multiplier`` (the f that clears a row at
a column), ``sub_multiple`` (row -= f * top in place, over the pivot row
top's support of (j, b) pairs) and ``entry`` (the scalar at a column).
K and R/pR hold a row as a list of scalars, and give the ``mul`` those
use; in R/pR a product is the polynomial product reduced mod p, and an
inverse comes from the extended Euclidean algorithm.  ``IntegerRows``
holds a row over Q as ints over one positive denominator, and so runs
the K lane's elimination on rational input without Fraction arithmetic.

The K fields also give what is field-specific in the base-field lane
(``localsmith._BaseFieldLane``): ``embed`` takes A's and p's coefficients
into the field, ``dot`` is the residuals' dot product and ``decode`` turns
a chain into a column of V.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm

from .errors import DegreeZero, NotIrreducible, NotMonic
from .matpoly import lambda_iso
from .poly import Poly, _from_ints, _int_mul, _list_sum, _strip, poly_xgcd


def check_modulus(p: Poly) -> None:
    if not p.is_monic():
        raise NotMonic("residue arithmetic needs a monic polynomial")
    if p.degree < 1:
        raise DegreeZero("residue arithmetic needs degree >= 1")


class _ExactRows:
    """The row operations of an exact field on lists of its scalars, in
    its own mul."""

    neg = staticmethod(operator.neg)
    row = staticmethod(list)
    join = staticmethod(list.extend)

    @staticmethod
    def entry(row, c):
        return row[c]

    multiplier = entry

    def unit(self, row, c):
        inv = self.inv(row[c])
        row[c:] = self.scaled(row[c:], inv)
        return inv

    def scaled(self, row, c):
        mul = self.mul
        return [mul(e, c) if e else e for e in row]

    def sub_multiple(self, row, f, top, support):
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
        """sum_j p**j * blocks[j], each entry of a block a coefficient list.
        Rational digits are scaled to ints by the lcm m of their
        denominators and p by the lcm q of its own, and each entry is
        summed by Horner on ints, over m * q**J for J the last digit.
        Gaussian ones go through lambda_iso, which keeps their types."""
        digits = [c for b in blocks for d in b for c in d]
        if not all(type(c) in (int, Fraction) for c in [*p, *digits]):
            return lambda_iso([[Poly(d) for d in b] for b in blocks], Poly(p))
        m = lcm(*[c.denominator for c in digits])
        q = lcm(*[c.denominator for c in p])
        P = [c.numerator * (q // c.denominator) for c in p]
        col = []
        for entry in zip(*blocks):
            acc, w = [], 1
            for d in reversed(entry):
                d = [c.numerator * (m // c.denominator) * w for c in d]
                acc = _list_sum(_int_mul(acc, P), d) if acc else _strip(d)
                w *= q
            col.append(_from_ints(acc, m * w // q))
        return col


BASE_FIELD = BaseField()


class _IntRow(list):
    """A row of ints over one positive denominator ``den``: its value is
    row[j] / den, with gcd(den, *row) = 1."""

    __slots__ = ("den",)


def _int_row(ints, den) -> _IntRow:
    """ints / den as an _IntRow, in lowest terms."""
    if den < 0:
        ints, den = [-v for v in ints], -den
    g = gcd(den, *ints)
    row = _IntRow(ints if g == 1 else [v // g for v in ints])
    row.den = den // g
    return row


class IntegerRows(BaseField):
    """K = Q with each echelon row held as an _IntRow, so elimination is
    fraction-free (Bareiss, Math. Comp. 1968).  A pivot row is scaled to
    1 by taking its pivot as its denominator, and a row is cleared by
    cross-multiplication and one gcd.  The log's pivot inverses are
    integer pairs (u, w), meaning u / w: a row's pivot inverse
    (den, pivot) and its multiplier (row[c], den).  Every row holds the
    value the same step gives over BASE_FIELD, and ``entry`` reads a
    value as a lowest-terms Fraction, so the null vectors, the chains and
    V are BASE_FIELD's."""

    def row(self, values):
        """Ints or Fractions over the lcm of their denominators."""
        m = lcm(*[v.denominator for v in values])
        return _int_row([v.numerator * (m // v.denominator) for v in values], m)

    @staticmethod
    def join(row, tail):
        """Both over the lcm of their denominators: the old entries are
        scaled only when it grows."""
        m = lcm(row.den, tail.den)
        if m != row.den:
            k = m // row.den
            row[:] = [v * k for v in row]
            row.den = m
        k = m // tail.den
        row.extend(tail if k == 1 else [v * k for v in tail])

    @staticmethod
    def entry(row, c):
        return Fraction(row[c], row.den)

    @staticmethod
    def multiplier(row, c):
        return row[c], row.den

    @staticmethod
    def unit(row, c):
        """row / row[c] is row's ints over the pivot: no entry is
        multiplied, and only their gcd is divided out."""
        a, inv = row[c], (row.den, row[c])
        g = gcd(*row) if a > 0 else -gcd(*row)
        if g != 1:
            row[:] = [v // g for v in row]
        row.den = a // g
        return inv

    @staticmethod
    def scaled(row, inv):
        u, w = inv
        return _int_row([v * u for v in row], row.den * w)

    @staticmethod
    def sub_multiple(row, f, top, support):
        """row - (u / w) top over row.den * a, with a / b = (w top.den) /
        (u row.den) in lowest terms: row times a less b times top's
        support, then divided by the gcd."""
        (u, w), den = f, row.den
        a, b = w * top.den, u * den
        g = gcd(a, b)
        a, b = a // g, b // g
        if a != 1:
            row[:] = [v * a for v in row]
        for j, e in support:
            row[j] -= b * e
        den *= a
        g = gcd(den, *row)
        if g != 1:
            row[:] = [v // g for v in row]
        row.den = den // g


INTEGER_ROWS = IntegerRows()


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
