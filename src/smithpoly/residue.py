"""The scalar fields of the echelon kernel: the base field K, K = Q with
integer rows, and the residue field R/pR held as polynomials of degree
< deg p.

A field object gives the kernel's row operations: ``row`` (a new row from
a list of scalars), ``join`` (columns appended to a row), ``unit`` (a
pivot row scaled to 1 at its pivot, giving the log's pivot inverse),
``scaled`` (a row times such an inverse), ``multiplier`` (the f that
clears a row at a column) and ``sub_multiple`` (row -= f * top in place,
over the pivot row top's support of (j, b) pairs); and the chain
operations of localsmith._local_chains: ``null_vector``, ``columns`` and
``chain``.  K and R/pR hold rows and chains as lists of scalars, in their
own ``mul`` (in R/pR reduced mod p, inverses by the extended Euclidean
algorithm).  ``IntegerRows`` holds them over Q as ints over one positive
denominator, so the K lane builds no Fraction between echelon passes.
The K fields also give the base-field lane's ``embed`` (A's and p's
coefficients into the field), ``dot`` (the residuals) and ``decode`` (a
chain to a column of V).
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


def _over(values, den=1) -> _IntRow:
    """Ints and Fractions divided by den, as an _IntRow over den times
    the lcm of their denominators."""
    m = lcm(*[v.denominator for v in values])
    return _int_row([v.numerator * (m // v.denominator) for v in values], den * m)


class _ExactRows:
    """The row operations of an exact field on lists of its scalars, in
    its own mul, and its chains: lists of scalars too."""

    row = staticmethod(list)
    join = staticmethod(list.extend)

    @staticmethod
    def multiplier(row, c):
        return row[c]

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

    def null_vector(self, reads, c, ncols):
        """The null vector of reduced rows for the free column c: 1 at c,
        and -row[c] at the pivot column of each (pivot column, row) pair
        of `reads`, the rows nonzero at c."""
        vec = [self.zero] * ncols
        vec[c] = self.one
        for pc, row in reads:
            vec[pc] = -row[c]
        return vec

    @staticmethod
    def columns(cols, nrows):
        """The rows of the columns cols, each of nrows scalars."""
        return [[col[i] for col in cols] for i in range(nrows)]

    def chain(self, stacked, vec, width, rows):
        """The chain of a kernel vector vec = [y; u]: the chains of
        `stacked`, each zero-padded on top to `rows` entries, times u,
        with y appended."""
        out = [self.zero] * rows
        for coeff, col in zip(vec[width:], stacked):
            if coeff:
                for r, e in enumerate(col, rows - len(col)):
                    if e:
                        out[r] = out[r] + e * coeff
        return out + vec[:width]


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

    @staticmethod
    def dot(rows, chain) -> list:
        """Each sparse row (cols, vals) times the chain: its products with
        the nonzero chain entries added, as polynomial products would."""
        return [sum(v * chain[c] for c, v in zip(cols, vals) if chain[c]) for cols, vals in rows]

    @staticmethod
    def decode(chain, p, s, width) -> list:
        """The polynomial column sum_j p**j * digit_j of a chain of digit
        blocks of `width` coefficients, s per entry.  Over Q the chain is
        an _IntRow (a list of Fractions is put over the lcm of their
        denominators first) and p is scaled to ints by the lcm q of its
        denominators, so each entry is summed by Horner on ints, over
        den * q**J for J the last digit.  Gaussian chains go through
        lambda_iso, which keeps their types."""
        if type(chain) is not _IntRow:
            if not all(type(c) in (int, Fraction) for c in [*p, *chain]):
                blocks = [
                    [Poly(chain[b : b + s]) for b in range(j, j + width, s)]
                    for j in range(0, len(chain), width)
                ]
                return lambda_iso(blocks, Poly(p))
            chain = _over(chain)
        q = lcm(*[c.denominator for c in p])
        P = [c.numerator * (q // c.denominator) for c in p]
        col = []
        for i in range(0, width, s):
            acc, w = [], 1
            for j in range(len(chain) - width + i, -1, -width):
                d = [c * w for c in chain[j : j + s]]
                acc = _list_sum(_int_mul(acc, P), d) if acc else _strip(d)
                w *= q
            col.append(_from_ints(acc, chain.den * w // q))
        return col


BASE_FIELD = BaseField()


class IntegerRows(BaseField):
    """K = Q with each echelon row and each chain held as an _IntRow, so
    elimination is fraction-free (Bareiss, Math. Comp. 1968) and no
    Fraction is built between echelon passes.  A pivot row is scaled to 1
    by taking its pivot as its denominator, and a row is cleared by
    cross-multiplication and one gcd.  The log's pivot inverses are
    integer pairs (u, w), meaning u / w: a row's pivot inverse
    (den, pivot) and its multiplier (row[c], den).  Every row, null
    vector and chain holds the value the same step gives over BASE_FIELD,
    so V is BASE_FIELD's."""

    row = staticmethod(_over)

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

    @staticmethod
    def null_vector(reads, c, ncols):
        """Read off the reduced rows: a row's pivot entry is its den, so
        its value at c is row[c] / row.den, and the vector is L at c and
        -row[c] * (L // row.den) at the pivot columns, over the lcm L of
        the dens read."""
        L = lcm(*[row.den for _, row in reads])
        vec = [0] * ncols
        vec[c] = L
        for pc, row in reads:
            vec[pc] = -row[c] * (L // row.den)
        return _int_row(vec, L)

    @staticmethod
    def columns(cols, nrows):
        """Rows over the lcm L of the columns' dens."""
        L = lcm(*[col.den for col in cols])
        cols = [col if col.den == L else [v * (L // col.den) for v in col] for col in cols]
        return [_int_row([col[i] for col in cols], L) for i in range(nrows)]

    @staticmethod
    def chain(stacked, vec, width, rows):
        """The sum of int columns over the lcm L of the combined chains'
        dens, with y scaled by L, all over vec.den * L."""
        terms = [(coeff, col) for coeff, col in zip(vec[width:], stacked) if coeff]
        L = lcm(*[col.den for _, col in terms])
        out = [0] * rows
        for coeff, col in terms:
            f = coeff * (L // col.den)
            for r, e in enumerate(col, rows - len(col)):
                if e:
                    out[r] += e * f
        out += [v * L for v in vec[:width]]
        return _int_row(out, vec.den * L)

    @staticmethod
    def dot(rows, chain) -> _IntRow:
        """Each sparse row (cols, vals) times the chain's ints, over its
        den.  For a p that is not integral G's rows hold Fractions, and
        the sums are taken over the lcm of their denominators."""
        get, mul = chain.__getitem__, operator.mul
        return _over([sum(map(mul, vals, map(get, cols))) for cols, vals in rows], chain.den)


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
