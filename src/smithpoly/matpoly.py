"""Matrix polynomials: products, exact determinants, expansion in powers
of an irreducible p, and the digit/polynomial isomorphism used by the
local Smith form algorithms."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import DegreeTooHigh, DimensionMismatch, NotMonic, NotSquare
from .field import GaussianRational
from .poly import Poly


class MatPoly:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(_as_entry(e) for e in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one row and column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, name, value):
        raise AttributeError("MatPoly is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def identity(n: int) -> "MatPoly":
        return MatPoly(
            [[Poly.one() if i == j else Poly.zero() for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zeros(rows: int, cols: int) -> "MatPoly":
        z = Poly.zero()
        return MatPoly([[z] * cols for _ in range(rows)])

    @staticmethod
    def diag(entries) -> "MatPoly":
        es = [_as_entry(e) for e in entries]
        n = len(es)
        return MatPoly(
            [[es[i] if i == j else Poly.zero() for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def from_columns(cols) -> "MatPoly":
        cols = [list(c) for c in cols]
        return MatPoly(
            [[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))]
        )

    # -- access ----------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def column(self, j: int) -> list:
        return [self.entries[i][j] for i in range(self.rows)]

    def columns(self) -> list:
        return [self.column(j) for j in range(self.cols)]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def max_degree(self) -> int:
        return max(e.degree for row in self.entries for e in row)

    def __eq__(self, other):
        if not isinstance(other, MatPoly):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(
            ", ".join(e.human_text() for e in row) for row in self.entries
        )
        return f"MatPoly({self.rows}x{self.cols})[{body}]"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._same_shape(other)
        return MatPoly(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other):
        self._same_shape(other)
        return MatPoly(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __neg__(self):
        return MatPoly([[-a for a in row] for row in self.entries])

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("shapes differ")

    def __matmul__(self, other: "MatPoly") -> "MatPoly":
        if self.cols != other.rows:
            raise DimensionMismatch("inner dimensions differ")
        bt = list(zip(*other.entries))
        out = []
        for row in self.entries:
            new_row = []
            for col in bt:
                acc = Poly.zero()
                for a, b in zip(row, col):
                    if a and b:
                        acc = acc + a * b
                new_row.append(acc)
            out.append(new_row)
        return MatPoly(out)

    def scale(self, f) -> "MatPoly":
        f = _as_entry(f)
        return MatPoly([[e * f for e in row] for row in self.entries])

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def permute_rows(self, perm) -> "MatPoly":
        return MatPoly([self.entries[p] for p in perm])

    def permute_cols(self, perm) -> "MatPoly":
        return MatPoly([[row[p] for p in perm] for row in self.entries])


def _as_entry(e):
    if isinstance(e, Poly):
        return e
    if isinstance(e, (int, Fraction, GaussianRational)):
        return Poly((e,))
    raise TypeError(f"bad matrix entry: {type(e).__name__}")


# -- determinants -------------------------------------------------------

_GAUSSIAN_ONE = GaussianRational(1)


def mat_det(A: MatPoly) -> Poly:
    """Exact determinant by evaluation and interpolation.

    Each row is scaled by the lcm of its coefficient denominators, which
    makes every entry an integer (or Gaussian-integer) polynomial and
    multiplies det(A) by the product of the scales.  The entries are
    evaluated by Horner at n * max_degree + 1 integer points, fraction-free
    Bareiss elimination gives the determinant at each point, and Newton
    interpolation recovers the scaled det(A)."""
    if not A.is_square():
        raise NotSquare("determinant needs a square matrix")
    n = A.rows
    if n == 1:
        return A[0, 0]
    d = A.max_degree()
    if d < 0:
        return Poly.zero()
    gaussian = any(
        isinstance(c, GaussianRational)
        for row in A.entries
        for e in row
        for c in e.coeffs
    )
    one = _GAUSSIAN_ONE if gaussian else 1
    scale = 1
    rows = []
    for row in A.entries:
        m = lcm(*(q for e in row for c in e.coeffs for q in _denominators(c)))
        scale *= m
        if gaussian:
            rows.append([[one * c * m for c in e.coeffs] for e in row])
        else:
            rows.append([[(c * m).numerator for c in e.coeffs] for e in row])
    points = [(k + 1) // 2 if k % 2 else -(k // 2) for k in range(n * d + 1)]
    values = [
        _bareiss([[_horner(cs, x, one) for cs in row] for row in rows], one)
        for x in points
    ]
    return _interpolate([Fraction(x) for x in points], values).scale(
        Fraction(1, scale)
    )


def _denominators(c):
    if isinstance(c, GaussianRational):
        return c.re.denominator, c.im.denominator
    return (c.denominator,)


def _horner(coeffs, x, one):
    acc = one * 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _bareiss(m, one):
    """Fraction-free elimination: every quotient is exact, by `//` on int
    and by `/` on Gaussian integers held as GaussianRational."""
    div = operator.floordiv if type(one) is int else operator.truediv
    sign, prev = 1, one
    while len(m) > 1:
        piv = next((i for i, row in enumerate(m) if row[0]), None)
        if piv is None:
            return one * 0
        if piv:
            m[0], m[piv] = m[piv], m[0]
            sign = -sign
        (pivot, *top), rest = m[0], m[1:]
        m = [
            [div(pivot * a - row[0] * b, prev) for a, b in zip(row[1:], top)]
            for row in rest
        ]
        prev = pivot
    return m[0][0] * sign


def _interpolate(points, values) -> Poly:
    """Newton divided differences, expanded into the monomial basis."""
    n = len(points)
    coef = list(values)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (points[i] - points[i - j])
    result = Poly.zero()
    basis = Poly.one()
    for i in range(n):
        if coef[i]:
            result = result + basis.scale(coef[i])
        if i < n - 1:
            basis = basis * Poly([-points[i], 1])
    return result


# -- expansion in powers of p --------------------------------------------


@dataclass(frozen=True)
class PAdicExpansion:
    """Digits of a matrix in powers of a monic irreducible p, every digit
    entry of degree < deg p; lambda_iso reassembles them exactly."""

    p: Poly
    blocks: tuple  # of MatPoly


def expand_in_p(A: MatPoly, p: Poly) -> PAdicExpansion:
    if not p.is_monic() or p.degree < 1:
        raise NotMonic("expansion needs a monic p of degree >= 1")
    digit_grids = []
    for row in A.entries:
        row_digits = []
        for e in row:
            ds = []
            while not e.is_zero():
                e, r = e.divmod(p)
                ds.append(r)
            row_digits.append(ds)
        digit_grids.append(row_digits)
    q = max(
        (len(d) for row in digit_grids for d in row),
        default=0,
    )
    q = max(q, 1)
    blocks = []
    for k in range(q):
        blocks.append(
            MatPoly(
                [
                    [d[k] if k < len(d) else Poly.zero() for d in row]
                    for row in digit_grids
                ]
            )
        )
    return PAdicExpansion(p=p, blocks=tuple(blocks))


# -- digit <-> polynomial isomorphism -------------------------------------


def lambda_iso(blocks, p: Poly) -> list:
    """Map digit blocks (each a vector of polys of degree < deg p) to the
    polynomial vector sum_k p**k * block_k."""
    s = p.degree
    blocks = [list(b) for b in blocks]
    n = len(blocks[0])
    for b in blocks:
        if len(b) != n:
            raise DimensionMismatch("digit blocks of differing length")
        for e in b:
            if e.degree >= s:
                raise DegreeTooHigh("digit entry with degree >= deg p")
    out = [Poly.zero()] * n
    pk = Poly.one()
    for b in blocks:
        for i, e in enumerate(b):
            if not e.is_zero():
                out[i] = out[i] + e * pk
        pk = pk * p
    return out
