"""Matrix polynomials: products, exact division of the columns of A*V by a
diagonal, exact determinants, expansion in powers of an irreducible p, and
the digit/polynomial isomorphism used by the local Smith form algorithms."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from .errors import (
    DegreeTooHigh,
    DimensionMismatch,
    DivisibilityFailure,
    NotMonic,
    NotSquare,
)
from .field import GaussianRational
from .poly import Poly, _cleared, _from_ints, _int_divmod, _int_mul


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
        """Product; rational factors multiply on integers, the rows of self
        and the columns of other each scaled by their lcm of denominators."""
        if self.cols != other.rows:
            raise DimensionMismatch("inner dimensions differ")
        bt = list(zip(*other.entries))
        one_a, ra, rows = _integer_rows(self.entries)
        one_b, cb, cols = _integer_rows(bt)
        if type(one_a) is int and type(one_b) is int:
            return MatPoly(
                [
                    [_from_ints(_int_dot(row, col), a * b) for b, col in zip(cb, cols)]
                    for a, row in zip(ra, rows)
                ]
            )
        return MatPoly(
            [
                [sum((a * b for a, b in zip(row, col) if a and b), Poly.zero()) for col in bt]
                for row in self.entries
            ]
        )

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


def compute_E(A: MatPoly, V: MatPoly, D: MatPoly) -> MatPoly:
    """E with E*D = A*V, by exact division of column i of A*V by d_i."""
    AV = A @ V
    cols = []
    for i in range(AV.cols):
        d = D[i, i]
        col = []
        for r in range(AV.rows):
            q, rem = AV[r, i].divmod(d)
            if not rem.is_zero():
                raise DivisibilityFailure(
                    f"column {i + 1} of A*V is not divisible by d_{i + 1}"
                )
            col.append(q)
        cols.append(col)
    return MatPoly.from_columns(cols)


# -- determinants -------------------------------------------------------


def mat_det(A: MatPoly) -> Poly:
    """Exact determinant by evaluation and interpolation on integers.

    Each row is scaled by the lcm of its coefficient denominators, which
    makes every entry an integer (or Gaussian-integer) polynomial.  Horner
    evaluates them at min(sum of row degrees, sum of column degrees) + 1
    points, a bound on deg det + 1, fraction-free Bareiss gives the scaled
    determinant at each, and _interpolate's coefficients are divided once
    by the product of the scales.  A zero row or column gives zero."""
    if not A.is_square():
        raise NotSquare("determinant needs a square matrix")
    if A.rows == 1:
        return A[0, 0]
    degrees = [[e.degree for e in row] for row in A.entries]
    row_deg, col_deg = list(map(max, degrees)), list(map(max, zip(*degrees)))
    if min(row_deg + col_deg) < 0:
        return Poly.zero()
    one, scales, rows = _integer_rows(A.entries)
    bound = min(sum(row_deg), sum(col_deg))
    points = [(k + 1) // 2 if k % 2 else -(k // 2) for k in range(bound + 1)]
    values = [
        _bareiss([[_horner(cs, x, one) for cs in row] for row in rows], one)
        for x in points
    ]
    coeffs = _interpolate(points, values, _exact_div(one))
    if type(one) is int:
        return _from_ints(coeffs, prod(scales))
    return Poly(coeffs).scale(Fraction(1, prod(scales)))


def _integer_rows(entries):
    """(one, scales, rows) for rows of Poly entries: rows[i][j] lists the
    coefficients of scales[i] * entries[i][j], scales[i] the lcm of row i's
    denominators; int over Q, Gaussian integers held as GaussianRational
    (and one = GaussianRational(1)) else."""
    gaussian = any(
        isinstance(c, GaussianRational) for row in entries for e in row for c in e.coeffs
    )
    one = GaussianRational(1) if gaussian else 1
    scales, rows = [], []
    for row in entries:
        m = lcm(*(q for e in row for c in e.coeffs for q in _denominators(c)))
        scales.append(m)
        if gaussian:
            rows.append([[one * (c * m) for c in e.coeffs] for e in row])
        elif m == 1:
            rows.append([[c.numerator for c in e.coeffs] for e in row])
        else:
            rows.append([[c.numerator * (m // c.denominator) for c in e.coeffs] for e in row])
    return one, scales, rows


def _int_dot(row, col) -> list:
    """sum_k row[k] * col[k] for integer coefficient lists."""
    acc = []
    for a, b in zip(row, col):
        if a and b:
            _int_mul(a, b, acc)
    return acc


def _denominators(c):
    if isinstance(c, GaussianRational):
        return c.re.denominator, c.im.denominator
    return (c.denominator,)


def _horner(coeffs, x, one):
    acc = one * 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _exact_div(one):
    """Exact division for the kind of `one`: `/` on Gaussian integers held
    as GaussianRational, `//` on int that raises where it would floor."""
    return _exact_floordiv if type(one) is int else operator.truediv


def _exact_floordiv(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise DivisibilityFailure(f"{a} is not a multiple of {b}")
    return q


def _bareiss(m, one):
    """Fraction-free elimination: every quotient is exact.  The empty
    matrix has determinant one."""
    div = _exact_div(one)
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
    return m[0][0] * sign if m else one


def _interpolate(points, values, div) -> list:
    """Coefficients, lowest first, of the polynomial with values[k] at the
    integer points[k].  An integer (Gaussian-integer) polynomial has integer
    divided differences, so Newton's table runs on the exact `div`; Horner
    on coefficient lists, acc * (X - x) + c, expands the Newton form."""
    n = len(points)
    coef = list(values)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = div(coef[i] - coef[i - 1], points[i] - points[i - j])
    acc = [coef[-1]]
    for x, c in zip(reversed(points[:-1]), reversed(coef[:-1])):
        acc = [c - x * acc[0]] + [a - x * b for a, b in zip(acc, acc[1:])] + [acc[-1]]
    return acc


# -- expansion in powers of p --------------------------------------------


@dataclass(frozen=True)
class PAdicExpansion:
    """Digits of a matrix in powers of a monic irreducible p, every digit
    entry of degree < deg p; lambda_iso reassembles them exactly."""

    p: Poly
    blocks: tuple  # of MatPoly


def expand_in_p(A: MatPoly, p: Poly, count: int | None = None) -> PAdicExpansion:
    """The digits of A in powers of p, or only the first `count` of them."""
    if not p.is_monic() or p.degree < 1:
        raise NotMonic("expansion needs a monic p of degree >= 1")
    grids = [[_digits(e, p, count) for e in row] for row in A.entries]
    q = max([1] + [len(d) for row in grids for d in row])
    blocks = tuple(
        MatPoly([[d[k] if k < len(d) else Poly.zero() for d in row] for row in grids])
        for k in range(q)
    )
    return PAdicExpansion(p=p, blocks=blocks)


def _digits(e: Poly, p: Poly, count=None) -> list:
    """The digits of e in powers of the monic p, lowest first, at most
    `count` of them: repeated division by p, on integers when p and e are
    rational and p integral."""
    if count is None:
        count = e.degree // p.degree + 1
    ip, ie = _cleared(p.coeffs), _cleared(e.coeffs)
    if ip is None or ip[1] != 1 or ie is None:
        ds = []
        while not e.is_zero() and len(ds) < count:
            e, r = e.divmod(p)
            ds.append(r)
        return ds
    (b, _), (a, den) = ip, ie
    ds = []
    while a and len(ds) < count:
        a, r = _int_divmod(a, b)
        ds.append(_from_ints(r, den))
    return ds


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
