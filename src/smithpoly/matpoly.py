"""Matrix polynomials: products, exact determinants, expansion in powers
of an irreducible p, and the digit/polynomial isomorphism used by the
local Smith form algorithms."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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

    def transpose(self) -> "MatPoly":
        return MatPoly(list(zip(*self.entries)))

    def map_entries(self, fn) -> "MatPoly":
        return MatPoly([[fn(e) for e in row] for row in self.entries])

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


def mat_det(A: MatPoly) -> Poly:
    """Exact determinant; fraction-free elimination for small inputs,
    evaluation/interpolation when the Bareiss route would swell."""
    if not A.is_square():
        raise NotSquare("determinant needs a square matrix")
    n = A.rows
    if n == 1:
        return A[0, 0]
    d = A.max_degree()
    if d < 0:
        return Poly.zero()
    if n <= 2 or (n <= 7 and n * d <= 64):
        return _det_bareiss(A)
    return _det_interp(A)


def _det_bareiss(A: MatPoly) -> Poly:
    n = A.rows
    m = [list(row) for row in A.entries]
    sign = 1
    prev = Poly.one()
    for k in range(n - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Poly.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = num.exact_div(prev)
            m[i][k] = Poly.zero()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def _det_interp(A: MatPoly) -> Poly:
    n = A.rows
    bound = n * A.max_degree() + 1
    points = []
    k = 0
    while len(points) < bound:
        points.append(Fraction(k))
        if k > 0 and len(points) < bound:
            points.append(Fraction(-k))
        k += 1
    values = []
    for x in points:
        scalar = [[e.eval(x) for e in row] for row in A.entries]
        values.append(_scalar_det(scalar))
    return _interpolate(points, values)


def _scalar_det(m):
    n = len(m)
    sign = 1
    det = Fraction(1)
    for k in range(n):
        piv = None
        for i in range(k, n):
            if m[i][k]:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pivot = m[k][k]
        det = det * pivot
        inv = 1 / pivot
        for i in range(k + 1, n):
            f = m[i][k] * inv
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det * sign


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

    def __len__(self):
        return len(self.blocks)


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
