"""Matrix polynomials: products, exact division of the columns of A*V by a
diagonal, exact determinants, and the digit/polynomial isomorphism that
reassembles the local Smith form algorithms' digits in powers of p (the
digits themselves come from localsmith._plane_digits)."""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import chain
from math import isqrt, lcm, prod

from .errors import (
    DegreeTooHigh,
    DimensionMismatch,
    DivisibilityFailure,
    EmptyInput,
    NotSquare,
    ShapeMismatch,
    SmithError,
)
from .field import GaussianRational
from .poly import Poly, _from_ints, _pack, _pseudo_divmod, _unpack
from .poly import _pack_gaussian, _unpack_gaussian


class MatPoly:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(_as_entry(e) for e in row) for row in entries)
        if not rows:
            raise EmptyInput("matrix needs at least one row and column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ShapeMismatch("ragged rows")
        if not width:
            raise EmptyInput("matrix needs at least one row and column")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, name, value):
        raise AttributeError("MatPoly is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def identity(n: int) -> "MatPoly":
        return MatPoly.diag([Poly.one()] * n)

    @staticmethod
    def diag(entries) -> "MatPoly":
        es = [_as_entry(e) for e in entries]
        n = len(es)
        return MatPoly(
            [[es[i] if i == j else Poly.zero() for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def from_columns(cols) -> "MatPoly":
        cols = list(cols)
        if len(set(map(len, cols))) > 1:  # zip would cut ragged columns short
            raise ShapeMismatch("ragged columns")
        return MatPoly(zip(*cols))

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
        """Product; rational factors multiply on integers by the packed
        chain kernel (_rational_product), Gaussian ones by plain Poly
        arithmetic."""
        if self.cols != other.rows:
            raise DimensionMismatch("inner dimensions differ")
        product = _rational_product((self, other))
        if product is not None:
            rows, s, t = product
            return MatPoly(
                [[_from_ints(c, si * tj) for c, tj in zip(row, t)] for row, si in zip(rows, s)]
            )
        bt = list(zip(*other.entries))
        return MatPoly(
            [
                [sum((a * b for a, b in zip(row, col) if a and b), Poly.zero()) for col in bt]
                for row in self.entries
            ]
        )

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
    """E with E*D = A*V, by exact division of column i of A*V by d_i.

    D must be diagonal with V's column count and no zero d_i.  Rational A
    and V divide on integers: the product of A's integer rows and V's
    integer columns, from the chain kernel of @ (_rational_product),
    goes column by column through pseudo-division (_pseudo_divmod) by
    d_i's numerators, whose scale joins the denominator; a constant d_i
    only joins the denominator.  Gaussian operands take A @ V and
    Poly.divmod."""
    n = V.cols
    if A.cols != V.rows or D.rows != n or D.cols != n:
        raise DimensionMismatch("compute_E needs A*V and D of matching sizes")
    if any(D[i, j] for i in range(n) for j in range(n) if i != j):
        raise ShapeMismatch("D is not diagonal")
    ds = [D[i, i] for i in range(n)]
    for i, d in enumerate(ds):
        if d.is_zero():
            raise DivisibilityFailure(f"column {i + 1} of A*V: d_{i + 1} is zero")
    product = _rational_product((A, V)) if all(d._nums is not None for d in ds) else None
    if product is not None:
        rows, s, t = product
        out = [[None] * n for _ in rows]
        for i, d in enumerate(ds):
            b, sb = d._nums, d._den
            for r, row in enumerate(rows):
                c, k = row[i], b[0]
                if len(b) > 1:
                    c, rem, k = _pseudo_divmod(c, b)
                    if rem:
                        raise _not_divisible(i)
                out[r][i] = _from_ints([x * sb for x in c] if sb != 1 else c, s[r] * t[i] * k)
        return MatPoly(out)
    AV = A @ V
    cols = []
    for i, d in enumerate(ds):
        col = []
        for r in range(AV.rows):
            q, rem = AV[r, i].divmod(d)
            if not rem.is_zero():
                raise _not_divisible(i)
            col.append(q)
        cols.append(col)
    return MatPoly.from_columns(cols)


def _not_divisible(i):
    return DivisibilityFailure(f"column {i + 1} of A*V is not divisible by d_{i + 1}")


# -- determinants -------------------------------------------------------


def mat_det(A: MatPoly) -> Poly:
    """Exact determinant on integers: that of A's rows scaled to integers
    (_integer_rows), by _det_of."""
    if not A.is_square():
        raise NotSquare("determinant needs a square matrix")
    if A.rows == 1:
        return A[0, 0]
    one, scales, rows = _integer_rows(A.entries)
    return _det_of((one, rows), scales)


def _det_of(factor, scales) -> Poly:
    """det of the matrix with rows rows[i] / scales[i], for (one, rows) from
    _integer_rows or a factor of _integer_chain (its scaled columns give
    the det of the transpose, the same), divided once by prod(scales).
    deg det <= bound = min(sum of row degrees, sum of column degrees); a
    zero row or column gives zero.  One packed Bareiss (_det_packed)."""
    one, rows = factor
    degrees = [[len(cs) - 1 for cs in row] for row in rows]
    row_deg, col_deg = list(map(max, degrees)), list(map(max, zip(*degrees)))
    if min(row_deg + col_deg) < 0:
        return Poly.zero()
    coeffs = _det_packed(rows, min(sum(row_deg), sum(col_deg)), one)
    if type(one) is int:
        return _from_ints(coeffs, prod(scales))
    return Poly(coeffs).scale(Fraction(1, prod(scales)))


def _det_packed(rows, bound, one) -> list:
    """The bound + 1 coefficients of det of integer (Gaussian-integer, for
    one = GaussianRational(1)) rows, by Kronecker substitution x = 2**B:
    one fraction-free Bareiss on the packed entries, exact over Z and
    Z[i], and bound + 1 signed B-bit slots read back (both parts of a
    Gaussian value apart, poly._pack_gaussian).  Goldstein-Graham: the
    modulus of every coefficient is at most sqrt(H), H = prod_i sum_j
    |a_ij|_1**2, with |re| + |im| bounding the modulus of a Gaussian
    coefficient; sqrt(H) < isqrt(H) + 1 < 2**(B-1), so each part fits a
    signed B-bit slot.  Slots that do not pack back to the Bareiss value
    are a broken bound, raised, never a wrong det."""
    size, pack, unpack = _slots(one)
    H = prod(sum(sum(map(size, cs)) ** 2 for cs in row) for row in rows)
    B = (isqrt(H) + 1).bit_length() + 1
    v = _bareiss(_packed(one, rows, B), one)
    coeffs = unpack(v, B, bound + 1)
    if pack(coeffs, B) != v:
        raise SmithError("packed determinant outgrew its slots")
    return coeffs


def _slots(one):
    """(size, pack, unpack) for integer coefficients (one = 1) or Gaussian
    integers held as GaussianRational (one = GaussianRational(1)): size
    bounds each part of a coefficient, |re| + |im| on a Gaussian one, and
    pack and unpack fill and read signed B-bit slots."""
    if type(one) is int:
        return abs, _pack, _unpack
    return lambda c: abs(c.re.numerator) + abs(c.im.numerator), _pack_gaussian, _unpack_gaussian


def _integer_rows(entries):
    """(one, scales, rows) for rows of Poly entries: rows[i][j] lists the
    coefficients of scales[i] * entries[i][j], scales[i] the lcm of row i's
    denominators.  Over Q they are ints, read off the integer forms: the
    scale is the lcm of the row's dens, and no coefficient is scanned.
    With a Gaussian entry they are Gaussian integers held as
    GaussianRational, and one = GaussianRational(1)."""
    scales, rows = [], []
    if all(e._nums is not None for row in entries for e in row):
        for row in entries:
            m = lcm(*[e._den for e in row])
            scales.append(m)
            rows.append([
                e._nums if e._den == m else [c * (m // e._den) for c in e._nums]
                for e in row
            ])
        return 1, scales, rows
    one = GaussianRational(1)
    for row in entries:
        m = lcm(*(q for e in row for c in e.coeffs for q in _denominators(c)))
        scales.append(m)
        rows.append([[one * (c * m) for c in e.coeffs] for e in row])
    return one, scales, rows


def _integer_chain(factors):
    """(scaled, s, t, bound) for a product of one or two matrices on
    integers: scaled[0] is (one, rows), rows[i][k] the coefficients of
    row i of the first factor times its lcm of denominators, and
    scaled[1], for a second factor, is (one, cols), its columns each times
    its own lcm; s (the first factor's row lcms) and t (the second
    factor's column lcms, all 1 without one) are such that entry (i, j)
    of the product is that of the scaled product over s[i] t[j].  one is
    as in _integer_rows.

    bound is at least the size of each part of each coefficient of the
    scaled product, |re| + |im| bounding a Gaussian one: the product of
    both factors' largest coefficients and the number of products one
    coefficient adds, sum_k min(l_k, m_k), for l_k the longest entry of
    column k of the first factor and m_k that of row k of the second."""
    first, *rest = factors
    one, s, rows = _integer_rows(first.entries)
    scaled, bound, t = [(one, rows)], _largest(one, rows), [1] * first.cols
    if rest:
        (second,) = rest
        one_k, t, cols = _integer_rows(list(zip(*second.entries)))
        bound *= _largest(one_k, cols) * sum(
            map(min, (max(map(len, col)) for col in zip(*rows)),
                (max(map(len, row)) for row in zip(*cols)))
        )
        scaled.append((one_k, cols))
    return scaled, s, t, bound


def _largest(one, rows) -> int:
    size = _slots(one)[0]
    return max(map(size, chain.from_iterable(chain.from_iterable(rows))), default=0)


def _packed(one, rows, B) -> list:
    pack = _slots(one)[1]
    return [[pack(e, B) for e in row] for row in rows]


def _chain_rows(scaled, B):
    """Row i of the scaled product of an _integer_chain, for i in order,
    as one value at x = 2**B per entry: each factor is packed once
    (_packed), and row i of the first is multiplied by the second, if
    there is one, each product of two entries one multiplication."""
    (one, rows), *second = scaled
    second = [_packed(one_k, cols, B) for one_k, cols in second]
    for row in _packed(one, rows, B):
        for cols in second:
            row = [sum(map(operator.mul, row, col)) for col in cols]
        yield row


def _rational_product(factors):
    """(rows, s, t) for the product of two rational matrices, None if one
    has a Gaussian entry: rows[i][j] lists the integer coefficients of
    entry (i, j) of the scaled product (_integer_chain), so that entry of
    the product is rows[i][j] / (s[i] t[j]).

    The chain's bound is below 2**(B - 1) for B = bound.bit_length() + 1,
    so every coefficient fits a signed B-bit slot and each entry is
    unpacked once.  An entry whose top slot is u has more than
    2**(B u - 1) in size, so bit_length // B + 1 slots hold it."""
    if any(e._nums is None for M in factors for row in M.entries for e in row):
        return None
    scaled, s, t, bound = _integer_chain(factors)
    B = bound.bit_length() + 1
    rows = [
        [_unpack(v, B, v.bit_length() // B + 1) for v in row] for row in _chain_rows(scaled, B)
    ]
    return rows, s, t


def _denominators(c):
    if isinstance(c, GaussianRational):
        return c.re.denominator, c.im.denominator
    return (c.denominator,)


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


# -- digit <-> polynomial isomorphism -------------------------------------


def lambda_iso(blocks, p: Poly) -> list:
    """Map digit blocks (each a vector of polys of degree < deg p) to the
    polynomial vector sum_k p**k * block_k."""
    s = p.degree
    blocks = [list(b) for b in blocks]
    if not blocks:
        raise EmptyInput("lambda_iso needs at least one digit block")
    n = len(blocks[0])
    for b in blocks:
        if len(b) != n:
            raise DimensionMismatch("digit blocks of differing length")
        if any(e.degree >= s for e in b):
            raise DegreeTooHigh("digit entry with degree >= deg p")
    out = [Poly.zero()] * n
    minus_pk = -Poly.one()  # -p**k: the row operation subtracts
    for b in blocks:
        _sub_multiple(out, b, minus_pk)
        minus_pk = minus_pk * p
    return out


def _sub_multiple(y: list, x, q: Poly) -> None:
    """y[c] = y[c] - q * x[c] in place, for each nonzero x[c]: the one
    polynomial row operation that triangularize, the Bezout splice,
    lambda_iso and both oracles run on the rows or columns they hold."""
    for c, v in enumerate(x):
        if v:
            y[c] = y[c] - q * v
