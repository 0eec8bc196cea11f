"""Slow, independent Smith form computations for validating the pipeline.

Two classical routes that share nothing with the local-form construction:
the determinantal-divisor quotients (gcds of all i x i minors) and direct
unimodular row/column reduction.  Size-guarded; correctness anchors only.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import NotRegular, NotSquare, TooLarge
from .matpoly import MatPoly, _sub_multiple, mat_det
from .poly import Poly, poly_gcd

_MAX_MINOR_SIZE = 5
_MINUS_ONE = -Poly.one()


def minors_gcd_smith(A: MatPoly) -> MatPoly:
    """Diagonal of the Smith form as quotients of determinantal divisors."""
    if not A.is_square():
        raise NotSquare("needs a square matrix")
    n = A.rows
    if n > _MAX_MINOR_SIZE:
        raise TooLarge(f"minor enumeration is capped at {_MAX_MINOR_SIZE}")
    deltas = [Poly.one()]
    index = list(range(n))
    for size in range(1, n + 1):
        g = Poly.zero()
        for rows in combinations(index, size):
            for cols in combinations(index, size):
                sub = MatPoly(
                    [[A[r, c] for c in cols] for r in rows]
                )
                m = mat_det(sub)
                if m.is_zero():
                    continue
                g = m.monic() if g.is_zero() else poly_gcd(g, m)
                if g.is_one():
                    break
            if g.is_one():
                break
        if g.is_zero():
            # a vanishing determinantal divisor forces det(A) == 0
            raise NotRegular("det(A) is identically zero")
        deltas.append(g)
    diag = []
    for i in range(1, n + 1):
        diag.append(deltas[i].exact_div(deltas[i - 1]).monic())
    return MatPoly.diag(diag)


def elementary_smith(A: MatPoly):
    """Classical reduction U*A*V = D by unimodular row/column operations.

    Pivot choice: minimum degree, ties broken by smallest coefficient
    height then position, for determinism and bounded growth.

    U is held by rows and V by columns.  The row operations run on M and
    U, the column operations on the transpose of M and on V, so each
    operation is one matpoly._sub_multiple on M and one on U or V.
    """
    if not A.is_square():
        raise NotSquare("needs a square matrix")
    n = A.rows
    M = [list(row) for row in A.entries]
    U = [list(row) for row in MatPoly.identity(n).entries]
    V = [list(col) for col in MatPoly.identity(n).entries]  # columns

    for k in range(n):
        while True:
            pos = _best_pivot(M, k, n)
            if pos is None:
                raise NotRegular("matrix is not regular")
            pi, pj = pos
            M[k], M[pi] = M[pi], M[k]
            U[k], U[pi] = U[pi], U[k]
            for row in M:
                row[k], row[pj] = row[pj], row[k]
            V[k], V[pj] = V[pj], V[k]
            dirty = _clear_below(M, U, k)
            M = [list(col) for col in zip(*M)]  # the column operations
            dirty = _clear_below(M, V, k) or dirty
            M = [list(row) for row in zip(*M)]
            if dirty:
                continue
            culprit = _indivisible_entry(M, k, n, M[k][k])
            if culprit is None:
                break
            ci, _ = culprit
            _sub_multiple(M[k], M[ci], _MINUS_ONE)
            _sub_multiple(U[k], U[ci], _MINUS_ONE)
        lead = M[k][k].lc()
        if lead != 1:
            inv = 1 / lead
            M[k][k] = M[k][k].scale(inv)
            U[k] = [e.scale(inv) for e in U[k]]

    return MatPoly(U), MatPoly(M), MatPoly.from_columns(V)


def _clear_below(M, X, k) -> bool:
    """Row i > k of M less (M[i][k] // M[k][k]) times row k, and the same
    on X; True if an M[i][k] is left nonzero.  Row k is zero before
    column k."""
    for i in range(k + 1, len(M)):
        q = M[i][k] // M[k][k]
        if q:
            _sub_multiple(M[i], M[k], q)
            _sub_multiple(X[i], X[k], q)
    return any(M[i][k] for i in range(k + 1, len(M)))


def _best_pivot(M, k, n):
    best = None
    key = None
    for i in range(k, n):
        for j in range(k, n):
            e = M[i][j]
            if e.is_zero():
                continue
            cand = (e.degree, _height(e), i, j)
            if key is None or cand < key:
                key = cand
                best = (i, j)
    return best


def _height(f: Poly):
    h = 0
    for c in f.coeffs:
        if isinstance(c, Fraction):
            h = max(h, abs(c.numerator), c.denominator)
        else:
            h = max(
                h,
                abs(c.re.numerator),
                c.re.denominator,
                abs(c.im.numerator),
                c.im.denominator,
            )
    return h


def _indivisible_entry(M, k, n, pivot):
    for i in range(k + 1, n):
        for j in range(k + 1, n):
            if not M[i][j].divmod(pivot)[1].is_zero():
                return i, j
    return None
