"""Slow, independent Smith form computations for validating the pipeline.

Two classical routes that share nothing with the local-form construction:
the determinantal-divisor quotients (gcds of all i x i minors) and direct
unimodular row/column reduction.  Size-guarded; correctness anchors only.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import NotRegular, NotSquare, TooLarge
from .matpoly import MatPoly, mat_det
from .poly import Poly, poly_gcd

_MAX_MINOR_SIZE = 5


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
    """
    if not A.is_square():
        raise NotSquare("needs a square matrix")
    n = A.rows
    M = [list(row) for row in A.entries]
    U = [[Poly.one() if i == j else Poly.zero() for j in range(n)] for i in range(n)]
    V = [[Poly.one() if i == j else Poly.zero() for j in range(n)] for i in range(n)]

    for k in range(n):
        while True:
            pos = _best_pivot(M, k, n)
            if pos is None:
                raise NotRegular("matrix is not regular")
            pi, pj = pos
            if pi != k:
                M[k], M[pi] = M[pi], M[k]
                U[k], U[pi] = U[pi], U[k]
            if pj != k:
                for row in M:
                    row[k], row[pj] = row[pj], row[k]
                for row in V:
                    row[k], row[pj] = row[pj], row[k]
            pivot = M[k][k]
            dirty = False
            for i in range(k + 1, n):
                if M[i][k].is_zero():
                    continue
                q = M[i][k] // pivot
                if not q.is_zero():
                    for c in range(k, n):
                        M[i][c] = M[i][c] - q * M[k][c]
                    for c in range(n):
                        U[i][c] = U[i][c] - q * U[k][c]
                if not M[i][k].is_zero():
                    dirty = True
            for j in range(k + 1, n):
                if M[k][j].is_zero():
                    continue
                q = M[k][j] // pivot
                if not q.is_zero():
                    for r in range(k, n):
                        M[r][j] = M[r][j] - q * M[r][k]
                    for r in range(n):
                        V[r][j] = V[r][j] - q * V[r][k]
                if not M[k][j].is_zero():
                    dirty = True
            if dirty:
                continue
            culprit = _indivisible_entry(M, k, n, pivot)
            if culprit is None:
                break
            ci, _ = culprit
            for c in range(k, n):
                M[k][c] = M[k][c] + M[ci][c]
            for c in range(n):
                U[k][c] = U[k][c] + U[ci][c]
        lead = M[k][k].lc()
        if lead != 1:
            inv = 1 / lead
            M[k][k] = M[k][k].scale(inv)
            for c in range(n):
                U[k][c] = U[k][c].scale(inv)

    return MatPoly(U), MatPoly(M), MatPoly(V)


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
