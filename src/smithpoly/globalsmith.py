"""Global Smith form with multipliers: factor the determinant, compute a
local form per irreducible factor, splice them with Bezout coefficients,
and triangularize the combination into a unimodular right multiplier."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DivisibilityFailure,
    EmptyInput,
    FactorSetMismatch,
    NotRegular,
    NotSquare,
    NotUnimodular,
    SmithError,
)
from .factorization import FactoredPoly, factor_over_rationals
from .localsmith import local_smith
from .matpoly import MatPoly, mat_det
from .poly import Poly, multi_xgcd


@dataclass(frozen=True)
class SmithResult:
    """A*V = E*D with D monic diagonal under divisibility, V and E
    unimodular; U = inverse of E when requested."""

    D: MatPoly
    V: MatPoly
    E: MatPoly
    U: MatPoly | None = None

    def diagonal(self) -> list:
        return [self.D[i, i] for i in range(self.D.rows)]


@dataclass(frozen=True)
class CombinedMultiplier:
    matrix: MatPoly
    mode: str  # "single" | "whole" | "per-column"


def factor_determinant(A: MatPoly) -> FactoredPoly:
    if not A.is_square():
        raise NotSquare("determinant needs a square matrix")
    det = mat_det(A)
    if det.is_zero():
        raise NotRegular("det(A) is identically zero")
    return factor_over_rationals(det)


def combine_local(
    A: MatPoly,
    locals_: list,
    mode: str = "whole",
    factored: FactoredPoly | None = None,
    check: bool = True,
) -> CombinedMultiplier:
    """Splice per-prime multipliers into one matrix whose i-th column is a
    root function of maximal order for every prime simultaneously.

    mode "whole" weighs each local V by one Bezout coefficient of the top
    prime powers; "per-column" takes coefficients per column from that
    column's exponents.  The two agree modulo every diagonal entry, so
    triangularize returns the same V from either.

    With check, the result is checked before return: column i of A times
    it must be divisible by d_i, and its determinant must avoid every prime.
    """
    if not locals_:
        raise EmptyInput("no local results to combine")
    n = A.rows
    if factored is not None:
        want = {p: e for p, e in factored.factors}
        got = {loc.p: sum(loc.alphas) for loc in locals_}
        if want != got:
            raise FactorSetMismatch(
                "local results do not match the determinant factorization"
            )
    primes = [loc.p for loc in locals_]
    if len(locals_) == 1:
        combined = CombinedMultiplier(matrix=locals_[0].V, mode="single")
        if check:
            _check_combined(A, locals_, combined)
        return combined

    if mode == "whole":
        top = [loc.alphas[-1] for loc in locals_]
        fs = [_product_without(primes, top, j) for j in range(len(locals_))]
        bounds = [primes[j].degree * top[j] for j in range(len(locals_))]
        gs, g = multi_xgcd(fs, bounds)
        if not g.is_one():
            raise FactorSetMismatch("local primes are not pairwise distinct")
        acc = MatPoly.zeros(n, n)
        for loc, cj, fj in zip(locals_, gs, fs):
            acc = acc + loc.V.scale(cj * fj)
        combined = CombinedMultiplier(matrix=acc, mode="whole")
    elif mode == "per-column":
        cols = []
        for i in range(n):
            exps = [max(loc.alphas[i], 1) for loc in locals_]
            fs = [_product_without(primes, exps, j) for j in range(len(locals_))]
            bounds = [primes[j].degree * exps[j] for j in range(len(locals_))]
            gs, g = multi_xgcd(fs, bounds)
            if not g.is_one():
                raise FactorSetMismatch("local primes are not pairwise distinct")
            col = [Poly.zero()] * n
            for loc, cj, fj in zip(locals_, gs, fs):
                scale = cj * fj
                vcol = loc.V.column(i)
                for r in range(n):
                    if not vcol[r].is_zero():
                        col[r] = col[r] + scale * vcol[r]
            cols.append(col)
        combined = CombinedMultiplier(
            matrix=MatPoly.from_columns(cols), mode="per-column"
        )
    else:
        raise ValueError(f"unknown combine mode: {mode!r}")
    if check:
        _check_combined(A, locals_, combined)
    return combined


def _product_without(primes, exps, j) -> Poly:
    out = Poly.one()
    for k, (p, e) in enumerate(zip(primes, exps)):
        if k != j:
            out = out * p**e
    return out


def _check_combined(A: MatPoly, locals_: list, combined: CombinedMultiplier):
    n = A.rows
    B = combined.matrix
    AB = A @ B
    for i in range(n):
        d = smith_diagonal_entry(locals_, i)
        for r in range(n):
            if not AB[r, i].divmod(d)[1].is_zero():
                raise SmithError(
                    "combined multiplier broke column divisibility: "
                    f"column {i + 1} is not a multiple of its diagonal entry"
                )
    det = mat_det(B)
    for loc in locals_:
        if (det % loc.p).is_zero():
            raise SmithError(
                "combined multiplier determinant lost independence at "
                f"{loc.p.human_text()}"
            )


def smith_diagonal_entry(locals_: list, i: int) -> Poly:
    d = Poly.one()
    for loc in locals_:
        a = loc.alphas[i]
        if a:
            d = d * loc.p**a
    return d


def smith_diagonal(locals_: list, n: int) -> MatPoly:
    return MatPoly.diag([smith_diagonal_entry(locals_, i) for i in range(n)])


def triangularize(combined: CombinedMultiplier, D: MatPoly):
    """Extract a unimodular V from the combined multiplier by column
    Hermite steps, working from the last column towards the first
    nontrivial one.  Each working column head is first replaced by its
    remainder modulo the matching diagonal entry, which keeps degrees
    small and makes V depend on the combined multiplier only modulo the
    diagonal: the whole-matrix and per-column splices agree there, so
    they give the same V.

    Each column is condensed to its gcd by division-with-remainder row
    operations (always pivoting on the minimum-degree entry); the
    composition of those operations is the unimodular gcd-extracting
    transform, applied in place to the working matrix and mirrored on
    the accumulated V, so no cofactor products are ever materialized.

    Returns (V, B1): V unimodular and B1 the triangularized working matrix
    (zero above the diagonal in every processed column).
    """
    B = [list(row) for row in combined.matrix.entries]
    n = len(B)
    ds = [D[i, i] for i in range(n)]
    stop = 0
    while stop < n and ds[stop].is_one():
        stop += 1
    vacc = [
        [Poly.one() if i == j else Poly.zero() for j in range(n)] for i in range(n)
    ]

    def row_sub(r, piv, q, width):
        # B row r -= q * B row piv; the inverse lands on V column piv
        brow, prow = B[r], B[piv]
        for c in range(width):
            if not prow[c].is_zero():
                brow[c] = brow[c] - q * prow[c]
        for vrow in vacc:
            if not vrow[r].is_zero():
                vrow[piv] = vrow[piv] + q * vrow[r]

    for i in range(n - 1, stop - 1, -1):
        for r in range(i + 1):
            B[r][i] = B[r][i] % ds[i]
        while True:
            nz = [r for r in range(i + 1) if not B[r][i].is_zero()]
            if not nz:
                raise SmithError(
                    "working column vanished; the combined multiplier was invalid"
                )
            if len(nz) == 1:
                src = nz[0]
                if src != i:
                    B[src], B[i] = B[i], B[src]
                    for vrow in vacc:
                        vrow[src], vrow[i] = vrow[i], vrow[src]
                lead = B[i][i].lc()
                if lead != 1:
                    inv = 1 / lead
                    B[i] = [e.scale(inv) for e in B[i]]
                    for vrow in vacc:
                        vrow[i] = vrow[i].scale(lead)
                break
            piv = min(nz, key=lambda r: B[r][i].degree)
            for r in nz:
                if r != piv:
                    q = B[r][i] // B[piv][i]
                    row_sub(r, piv, q, i + 1)
    return MatPoly(vacc), MatPoly(B)


def compute_E(A: MatPoly, V: MatPoly, D: MatPoly) -> MatPoly:
    """E with E*D = A*V, by exact division of column i by d_i."""
    AV = A @ V
    n = AV.rows
    cols = []
    for i in range(AV.cols):
        d = D[i, i]
        col = []
        for r in range(n):
            q, rem = AV[r, i].divmod(d)
            if not rem.is_zero():
                raise DivisibilityFailure(
                    f"column {i + 1} of A*V is not divisible by d_{i + 1}"
                )
            col.append(q)
        cols.append(col)
    return MatPoly.from_columns(cols)


def invert_unimodular(E: MatPoly) -> MatPoly:
    """Exact inverse of a unimodular matrix polynomial.

    Row-reduces E to unit upper triangular T while mirroring the
    operations on an identity, then back-substitutes column by column.
    Worked rows are rescaled to primitive form after every update (a
    constant row scaling, still an elementary operation here), which
    stops pure-redundancy coefficient growth.
    """
    if not E.is_square():
        raise NotSquare("inverse needs a square matrix")
    n = E.rows
    M = [list(row) for row in E.entries]
    Q = [[Poly.one() if i == j else Poly.zero() for j in range(n)] for i in range(n)]

    def strip(r):
        c = _row_content(M[r], Q[r])
        if c != 1:
            inv = 1 / c
            M[r] = [x.scale(inv) for x in M[r]]
            Q[r] = [x.scale(inv) for x in Q[r]]

    for j in range(n):
        while True:
            nz = [r for r in range(j, n) if not M[r][j].is_zero()]
            if not nz:
                raise NotUnimodular("determinant is not a nonzero constant")
            if len(nz) == 1:
                if nz[0] != j:
                    M[j], M[nz[0]] = M[nz[0]], M[j]
                    Q[j], Q[nz[0]] = Q[nz[0]], Q[j]
                break
            piv = min(nz, key=lambda r: M[r][j].degree)
            for r in nz:
                if r != piv:
                    q = M[r][j] // M[piv][j]
                    if not q.is_zero():
                        M[r] = [x - q * y for x, y in zip(M[r], M[piv])]
                        Q[r] = [x - q * y for x, y in zip(Q[r], Q[piv])]
                        strip(r)
        piv = M[j][j]
        if not piv.is_constant():
            raise NotUnimodular("determinant is not a nonzero constant")
        if not piv.is_one():
            c = 1 / piv.lc()
            M[j] = [x.scale(c) for x in M[j]]
            Q[j] = [x.scale(c) for x in Q[j]]
    inv_cols = []
    for c in range(n):
        w = [Poly.zero()] * n
        for i in range(n - 1, -1, -1):
            acc = Q[i][c]
            for m in range(i + 1, n):
                if M[i][m] and w[m]:
                    acc = acc - M[i][m] * w[m]
            w[i] = acc
        inv_cols.append(w)
    return MatPoly.from_columns(inv_cols)


def _row_content(*poly_groups):
    """Common rational content of all coefficients in the given polys;
    1 when any coefficient is not rational."""
    from fractions import Fraction
    from math import gcd as igcd

    lcm = 1
    coeffs = []
    for group in poly_groups:
        for f in group:
            for c in f.coeffs:
                if not isinstance(c, Fraction):
                    return Fraction(1)
                coeffs.append(c)
                lcm = lcm * c.denominator // igcd(lcm, c.denominator)
    g = 0
    for c in coeffs:
        g = igcd(g, int(c * lcm))
        if g == 1 and lcm == 1:
            return Fraction(1)
    if g == 0:
        return Fraction(1)
    return Fraction(g, lcm)


def smith_with_multipliers(A: MatPoly, with_U: bool = False) -> SmithResult:
    """Steps 0-3 end to end: factor det(A), a local Smith form at each
    prime, their Bezout splice, triangularization into V, E = A V D^-1,
    and with with_U the inverse U of E."""
    n = A.rows
    factored = factor_determinant(A)
    locals_ = [local_smith(A, p, e) for p, e in factored.factors]
    if locals_:
        mode = _pick_bezout_mode(locals_)
        combined = combine_local(A, locals_, mode, factored=factored)
        D = smith_diagonal(locals_, n)
        V = combined.matrix
        if combined.mode != "single":
            V, _ = triangularize(combined, D)
        E = compute_E(A, V, D)
    else:
        D = V = MatPoly.identity(n)
        E = A
    U = invert_unimodular(E) if with_U else None
    return SmithResult(D=D, V=V, E=E, U=U)


def _pick_bezout_mode(locals_: list) -> str:
    """The cheaper splice: per-column when the chain lengths are spread
    out (it keeps coefficients small there), else whole.  Both give the
    same V after triangularization."""
    top = max(loc.alphas[-1] for loc in locals_)
    nonzero = [a for loc in locals_ for a in loc.alphas if a > 0]
    return "per-column" if top - min(nonzero) >= 2 else "whole"
