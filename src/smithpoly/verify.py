"""Independent verification of Smith form outputs."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ShapeMismatch
from .matpoly import MatPoly, mat_det


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple  # of (name, passed, witness)
    overall: bool

    def lines(self):
        out = []
        for name, ok, witness in self.checks:
            mark = "pass" if ok else "FAIL"
            msg = f"{mark}  {name}"
            if witness and not ok:
                msg += f"  ({witness})"
            out.append(msg)
        out.append(("OVERALL pass" if self.overall else "OVERALL FAIL"))
        return out


def verify_smith(
    A: MatPoly,
    E: MatPoly,
    D: MatPoly,
    F: MatPoly | None = None,
    V: MatPoly | None = None,
) -> VerifyReport:
    """Check a claimed Smith form: A = E*D*F, or A*V = E*D when the right
    multiplier is given as V (the inverse of F)."""
    if (F is None) == (V is None):
        raise ShapeMismatch("provide exactly one of F and V")
    n = A.rows
    for M in (A, E, D, F if F is not None else V):
        if not (M.rows == n and M.cols == n):
            raise ShapeMismatch("all matrices must be square of equal size")

    checks = []

    def add(name, ok, witness=""):
        checks.append((name, bool(ok), witness))

    if F is not None:
        prod = E @ D @ F
        ok = prod == A
        add("product identity A = E*D*F", ok, "" if ok else _first_diff(A, prod))
    else:
        left = A @ V
        right = E @ D
        ok = left == right
        add("product identity A*V = E*D", ok, "" if ok else _first_diff(left, right))

    diag = [D[i, i] for i in range(n)]
    off_ok = all(
        D[i, j].is_zero() for i in range(n) for j in range(n) if i != j
    )
    add("D diagonal", off_ok, "" if off_ok else "off-diagonal entry present")
    monic_ok = all(d.is_monic() for d in diag)
    add(
        "monic diagonal",
        monic_ok,
        "" if monic_ok else "a diagonal entry is zero or not monic",
    )
    chain_ok = True
    witness = ""
    for i in range(1, n):
        if diag[i - 1].is_zero() or not diag[i].divmod(diag[i - 1])[1].is_zero():
            chain_ok = False
            witness = f"d_{i} does not divide d_{i + 1}"
            break
    add("divisibility chain", chain_ok, witness)

    det_e = mat_det(E)
    add("unimodular E", det_e.degree == 0, f"det E = {det_e.human_text()}")
    side = F if F is not None else V
    det_side = mat_det(side)
    name = "unimodular F" if F is not None else "unimodular V"
    add(name, det_side.degree == 0, f"det = {det_side.human_text()}")

    det_a = mat_det(A)
    prod_d = diag[0]
    for d in diag[1:]:
        prod_d = prod_d * d
    if prod_d.is_zero():
        add("determinant product", det_a.is_zero(), "diagonal product is zero")
    else:
        q, r = det_a.divmod(prod_d)
        ok = r.is_zero() and q.degree == 0
        add(
            "determinant product",
            ok,
            "" if ok else "det(A) is not a constant multiple of prod(d_i)",
        )

    return VerifyReport(checks=tuple(checks), overall=all(c[1] for c in checks))


def _first_diff(X: MatPoly, Y: MatPoly) -> str:
    for i in range(X.rows):
        for j in range(X.cols):
            if X[i, j] != Y[i, j]:
                return f"first difference at entry ({i + 1},{j + 1})"
    return ""
