"""Independent verification of Smith form outputs."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ShapeMismatch, TooLarge
from .field import GaussianRational
from .matpoly import MatPoly, _chain_rows, _det_of, _integer_chain, mat_det
from .poly import Poly


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
    multiplier is given as V (the inverse of F).

    The product identity is one packed integer comparison per entry of
    two products of one or two factors, neither product formed
    (_first_unequal, on the chain kernel of @): A V against E D, or
    (E D) F against A, E D formed by @.  Every coefficient of both sides
    is proven below 2**(B - 1) in size, so the two sides agree at
    x = 2**B only where they are equal.  Its witness on failure is the
    first unequal entry, row by row, "first difference at entry (i,j)"."""
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
        name, left, right = "product identity A = E*D*F", (E @ D, F), (A,)
    else:
        name, left, right = "product identity A*V = E*D", (A, V), (E, D)
    # det A and det V (or F) are read off the chains' scaled rows and columns
    lchain, rchain = _integer_chain(left), _integer_chain(right)
    diff = _first_unequal(lchain, rchain)
    identity = diff is None
    add(name, identity, "" if identity else "first difference at entry ({},{})".format(*diff))

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

    a_chain = rchain if F is not None else lchain
    det_a = _det_of(a_chain[0][0], a_chain[1])
    det_side = _det_of(lchain[0][-1], lchain[2])
    prod_d = diag[0]
    for d in diag[1:]:
        prod_d = prod_d * d
    # with the identity and a diagonal D, det E follows from the other two
    det_e = None
    if identity and off_ok:
        det_e = _det_E(det_a, det_side, prod_d, F is not None)
    if det_e is None:
        det_e = mat_det(E)
    add("unimodular E", det_e.degree == 0, f"det E = {_det_text(det_e)}")
    name = "unimodular F" if F is not None else "unimodular V"
    add(name, det_side.degree == 0, f"det = {_det_text(det_side)}")

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


def _first_unequal(lchain, rchain):
    """The first entry (i + 1, j + 1), row by row, at which the product of
    the one or two square matrices of one _integer_chain differs from
    that of the other, or None where the two products are equal.  Neither
    product is formed.

    Each product is taken on integers by the chain kernel of @
    (matpoly._integer_chain): its entry (i, j) is c_ij / (s_i t_j), c_ij
    an integer (or Gaussian-integer) polynomial, so the entries of the two
    products agree where c_ij s'_i t'_j == c'_ij s_i t_j, primes marking
    the other side.  matpoly._chain_rows gives row i of each side as one
    number per entry, its value at x = 2**B, and the two sides of each
    entry are compared as two numbers.

    B: each part of each coefficient of one side is at most its chain's
    bound times the other chain's largest scales, which is below
    2**(B - 1).  Those of the difference of the two sides are then below
    2**B in size, and such a polynomial is zero at x = 2**B only if it is
    zero (its lowest nonzero coefficient is no multiple of 2**B), so
    equal values are equal entries."""
    (lf, ls, lt, lb), (rf, rs, rt, rb) = lchain, rchain
    B = max(lb * max(rs) * max(rt), rb * max(ls) * max(lt)).bit_length() + 1
    for i, (lrow, rrow) in enumerate(zip(_chain_rows(lf, B), _chain_rows(rf, B))):
        for j, (a, b) in enumerate(zip(lrow, rrow)):
            if a * (rs[i] * rt[j]) != b * (ls[i] * lt[j]):
                return i + 1, j + 1
    return None


def _det_E(det_a: Poly, det_side: Poly, prod_d: Poly, side_is_F: bool):
    """det E from det A * det V = det E * prod(d_i), or from
    det A = det E * prod(d_i) * det F; None when the divisor is zero."""
    num, den = (det_a, prod_d * det_side) if side_is_F else (det_a * det_side, prod_d)
    if den.is_zero():
        return None
    q, r = num.divmod(den)
    return q if r.is_zero() else None


def _det_text(det: Poly) -> str:
    """det.human_text(), or, where a coefficient is too long to write
    (TooLarge), a short form such as "<constant, 16610 bits>" that gives
    the degree and the bit length of the longest numerator or denominator."""
    try:
        return det.human_text()
    except TooLarge:
        parts = [
            q
            for c in det.coeffs
            for q in ((c.re, c.im) if isinstance(c, GaussianRational) else (c,))
        ]
        bits = max(max(abs(q.numerator), q.denominator).bit_length() for q in parts)
        kind = "constant" if det.degree == 0 else f"degree {det.degree}"
        return f"<{kind}, {bits} bits>"
