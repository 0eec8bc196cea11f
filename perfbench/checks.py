"""Independent checks of Smith form outputs.

Nothing here calls the program's own verifier or determinant, and nothing
compares against a stored copy of an earlier output.  The reference is
the diagonal each test family was built from (the Smith form is unique),
plus identities checked by evaluating both sides at more distinct
rational points than the degree bound of the polynomial being tested,
which makes every check exact.

Matrices are read through the public ``MatPoly`` interface only:
``rows``, ``cols``, ``M[i, j]`` and ``Poly.coeffs`` (ascending).
Polynomials written here are plain lists of integers, ascending.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

# -- integer polynomials (ascending coefficient lists) ---------------------


def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def ppow(a, e):
    out = [1]
    for _ in range(e):
        out = pmul(out, a)
    return out


def pdivmod_monic(a, p):
    """Quotient and remainder of a by a monic p, both integer lists."""
    a = list(a)
    dp = len(p) - 1
    if len(a) <= dp:
        return [], _trim(a)
    q = [0] * (len(a) - dp)
    for k in range(len(a) - 1, dp - 1, -1):
        c = a[k]
        if c:
            q[k - dp] = c
            for j in range(dp + 1):
                a[k - dp + j] -= c * p[j]
    return _trim(q), _trim(a[:dp])


def multiplicity(f, p):
    """Largest e with p**e dividing f (f nonzero, p monic, degree >= 1)."""
    e = 0
    while True:
        q, r = pdivmod_monic(f, p)
        if r:
            return e
        f, e = q, e + 1


LAM = [0, 1]


def _lin(c):
    """l + c"""
    return [c, 1]


def _quad(j):
    """l^2 + j"""
    return [j, 0, 1]


# -- the six test families, written from their definitions ----------------


def family_diagonal(family: int, param: int) -> list:
    """The diagonal each family hides, as integer coefficient lists."""
    one = [1]
    if family == 1:
        l, l1 = LAM, _lin(-1)
        tail = [l, pmul(l, l1), pmul(ppow(l, 2), l1), pmul(ppow(l, 2), ppow(l1, 2))]
        return [one] * (param - 4) + tail
    if family == 2:
        prod = one
        for j in range(1, param + 1):
            prod = pmul(prod, _lin(-j))
        return [one] * 8 + [prod]
    if family == 3:
        return [one] * 8 + [ppow(_lin(-1), param)]
    if family == 4:
        p, q = [1, 1, 1], [1, 0, 1, 1, 1]
        tail = [p, pmul(p, q), pmul(ppow(p, 2), q), pmul(ppow(p, 2), ppow(q, 2))]
        return [one] * (param - 4) + tail
    if family == 5:
        m = one
        for j in range(1, param + 1):
            m = pmul(m, _quad(j))
        return [one] * 6 + [m, ppow(m, 2), ppow(m, param)]
    if family == 6:
        diag = [one, one]
        for i in range(3, param + 1):
            d = one
            for j in range(1, i - 1):
                d = pmul(d, ppow(_quad(j), i - 1 - j))
            diag.append(d)
        return diag
    raise ValueError(f"unknown family {family}")


def family_primes(family: int, param: int) -> list:
    """The monic irreducible factors of the family's determinant."""
    if family == 1:
        return [LAM, _lin(-1)]
    if family == 2:
        return [_lin(-j) for j in range(1, param + 1)]
    if family == 3:
        return [_lin(-1)]
    if family == 4:
        return [[1, 1, 1], [1, 0, 1, 1, 1]]
    if family == 5:
        return [_quad(j) for j in range(1, param + 1)]
    if family == 6:
        return [_quad(j) for j in range(1, param - 1)]
    raise ValueError(f"unknown family {family}")


def local_exponents(diag: list, p) -> tuple:
    """Multiplicity of p in each diagonal entry: the local exponents."""
    return tuple(multiplicity(d, p) for d in diag)


# -- evaluation ------------------------------------------------------------


def degree(M) -> int:
    """Largest entry degree; -1 for the zero matrix."""
    return max(len(M[i, j].coeffs) - 1 for i in range(M.rows) for j in range(M.cols))


def _eval(cs, x):
    acc = 0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _eval_rational(cs, x):
    # clear denominators so the evaluation runs on Python ints
    den = lcm(*(Fraction(c).denominator for c in cs)) if cs else 1
    v = _eval([int(Fraction(c) * den) for c in cs], x)
    return v if den == 1 else Fraction(v, den)


def eval_matrix(M, x) -> list:
    return [
        [_eval_rational(M[i, j].coeffs, x) for j in range(M.cols)]
        for i in range(M.rows)
    ]


def points(count: int) -> list:
    """count distinct integers 0, 1, -1, 2, -2, ..."""
    out = [0]
    k = 1
    while len(out) < count:
        out.append(k)
        if len(out) < count:
            out.append(-k)
        k += 1
    return out[:count]


def _matmul(X, Y):
    cols = list(zip(*Y))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in X]


def scalar_det(m) -> Fraction:
    """Determinant of a rational matrix: scale rows to integers, then
    fraction-free (Bareiss) elimination."""
    n = len(m)
    rows, scale = [], 1
    for row in m:
        den = lcm(*(Fraction(v).denominator for v in row))
        rows.append([int(Fraction(v) * den) for v in row])
        scale *= den
    sign, prev = 1, 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k]:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pk = rows[k][k]
        for i in range(k + 1, n):
            rik = rows[i][k]
            ri, rk = rows[i], rows[k]
            for j in range(k + 1, n):
                ri[j] = (pk * ri[j] - rik * rk[j]) // prev
            ri[k] = 0
        prev = pk
    return Fraction(sign * rows[n - 1][n - 1], scale)


def _det_degree_bound(M) -> int:
    col = sum(max(len(M[i, j].coeffs) - 1 for i in range(M.rows)) for j in range(M.cols))
    row = sum(max(len(M[i, j].coeffs) - 1 for j in range(M.cols)) for i in range(M.rows))
    return max(min(col, row), 0)


# -- the checks ------------------------------------------------------------
# Each returns a list of failure messages; an empty list means it passed.


def check_diagonal(D, diag) -> list:
    n = len(diag)
    if D.rows != n or D.cols != n:
        return [f"D is {D.rows}x{D.cols}, expected {n}x{n}"]
    for i in range(n):
        for j in range(n):
            want = diag[i] if i == j else []
            if list(D[i, j].coeffs) != want:
                return [f"D[{i + 1},{j + 1}] differs from the family diagonal"]
    return []


def check_product(A, V, E, dpolys, name="A*V = E*D") -> list:
    """A(x) V(x) = E(x) diag(d)(x) at more points than the degree bound."""
    dd = max(len(d) - 1 for d in dpolys)
    bound = max(degree(A) + degree(V), degree(E) + dd)
    for x in points(bound + 1):
        left = _matmul(eval_matrix(A, x), eval_matrix(V, x))
        Ex = eval_matrix(E, x)
        dx = [_eval(d, x) for d in dpolys]
        for i, row in enumerate(left):
            for j, v in enumerate(row):
                if v != Ex[i][j] * dx[j]:
                    return [f"{name} fails at l = {x}, entry ({i + 1},{j + 1})"]
    return []


def check_inverse(U, E) -> list:
    """U(x) E(x) = I at more points than the degree bound of U*E."""
    n = E.rows
    for x in points(degree(U) + degree(E) + 1):
        prod = _matmul(eval_matrix(U, x), eval_matrix(E, x))
        for i in range(n):
            for j in range(n):
                if prod[i][j] != (1 if i == j else 0):
                    return [f"U*E = I fails at l = {x}, entry ({i + 1},{j + 1})"]
    return []


def check_unimodular(M, name) -> list:
    """det M is a nonzero constant: one nonzero value at more points than
    the degree bound of det M."""
    first = None
    for x in points(_det_degree_bound(M) + 1):
        v = scalar_det(eval_matrix(M, x))
        if v == 0:
            return [f"det {name} vanishes at l = {x}"]
        if first is None:
            first = v
        elif v != first:
            return [f"det {name} is not constant"]
    return []


def check_smith(A, D, V, E, diag, U=None) -> list:
    """Every check of a global result against the family diagonal."""
    fails = check_diagonal(D, diag)
    fails += check_product(A, V, E, diag)
    fails += check_unimodular(V, "V")
    fails += check_unimodular(E, "E")
    if U is not None:
        fails += check_inverse(U, E)
    return fails


def check_local(A, p, alphas, V, E, diag) -> list:
    """Local exponents at p match the family diagonal, and
    A*V_p = E_p*diag(p^alpha)."""
    want = local_exponents(diag, p)
    if tuple(alphas) != want:
        return [f"local exponents {tuple(alphas)} at {p}, expected {want}"]
    return check_product(A, V, E, [ppow(p, a) for a in alphas], "A*V_p = E_p*P")
