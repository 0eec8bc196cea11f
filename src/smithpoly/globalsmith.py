"""Global Smith form with multipliers: factor the determinant, compute a
local form per irreducible factor, splice them with Bezout coefficients,
and triangularize the combination into a unimodular right multiplier."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .errors import (
    EmptyInput,
    FactorSetMismatch,
    NotRegular,
    NotSquare,
    NotUnimodular,
    SmithError,
)
from .factorization import FactoredPoly, factor_over_rationals
from .field import GaussianRational
from .localsmith import _local_multiplier, exact_local_multiplier, invertible_mod_p
from .matpoly import MatPoly, _exact_div, _integer_rows, _slots, compute_E, mat_det
from .matpoly import _sub_multiple
from .poly import Poly, _from_ints, poly_xgcd


@dataclass(frozen=True)
class SmithResult:
    """A*V = E*D with D monic diagonal under divisibility, V and E
    unimodular; U = inverse of E when requested.  On rational input each
    column of V is a primitive integer vector (_primitive_columns), so
    det V is a nonzero integer and det E a nonzero constant, neither of
    them 1 as a rule."""

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

    Column i is sum_j w_j V_j[:, i] with Chinese-remainder weights: for
    q_j = p_j**e_j and f_j the product of the other q_k, w_j = c_j f_j
    with c_j = (f_j mod q_j)^-1 mod q_j, so w_j is 1 mod q_j and 0 mod
    every other q_k, and the w_j sum to 1.  The mode only picks the
    exponents e: the top exponent of each prime for every column
    ("whole"), or column i's own exponents, at least 1 ("per-column").
    The two agree modulo every diagonal entry, so triangularize returns
    the same V from either.

    locals_ are LocalMultiplier (or LocalSmithResult) values: only their
    p, V and alphas are read.  A single one is its own splice.

    check is for callers that use combine_local on its own: the result
    is then checked before return.  Column i of A times it must be
    divisible by d_i (compute_E), and it must be invertible mod every
    prime (invertible_mod_p).  smith_with_multipliers skips the check,
    since its final compute_E certifies the result.
    """
    if not locals_:
        raise EmptyInput("no local results to combine")
    if mode not in ("whole", "per-column"):
        raise ValueError(f"unknown combine mode: {mode!r}")
    n = A.rows
    if factored is not None:
        want = {p: e for p, e in factored.factors}
        got = {loc.p: sum(loc.alphas) for loc in locals_}
        if want != got:
            raise FactorSetMismatch(
                "local results do not match the determinant factorization"
            )
    if len(locals_) == 1:
        combined = CombinedMultiplier(matrix=locals_[0].V, mode="single")
    else:
        primes = [loc.p for loc in locals_]
        top = tuple(loc.alphas[-1] for loc in locals_)
        weights = {}  # exponent vector -> [-w_j], as the row operation subtracts
        cols = []
        for i in range(n):
            exps = top if mode == "whole" else tuple(max(loc.alphas[i], 1) for loc in locals_)
            if exps not in weights:
                weights[exps] = [-w for w in _crt_weights(primes, exps)]
            col = [Poly.zero()] * n
            for loc, minus_w in zip(locals_, weights[exps]):
                _sub_multiple(col, loc.V.column(i), minus_w)
            cols.append(col)
        combined = CombinedMultiplier(matrix=MatPoly.from_columns(cols), mode=mode)
    if check:
        _check_combined(A, locals_, combined)
    return combined


def _crt_weights(primes, exps) -> list:
    """w_j = c_j f_j, where q_j = p_j**e_j, f_j is the product of the
    other q_k and c_j = (f_j mod q_j)^-1 mod q_j, of degree below deg q_j
    (von zur Gathen & Gerhard, Modern Computer Algebra, 5.4)."""
    qs = [p**e for p, e in zip(primes, exps)]
    weights = []
    for j, q in enumerate(qs):
        f = Poly.one()
        for k, qk in enumerate(qs):
            if k != j:
                f = f * qk
        g, c, _ = poly_xgcd(f % q, q)
        if not g.is_one():
            raise FactorSetMismatch("local primes are not pairwise distinct")
        weights.append(c * f)
    return weights


def _check_combined(A: MatPoly, locals_: list, combined: CombinedMultiplier):
    B = combined.matrix
    # raises DivisibilityFailure unless d_i divides column i of A B
    compute_E(A, B, smith_diagonal(locals_, A.rows))
    for loc in locals_:
        if not invertible_mod_p(B, loc.p):
            raise SmithError(
                f"combined multiplier is singular mod {loc.p.human_text()}"
            )


def smith_diagonal(locals_: list, n: int) -> MatPoly:
    diag = [Poly.one()] * n
    for loc in locals_:
        diag = [d * loc.p**a if a else d for d, a in zip(diag, loc.alphas)]
    return MatPoly.diag(diag)


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
    V is held by columns: a row operation on B and its inverse on two
    columns of V are one matpoly._sub_multiple each, and a row swap on B
    moves one column of V.  Making a finished row's diagonal entry monic
    scales that row of B by 1/lead.  The matching column of V is final,
    and _primitive_columns would undo a scale by lead up to its sign, so
    the column is only negated when a rational lead is negative.

    Returns (V, B1): V unimodular, each rational column scaled to a
    primitive integer vector (_primitive_columns), and B1 the
    triangularized working matrix (zero above the diagonal in every
    processed column).  Scaling a column of the combined multiplier by a
    positive constant leaves V as it is: the quotients stay, and only the
    lead of the finished row changes.
    """
    B = [list(row) for row in combined.matrix.entries]
    n = len(B)
    ds = [D[i, i] for i in range(n)]
    stop = 0
    while stop < n and ds[stop].is_one():
        stop += 1
    V = [list(col) for col in MatPoly.identity(n).entries]  # columns
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
                B[src], B[i] = B[i], B[src]
                V[src], V[i] = V[i], V[src]
                lead = B[i][i].lc()
                if lead != 1:
                    B[i] = [e.scale(1 / lead) for e in B[i]]
                    if not isinstance(lead, GaussianRational) and lead < 0:
                        V[i] = [-e for e in V[i]]
                break
            piv = min(nz, key=lambda r: B[r][i].degree)
            for r in nz:
                if r != piv:
                    q = B[r][i] // B[piv][i]
                    # rows r, piv <= i are zero in every processed column
                    _sub_multiple(B[r], B[piv], q)
                    _sub_multiple(V[piv], V[r], -q)
    return _primitive_columns(MatPoly.from_columns(V)), MatPoly(B)


def _primitive_columns(V: MatPoly) -> MatPoly:
    """V with each rational column scaled to a primitive integer vector:
    times the lcm of its entries' denominators, divided by the gcd of
    their numerators, so signs are kept.  V itself comes back when every
    column is already primitive; a Gaussian column or a zero column is
    left as it is.

    The scaling is free: column i of E = A V D^-1 scales with column i
    of V, so A V = E D still holds, and det V and det E stay nonzero
    constants.  It keeps V's denominators out of E, U and the
    verification."""
    rows = V.entries
    scaled = {}
    for j, col in enumerate(zip(*rows)):
        nums = [e._nums for e in col]
        if None in nums:  # a Gaussian column
            continue
        # an entry's content is gcd(_nums) / _den in lowest terms, so the
        # column's is the gcd of the numerators over the lcm of the _dens
        g = gcd(*[c for cs in nums for c in cs])
        den = lcm(*[e._den for e in col])
        if g and (g != 1 or den != 1):  # g == 0: a zero column
            scaled[j] = [_from_ints([c * den for c in e._nums], e._den * g) for e in col]
    if not scaled:
        return V
    return MatPoly.from_columns([scaled.get(j, col) for j, col in enumerate(zip(*rows))])


def invert_unimodular(E: MatPoly) -> MatPoly:
    """Exact inverse of a unimodular matrix polynomial by x-adic lifting
    at the smallest denominator the inverse allows.

    Rows are scaled to integer (or Gaussian-integer) coefficients,
    E' = R E, and E'_j is the coefficient of x^j, j <= d = deg E.  One
    fraction-free Gauss-Jordan elimination on [E'(0) | I] gives c, the
    determinant of E'(0) up to sign, and Y = c E'(0)^-1, an adjugate up
    to the same sign; on Gaussian integers both are multiplied by the
    conjugate of c, so that c is a rational integer.  With g the gcd of c
    and the content of Y (over the integer parts), signed like c, the
    lift starts from X = Y / g and delta = c / g > 0, so E'(0)^-1 = X /
    delta in lowest terms.

    It lifts M = sigma E'^-1, an integer polynomial matrix with E' M =
    sigma I, starting from sigma = delta and M_0 = X, one power of x at
    a time: T = X (sum_{j=1..min(k,d)} E'_j M_{k-j}) and M_k = -T /
    delta.  If delta does not divide T, with h = gcd(delta, content T)
    and f = delta / h, sigma and every stored M_j are multiplied by f and
    M_k = -T / h.  So sigma is the smallest common denominator of the
    coefficients lifted so far.  If E is unimodular, c E'^-1 = +-adj(E')
    is integral, so sigma divides c; a sigma that does not, E(0)
    singular, or no stop by k = n d (deg adj(E') <= (n - 1) d) means E is
    not unimodular.  The recurrence has order d, so after max(d, 1) zero
    M_k in a row all later M_k vanish: M is then a polynomial whose
    product with E' equals sigma I in every coefficient, and E^-1 =
    M R / sigma exactly.

    Each row of each M_k is packed into one int, one B-bit slot per
    column, or into one GaussianRational on Gaussian integers, by the
    pack and unpack of matpoly._slots.  The sum S then costs one
    multiply-add (an entry of E'_j times a packed row of M_{k-j}) per
    nonzero of E'_j, X S one per nonzero of X, and each row of X S is
    unpacked once, for the content and the exact division.  A slot of
    X S adds at most t products of an X entry, an E'_j entry and an
    M_{k-j} entry (t = the most nonzeros in a row of X times the most in
    a row of E'_1, ..., E'_d; 4 t on Gaussian integers, whose products
    at most double each part), so it is below 2**(B-1) for
    B = ba + be + bn + t.bit_length() + 1, with ba, be and bn the largest
    bit lengths in X, E'_j and the M_k so far.  An M_k that raises bn,
    or a rescale, widens B and repacks the stored rows.
    """
    if not E.is_square():
        raise NotSquare("inverse needs a square matrix")
    n, d = E.rows, max(E.max_degree(), 0)
    one, scales, rows = _integer_rows(E.entries)
    zero, gaussian = one * 0, type(one) is not int
    div = _exact_div(one)
    c, Y = _gauss_jordan([[cs[0] if cs else zero for cs in row] for row in rows], one)
    if not c:
        raise NotUnimodular("E(0) is singular")

    if gaussian:
        def bits(v):
            return max(v.re.numerator.bit_length(), v.im.numerator.bit_length())

        def content(block):
            return gcd(*(p.numerator for row in block for v in row for p in (v.re, v.im)))

        # Y / c = Y c* / |c|**2, over a rational-integer denominator
        cbar = GaussianRational(c.re, -c.im)
        Y, c = [[v * cbar for v in row] for row in Y], (c * cbar).re.numerator
    else:
        bits = int.bit_length

        def content(block):
            return gcd(*(v for row in block for v in row))

    _, slots, read = _slots(one)

    def pack(row):
        return slots(row, B)

    def unpack(v):
        return read(v, B, n)

    def widest(block):
        return max((bits(v) for row in block for v in row), default=0)

    g = gcd(c, content(Y)) if c > 0 else -gcd(c, content(Y))
    delta = sigma = c // g
    # sparse rows of E'_j and of X: (column, value) per nonzero entry
    e_rows = [
        [[(m, cs[j]) for m, cs in enumerate(row) if j < len(cs) and cs[j]] for row in rows]
        for j in range(d + 1)
    ]
    N = [[[div(v, g) for v in row] for row in Y]]
    x_rows = [[(m, v) for m, v in enumerate(row) if v] for row in N[0]]
    terms = max(map(len, x_rows)) * max(
        sum(len(e_rows[j][r]) for j in range(1, d + 1)) for r in range(n)
    )
    be = max((bits(v) for er in e_rows[1:] for row in er for _, v in row), default=0)
    ba = bn = widest(N[0])
    fixed = ba + be + (4 * terms if gaussian else terms).bit_length() + 1
    B = fixed + bn
    packed = [[pack(row) for row in N[0]]]
    run, stop = 0, max(d, 1)
    while run < stop:
        k = len(N)
        if k > n * stop:
            raise NotUnimodular("the inverse of E is not a polynomial")
        blocks = [(e_rows[j], packed[k - j]) for j in range(1, min(k, d) + 1) if N[k - j]]
        S = [
            sum([v * P[m] for er, P in blocks for m, v in er[r]], zero) for r in range(n)
        ]
        T = [unpack(sum([v * S[m] for m, v in xrow], zero)) for xrow in x_rows]
        h = gcd(delta, content(T))
        repack = h != delta
        if repack:
            f = delta // h
            sigma *= f
            if c % sigma:
                raise NotUnimodular("adj(E) has a non-integral coefficient")
            N = [b and [[v * f for v in row] for row in b] for b in N]
            bn += f.bit_length()
        Nk = [[div(t, -h) for t in row] for row in T]
        nonzero = any(x for row in Nk for x in row)
        N.append(Nk if nonzero else None)
        if widest(Nk) > bn:
            bn, repack = widest(Nk), True
        if repack:
            B = fixed + bn
            packed = [b and [pack(row) for row in b] for b in N[:-1]]
        packed.append([pack(row) for row in Nk] if nonzero else None)
        run = 0 if nonzero else run + 1

    def entry(r, col):
        # (M R / sigma)[r][col]: coefficient k from M_k, 0 from a zero M_k
        if gaussian:
            return Poly([b[r][col] * scales[col] / sigma if b else 0 for b in N])
        return _from_ints([b[r][col] * scales[col] if b else 0 for b in N], sigma)

    return MatPoly([[entry(r, col) for col in range(n)] for r in range(n)])


def _gauss_jordan(m, one):
    """(c, Y) for a square m: Y = c m^-1 with c = +-det m, by one
    fraction-free Gauss-Jordan elimination on [m | I]; (0, None) if m is
    singular.  After the step on column k every entry is a (k+1)-minor of
    the row-permuted [m | I] (Bareiss, Math. Comp. 1968), so each quotient
    is exact; the last pivot is c and the right half Y."""
    n = len(m)
    div, zero = _exact_div(one), one * 0
    a = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(m)]
    prev = one
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return zero, None
        a[k], a[piv] = a[piv], a[k]
        top = a[k]
        pk = top[k]
        for i, row in enumerate(a):
            if i != k:
                rk = row[k]
                a[i] = [div(pk * x - rk * y, prev) for x, y in zip(row, top)]
        prev = pk
    return prev, [row[n:] for row in a]


def smith_with_multipliers(A: MatPoly, with_U: bool = False) -> SmithResult:
    """Steps 0-3 end to end: factor det(A), the chain part of a local
    Smith form at each prime (_local_multiplier), one V, E = A V D^-1,
    and with with_U the inverse U of E.

    The local multipliers are spliced (one is its own splice) and
    triangularized into V, which is unimodular by construction:
    triangularize builds it from the identity by unimodular steps, and
    scales each rational column to a primitive integer vector, which
    keeps V's denominators out of E and U.  No prime gives the identity
    V.  The one compute_E then proves A V = E D exactly or raises
    DivisibilityFailure, and as the exponents of each prime sum to its
    multiplicity, det E is a nonzero constant too.  If this certificate
    fails, the run is redone with the exact lane's local multipliers
    (exact_local_multiplier), whose errors stand."""
    factored = factor_determinant(A)
    locals_ = [_local_multiplier(A, p, e) for p, e in factored.factors]
    try:
        D, V, E = _certified(A, factored, locals_)
    except SmithError:
        locals_ = [exact_local_multiplier(A, p, e) for p, e in factored.factors]
        D, V, E = _certified(A, factored, locals_)
    U = invert_unimodular(E) if with_U else None
    return SmithResult(D=D, V=V, E=E, U=U)


def _certified(A: MatPoly, factored: FactoredPoly, locals_: list):
    """D, V and E = A V D^-1 from the local multipliers, or a SmithError."""
    D = smith_diagonal(locals_, A.rows)
    V = D  # no prime: D is the identity
    if locals_:
        V, _ = triangularize(combine_local(A, locals_, factored=factored, check=False), D)
    return D, V, compute_E(A, V, D)
