"""Local Smith forms A*V = E*diag(p**alpha_1, ..., p**alpha_n) at one
monic irreducible factor p of det(A).

``local_smith`` and ``local_smith_over_K`` run one driver,
``_local_chains``: a breadth-first Jordan chain construction driven by
nullspaces.  Each round appends the next residuals of the active chains
to a growing tableau, row-reduces it, accepts the chains whose residuals
are independent, and extends the rest.  The two differ only in the
scalar lane the driver runs on:

* ``local_smith`` -- the residue lane: entries in R/pR, tableau width n,
  chains extended by carrying through division by p.
* ``local_smith_over_K`` -- the base-field lane: residue elements become
  their s coefficients over K (s = deg p), the tableau has width s*n, and
  chain columns come in supercolumns of s, of which the first is kept.

``local_smith_reference`` is the simple column-rotation version, kept
only as a slow cross-checking oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    MultiplicityMismatch,
    NotIrreducible,
    NotRegular,
    NotSquare,
    PrimeDoesNotDivideDet,
    PrimeMismatch,
)
from .matpoly import MatPoly, compute_E, expand_in_p, lambda_iso
from .poly import Poly
from .residue import (
    ResidueElt,
    companion_of,
    encode,
    residue_one,
    residue_zero,
)


@dataclass(frozen=True)
class LocalSmithResult:
    p: Poly
    V: MatPoly
    E: MatPoly
    alphas: tuple

    @property
    def mu(self) -> int:
        return sum(self.alphas)

    @property
    def beta(self) -> int:
        """The longest chain: alphas are nondecreasing."""
        return self.alphas[-1] if self.alphas else 0

    @property
    def ranks(self) -> tuple:
        """The rank ladder: entry k counts the chains longer than k."""
        return tuple(sum(1 for a in self.alphas if a > k) for k in range(self.beta))

    def diagonal(self) -> MatPoly:
        return MatPoly.diag([self.p**a for a in self.alphas])


# -- generic reduced row echelon form --------------------------------------


def _rref(rows, zero, one):
    """Gauss-Jordan over any exact field.

    Returns (rref rows, pivot column indices, null-space basis columns).
    Pivoting is leftmost column, topmost usable row, pivot scaled to 1,
    so the output is the canonical reduced echelon form.  Each null
    basis column carries a 1 in its free position and the negated
    reduced coefficients in the pivot positions.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        piv = None
        for i in range(r, nrows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = one / m[r][c]
        m[r] = [e * inv for e in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    pivot_row = {c: i for i, c in enumerate(pivots)}
    null_basis = []
    pivot_set = set(pivots)
    for c in range(ncols):
        if c in pivot_set:
            continue
        vec = [zero] * ncols
        vec[c] = one
        for pc, pr in pivot_row.items():
            if m[pr][c]:
                vec[pc] = -m[pr][c]
        null_basis.append(vec)
    return m, pivots, null_basis


def rref_over_residue(matrix):
    """Reduced row echelon form over R/pR for a matrix of ResidueElt."""
    if not matrix or not matrix[0]:
        return [], [], []
    S = matrix[0][0].companion
    for row in matrix:
        for e in row:
            if not isinstance(e, ResidueElt):
                raise PrimeMismatch("entries must be ResidueElt")
            if not e.companion.same_prime(S):
                raise PrimeMismatch("entries over different primes")
            if len(e.coeffs) != S.s:
                raise DimensionMismatch("residue entry of wrong length")
    return _rref(matrix, residue_zero(S), residue_one(S))


def invertible_mod_p(M: MatPoly, p: Poly) -> bool:
    """Whether the square M is invertible mod p, that is det M mod p != 0:
    M reduced into R/pR has full rank.  A zero divisor met on the way
    raises NotIrreducible, since then p is not irreducible."""
    S = companion_of(p)
    _, pivots, _ = rref_over_residue([[encode(e, S) for e in row] for row in M.entries])
    return len(pivots) == M.rows


# -- shared assembly ---------------------------------------------------------


def _finish_local(A, p, accepted, mu):
    alphas = tuple(a for a, _ in accepted)
    if any(alphas[i] > alphas[i + 1] for i in range(len(alphas) - 1)):
        raise MultiplicityMismatch("exponents not nondecreasing")
    if sum(alphas) != mu:
        raise MultiplicityMismatch(
            f"accepted exponents sum to {sum(alphas)}, expected {mu}"
        )
    V = MatPoly.from_columns([col for _, col in accepted])
    E = compute_E(A, V, MatPoly.diag([p**a for a in alphas]))
    return LocalSmithResult(p=p, V=V, E=E, alphas=alphas)


# -- the chain construction, shared by both scalar lanes ----------------------


def local_smith(A: MatPoly, p: Poly, mu: int) -> LocalSmithResult:
    """Unimodular local Smith form at p with algebraic multiplicity mu.

    mu must be the exact multiplicity of p in det(A).  A larger mu raises
    MultiplicityMismatch; a smaller one is not always detected and can
    return a wrong local form.

    V is unimodular by construction.  Its exponent-0 columns are the unit
    vectors at the pivot columns of A_0 = A mod p.  Every other column is
    a chain accepted in round k, and is the sum of three parts: the
    initial null vector of A_0 it grew from, which is 1 at its own free
    column and otherwise nonzero only on pivot columns; p**k times a
    vector on the pivot columns (the new kernel vectors' part on A_0);
    and polynomial multiples of columns accepted in earlier rounds.
    Taking columns in acceptance order, subtracting those multiples and
    then clearing the pivot entries with the unit columns are column
    operations that reduce V to a permutation matrix, so det V is a
    nonzero constant."""
    return _local_chains(A, p, mu, _ResidueLane)


def local_smith_over_K(A: MatPoly, p: Poly, mu: int) -> LocalSmithResult:
    """Same contract as local_smith, arithmetic entirely in the base field."""
    return _local_chains(A, p, mu, _FieldLane)


def _local_chains(A: MatPoly, p: Poly, mu: int, make_lane) -> LocalSmithResult:
    """Breadth-first Jordan chains at p, in the scalars of `make_lane(A, p)`.

    Round k appends the next residuals of the active chains to the
    tableau and row-reduces it.  A chain whose residual is a pivot
    supercolumn is accepted with exponent k; each new kernel vector
    combines the earlier chains (`stacked`) into a chain one longer.
    """
    if not A.is_square():
        raise NotSquare("local Smith form needs a square matrix")
    if mu < 1:
        raise PrimeDoesNotDivideDet("algebraic multiplicity must be >= 1")
    lane = make_lane(A, p)  # companion_of rejects a non-monic or constant p
    n, s, width, zero = A.rows, lane.s, lane.width, lane.zero
    tableau = lane.tableau()
    _, pivots, null_basis = lane.rref(tableau)
    free_super, pivot_super = _group_supercolumns(pivots, len(tableau[0]), s, 0, p)
    r0 = len(free_super)
    if r0 == 0:
        raise PrimeDoesNotDivideDet("leading coefficient of A is invertible mod p")
    if len(null_basis) != r0 * s:
        raise MultiplicityMismatch("kernel is not a module over R/pR")
    accepted = [(0, _unit_column(n, g)) for g in pivot_super]
    R = r0
    chains = [lane.lift(vec) for vec in null_basis]
    stacked = list(chains)  # every kernel chain so far, zero-padded on top
    null_count = len(null_basis)
    k = 0
    while R < mu:
        k += 1
        prev_cols = len(tableau[0])
        new_cols = [lane.residual(c, k) for c in chains]
        for i, row in enumerate(tableau):
            row.extend(col[i] for col in new_cols)
        _, pivots, null_basis = lane.rref(tableau)
        _, pivot_super = _group_supercolumns(
            pivots, len(tableau[0]), s, prev_cols, p
        )
        new_null = null_basis[null_count:]
        if len(new_null) % s != 0:
            raise MultiplicityMismatch("kernel growth is not a whole supercolumn")
        rk = len(new_null) // s
        if rk == 0:
            raise MultiplicityMismatch(
                "claimed multiplicity exceeds what the chains support"
            )
        null_count = len(null_basis)
        R += rk
        for g in pivot_super:
            accepted.append((k, lane.decode(chains[g * s])))
        next_chains = []
        for vec in map(lane.lift, new_null):
            head = _chain_combination(stacked, vec[width:], width * k, zero)
            next_chains.append(lane.extend(head, vec[:width], k))
        stacked = [[zero] * width + c for c in stacked] + next_chains
        chains = next_chains
    for g in range(len(chains) // s):
        accepted.append((k + 1, lane.decode(chains[g * s])))
    return _finish_local(A, p, accepted, mu)


def _unit_column(n, c):
    col = [Poly.zero()] * n
    col[c] = Poly.one()
    return col


def _chain_combination(stacked, u, rows, zero):
    """stacked (rows x len(u)) times the kernel coefficients u."""
    out = [zero] * rows
    for m, coeff in enumerate(u):
        if not coeff:
            continue
        col = stacked[m]
        for r in range(rows):
            e = col[r]
            if e:
                out[r] = out[r] + e * coeff
    return out


def _group_supercolumns(pivots, ncols, s, base, p):
    """Split the columns appended at/after `base` into supercolumns of s;
    each must be wholly pivot or wholly free.  A split one means the
    kernel is not an R/pR-module, so R/pR is not a field."""
    pivot_set = set(c for c in pivots if c >= base)
    count = (ncols - base) // s
    free, full = [], []
    for g in range(count):
        cols = range(base + g * s, base + (g + 1) * s)
        hits = sum(1 for c in cols if c in pivot_set)
        if hits == s:
            full.append(g)
        elif hits == 0:
            free.append(g)
        else:
            raise NotIrreducible(
                f"{p.human_text()} is not irreducible: a supercolumn splits "
                "between pivot and free"
            )
    return free, full


class _ResidueLane:
    """Scalars in R/pR: tableau width n, supercolumns of one.  Chain
    entries are polynomials, digit-major (rows j*n..j*n+n-1 hold digit j),
    and extending a chain carries by division by p."""

    s = 1
    zero = Poly.zero()

    def __init__(self, A: MatPoly, p: Poly):
        self.p = p
        self.S = companion_of(p)
        self.n = self.width = A.rows
        self.digits = expand_in_p(A, p).blocks

    def tableau(self):
        return [[encode(e, self.S) for e in row] for row in self.digits[0].entries]

    def rref(self, rows):
        return rref_over_residue(rows)

    def lift(self, vec):
        return [v.to_poly() for v in vec]

    def residual(self, chain, k):
        """Images of a length-k chain under the next two digit diagonals:
        rem of the high part plus quo of the low part, entries back in R_s."""
        n, p, digits = self.n, self.p, self.digits
        hi = [Poly.zero()] * n
        lo = [Poly.zero()] * n
        for j in range(k):
            block = chain[j * n : (j + 1) * n]
            for acc, d in ((hi, k - j), (lo, k - 1 - j)):
                if d >= len(digits):
                    continue
                for i, row in enumerate(digits[d].entries):
                    e = acc[i]
                    for a, b in zip(row, block):
                        if a and b:
                            e = e + a * b
                    acc[i] = e
        return [encode(hi[i] % p + lo[i] // p, self.S) for i in range(n)]

    def extend(self, head, y, k):
        """[rem(head, p); y] + quo(shift-down(head), p): k+1 digit blocks."""
        n, p = self.n, self.p
        qr = [e.divmod(p) for e in head]
        out = [r for _, r in qr] + y
        for r in range(n, n * (k + 1)):
            out[r] = out[r] + qr[r - n][0]
        return out

    def decode(self, chain):
        n = self.n
        return lambda_iso([chain[j : j + n] for j in range(0, len(chain), n)], self.p)


class _FieldLane:
    """Scalars in K: each residue entry becomes its s coefficients (s =
    deg p), the tableau has width s*n, and chains come in supercolumns of
    s, of which the first is decoded.  Residuals are the residue lane's,
    flattened; extending a chain is a plain append."""

    zero = Fraction(0)

    def __init__(self, A: MatPoly, p: Poly):
        self.p = p
        self.residue = _ResidueLane(A, p)
        self.s = self.residue.S.s
        self.width = self.s * A.rows

    def tableau(self):
        """Column (jj, b) holds the coefficients of digit_0[:, jj] * l**b
        mod p: multiplication by digit_0 as a matrix over K."""
        s, S, x = self.s, self.residue.S, Poly.x()
        rows = [[] for _ in range(self.width)]
        for i, row in enumerate(self.residue.digits[0].entries):
            for e in row:
                for b in range(s):
                    for a, c in enumerate(encode(e * x**b, S).coeffs):
                        rows[i * s + a].append(c)
        return rows

    def rref(self, rows):
        return _rref(rows, Fraction(0), Fraction(1))

    def lift(self, vec):
        return vec

    def residual(self, chain, k):
        s = self.s
        digits = [Poly(chain[t : t + s]) for t in range(0, len(chain), s)]
        return [c for r in self.residue.residual(digits, k) for c in r.coeffs]

    def extend(self, head, y, k):
        return head + y

    def decode(self, vec):
        """The polynomial column sum_j p**j * digit_j of a stacked
        coefficient vector over K."""
        s, sn = self.s, self.width
        blocks = [
            [Poly(vec[b : b + s]) for b in range(j, j + sn, s)]
            for j in range(0, len(vec), sn)
        ]
        return lambda_iso(blocks, self.p)


# -- preliminary column-rotation version (test oracle) -----------------------


def local_smith_reference(A: MatPoly, p: Poly) -> LocalSmithResult:
    """Column-rotation construction; derives mu internally.  Slow, used as
    an independent oracle for the nullspace-based routes."""
    if not A.is_square():
        raise NotSquare("local Smith form needs a square matrix")
    S = companion_of(p)
    n = A.rows
    cols = [_unit_column(n, i) for i in range(n)]
    alphas = [0] * n
    accepted_res = []  # residue rows of accepted leading residuals
    k = 0
    cap = n * max(A.max_degree(), 1) + 1
    done = 0
    pk = Poly.one()
    while done < n:
        if k > cap:
            raise NotRegular("column residuals never became independent")
        active = n - done
        for _ in range(active):
            x = cols[done]
            ax = _matvec_poly(A, x)
            y = []
            for e in ax:
                q, rem = e.divmod(pk)
                if not rem.is_zero():
                    raise MultiplicityMismatch("divisibility invariant broken")
                y.append(encode(q, S))
            coeffs = _dependence(accepted_res, y, S)
            if coeffs is None:
                alphas[done] = k
                accepted_res.append(y)
                done += 1
            else:
                newx = list(x)
                for m, a in enumerate(coeffs):
                    ap = a.to_poly()
                    if ap.is_zero():
                        continue
                    shift = p ** (k - alphas[m])
                    fct = ap * shift
                    for r in range(n):
                        if not cols[m][r].is_zero():
                            newx[r] = newx[r] - fct * cols[m][r]
                cols = cols[:done] + cols[done + 1 :] + [newx]
        k += 1
        pk = pk * p
    return _finish_local(A, p, list(zip(alphas, cols)), sum(alphas))


def _matvec_poly(A: MatPoly, x):
    out = []
    for row in A.entries:
        acc = Poly.zero()
        for a, b in zip(row, x):
            if a and b:
                acc = acc + a * b
        out.append(acc)
    return out


def _dependence(accepted, y, S):
    """None if y is independent of the accepted residuals over R/pR, else
    the coefficients expressing y as their combination."""
    if all(e.is_zero() for e in y):
        return [residue_zero(S)] * len(accepted)
    n = len(y)
    rows = [
        [accepted[m][i] for m in range(len(accepted))] + [y[i]] for i in range(n)
    ]
    _, pivots, null_basis = rref_over_residue(rows)
    last = len(accepted)
    if last in pivots:
        return None
    for vec in null_basis:
        if vec[last]:
            inv = vec[last]
            return [-(vec[m] / inv) for m in range(len(accepted))]
    raise MultiplicityMismatch("dependent column without a kernel vector")
