"""Local Smith forms A*V = E*diag(p**alpha_1, ..., p**alpha_n) at one
monic irreducible factor p of det(A).

``local_smith`` and ``local_smith_over_K`` run one driver,
``_local_chains``: a breadth-first Jordan chain construction driven by
nullspaces.  Each round appends the next residuals of the active chains
to a growing tableau, reduces only the new columns against its kept
echelon form, accepts the chains whose residuals are independent, and
extends the rest.  The two differ only in the scalar lane it runs
on:

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
    MultiplicityMismatch,
    NotIrreducible,
    NotRegular,
    NotSquare,
    PrimeDoesNotDivideDet,
)
from .matpoly import MatPoly, compute_E, expand_in_p, lambda_iso
from .poly import Poly
from .residue import BASE_FIELD, ResidueField


@dataclass(frozen=True)
class LocalSmithResult:
    p: Poly
    V: MatPoly
    E: MatPoly
    alphas: tuple

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


# -- the echelon kernel -------------------------------------------------------


class _Echelon:
    """Reduced row echelon form over the exact field F (see ``residue``),
    grown by appending columns.

    Pivoting is leftmost column, topmost usable row, pivot scaled to 1,
    so ``rows`` is the canonical reduced echelon form of every column
    appended so far.  Each pivot step logs (row, swapped row, pivot
    inverse, cleared (row, multiplier) pairs).  Appended columns replay
    the log, which gives them exactly the operations a reduction of the
    whole tableau would, and are then reduced alone: rows at or below the
    rank are zero on the old columns, so old pivots never change and a
    new pivot row's update touches only the new columns.  Row updates
    skip the zero entries of the pivot row.
    """

    def __init__(self, F, nrows):
        self.F = F
        self.rows = [[] for _ in range(nrows)]
        self.pivots = []
        self.log = []
        self.ncols = 0

    def extend(self, block):
        """Append the columns of `block` (one list per row)."""
        mul, rows, log = self.F.mul, self.rows, self.log
        new = [list(b) for b in block]
        for r, piv, inv, cleared in log:
            new[r], new[piv] = new[piv], new[r]
            new[r] = [mul(e, inv) if e else e for e in new[r]]
            support = [(j, b) for j, b in enumerate(new[r]) if b]
            if support:
                for i, f in cleared:
                    row = new[i]
                    for j, b in support:
                        row[j] = row[j] - mul(f, b)
        base = self.ncols
        for row, tail in zip(rows, new):
            row.extend(tail)
        self.ncols += len(new[0]) if new else 0
        nrows, r = len(rows), len(self.pivots)
        for c in range(base, self.ncols):
            if r >= nrows:
                break
            piv = next((i for i in range(r, nrows) if rows[i][c]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = self.F.inv(rows[r][c])
            rows[r][c:] = [mul(e, inv) if e else e for e in rows[r][c:]]
            support = [(j, b) for j, b in enumerate(rows[r][c:], c) if b]
            cleared = []
            for i in range(nrows):
                row = rows[i]
                if i != r and row[c]:
                    f = row[c]
                    cleared.append((i, f))
                    for j, b in support:
                        row[j] = row[j] - mul(f, b)
            log.append((r, piv, inv, cleared))
            self.pivots.append(c)
            r += 1

    def null_basis(self, start=0):
        """Null-space basis columns for the free columns from `start` on:
        1 in the free position, the negated reduced coefficients in the
        pivot positions."""
        zero, rows, pivots = self.F.zero, self.rows, self.pivots
        pivot_set = set(pivots)
        out = []
        for c in range(start, self.ncols):
            if c in pivot_set:
                continue
            vec = [zero] * self.ncols
            vec[c] = self.F.one
            for pr, pc in enumerate(pivots):
                if rows[pr][c]:
                    vec[pc] = -rows[pr][c]
            out.append(vec)
        return out


def _rref(rows, F):
    """The echelon kernel on all columns at once: (reduced rows, pivot
    column indices, null-space basis columns)."""
    ech = _Echelon(F, len(rows))
    ech.extend(rows)
    return ech.rows, ech.pivots, ech.null_basis()


def rref_over_residue(matrix, p: Poly):
    """Reduced row echelon form over R/pR of a matrix of polynomials,
    each entry taken mod p."""
    F = ResidueField(p)
    return _rref([[e % p for e in row] for row in matrix], F)


def invertible_mod_p(M: MatPoly, p: Poly) -> bool:
    """Whether the square M is invertible mod p, that is det M mod p != 0:
    M reduced into R/pR has full rank.  A zero divisor met on the way
    raises NotIrreducible, since then p is not irreducible."""
    _, pivots, _ = rref_over_residue(M.entries, p)
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
    nonzero constant.

    Only the first mu p-adic digits of A are expanded.  Round 0 finds
    r0 >= 1 chains and every later round adds at least one, or raises,
    so the last round k is at most mu - 1, and round k reads digits
    0..k."""
    return _local_chains(A, p, mu, _ResidueLane)


def local_smith_over_K(A: MatPoly, p: Poly, mu: int) -> LocalSmithResult:
    """Same contract as local_smith, arithmetic entirely in the base field."""
    return _local_chains(A, p, mu, _FieldLane)


def _local_chains(A: MatPoly, p: Poly, mu: int, make_lane) -> LocalSmithResult:
    """Breadth-first Jordan chains at p, in the scalars of
    `make_lane(A, p, mu)`.

    Round k appends the next residuals of the active chains to the
    tableau's echelon form.  A chain whose residual is a pivot
    supercolumn is accepted with exponent k; each new kernel vector
    combines the earlier chains (`stacked`) into a chain one longer.
    """
    if not A.is_square():
        raise NotSquare("local Smith form needs a square matrix")
    if mu < 1:
        raise PrimeDoesNotDivideDet("algebraic multiplicity must be >= 1")
    lane = make_lane(A, p, mu)  # ResidueField rejects a non-monic or constant p
    n, s, width, zero = A.rows, lane.s, lane.width, lane.zero
    ech = _Echelon(lane.F, width)
    ech.extend(lane.tableau())
    null_basis = ech.null_basis()
    free_super, pivot_super = _group_supercolumns(ech.pivots, ech.ncols, s, 0, p)
    r0 = len(free_super)
    if r0 == 0:
        raise PrimeDoesNotDivideDet("leading coefficient of A is invertible mod p")
    if len(null_basis) != r0 * s:
        raise MultiplicityMismatch("kernel is not a module over R/pR")
    accepted = [(0, _unit_column(n, g)) for g in pivot_super]
    R = r0
    chains = null_basis
    stacked = list(chains)  # every kernel chain so far, zero-padded on top
    k = 0
    while R < mu:
        k += 1
        prev_cols = ech.ncols
        new_cols = [lane.residual(c, k) for c in chains]
        ech.extend([[col[i] for col in new_cols] for i in range(width)])
        _, pivot_super = _group_supercolumns(ech.pivots, ech.ncols, s, prev_cols, p)
        new_null = ech.null_basis(prev_cols)
        if len(new_null) % s != 0:
            raise MultiplicityMismatch("kernel growth is not a whole supercolumn")
        rk = len(new_null) // s
        if rk == 0:
            raise MultiplicityMismatch(
                "claimed multiplicity exceeds what the chains support"
            )
        R += rk
        for g in pivot_super:
            accepted.append((k, lane.decode(chains[g * s])))
        next_chains = []
        for vec in new_null:
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

    def __init__(self, A: MatPoly, p: Poly, mu: int):
        """Round k < mu reads digits 0..k of A, so mu digits suffice."""
        self.p = p
        self.F = ResidueField(p)
        self.n = self.width = A.rows
        self.digits = expand_in_p(A, p, mu).blocks

    def tableau(self):
        return [list(row) for row in self.digits[0].entries]

    def residual(self, chain, k):
        """Images of a length-k chain under the next two digit diagonals:
        rem of the high part plus quo of the low part.  Chain entries and
        digits have degree < deg p, so the quotient has degree < deg p - 1
        and the sum is already reduced."""
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
        return [hi[i] % p + lo[i] // p for i in range(n)]

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
    deg p, zero-padded), the tableau has width s*n, and chains come in
    supercolumns of s, of which the first is decoded.  Residuals are the
    residue lane's, flattened; extending a chain is a plain append."""

    zero = Fraction(0)
    F = BASE_FIELD

    def __init__(self, A: MatPoly, p: Poly, mu: int):
        self.p = p
        self.residue = _ResidueLane(A, p, mu)
        self.s = p.degree
        self.width = self.s * A.rows

    def _coeffs(self, f: Poly) -> list:
        return list(f.coeffs) + [self.zero] * (self.s - len(f.coeffs))

    def tableau(self):
        """Column (jj, b) holds the coefficients of digit_0[:, jj] * l**b
        mod p: multiplication by digit_0 as a matrix over K."""
        s, mul, x = self.s, self.residue.F.mul, Poly.x()
        rows = [[] for _ in range(self.width)]
        for i, row in enumerate(self.residue.digits[0].entries):
            for e in row:
                for b in range(s):
                    for a, c in enumerate(self._coeffs(mul(e, x**b))):
                        rows[i * s + a].append(c)
        return rows

    def residual(self, chain, k):
        s = self.s
        digits = [Poly(chain[t : t + s]) for t in range(0, len(chain), s)]
        return [c for r in self.residue.residual(digits, k) for c in self._coeffs(r)]

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
    F = ResidueField(p)
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
                y.append(q % p)
            coeffs = _dependence(accepted_res, y, F)
            if coeffs is None:
                alphas[done] = k
                accepted_res.append(y)
                done += 1
            else:
                newx = list(x)
                for m, a in enumerate(coeffs):
                    if a.is_zero():
                        continue
                    shift = p ** (k - alphas[m])
                    fct = a * shift
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


def _dependence(accepted, y, F):
    """None if y is independent of the accepted residuals over R/pR, else
    the coefficients expressing y as their combination."""
    if all(e.is_zero() for e in y):
        return [F.zero] * len(accepted)
    n = len(y)
    rows = [
        [accepted[m][i] for m in range(len(accepted))] + [y[i]] for i in range(n)
    ]
    _, pivots, null_basis = _rref(rows, F)
    last = len(accepted)
    if last in pivots:
        return None
    for vec in null_basis:
        if vec[last]:
            inv = F.inv(vec[last])
            return [-F.mul(vec[m], inv) for m in range(len(accepted))]
    raise MultiplicityMismatch("dependent column without a kernel vector")
