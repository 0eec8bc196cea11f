"""Local Smith forms A*V = E*diag(p**alpha_1, ..., p**alpha_n) at one
monic irreducible factor p of det(A).

``local_smith`` and ``local_smith_over_K`` run one driver,
``_local_chains``: a breadth-first Jordan chain construction driven by
nullspaces.  Each round appends the next residuals of the active chains
to a growing tableau, reduces only the new columns against its kept
echelon form, accepts the chains whose residuals are independent, and
extends the rest.  The two lanes differ only in the scalars it runs on:

* the residue lane: entries in R/pR, tableau width n, chains extended by
  carrying through division by p.
* the base-field lane: residue elements become their s coefficients over
  a base field (s = deg p), the tableau has width s*n, chain columns come
  in supercolumns of s, of which the first is kept, and residuals are
  linear maps of A's digits.  On rational input it runs over Q on
  integer rows (``residue.IntegerRows``): echelon rows, null vectors,
  chains and residuals are ints over one denominator, and only V's
  coefficients are Fractions.  Otherwise it runs over K.

The chain form is the field object's: ``_local_chains`` reads null
vectors, combines chains and turns residuals into tableau rows through
it, and serves both lanes.

``local_smith_over_K`` runs the base-field lane.  ``local_smith`` runs it
too on rational input, and the residue lane on Gaussian input.  Both lanes
are exact and give the same V, which is unimodular by construction (see
_local_chains), so no certificate or second run follows.

``local_smith_reference`` is the simple column-rotation version, kept
only as a slow cross-checking oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, islice

from .errors import (
    MultiplicityMismatch,
    NotIrreducible,
    NotRegular,
    NotSquare,
    PrimeDoesNotDivideDet,
)
from .matpoly import MatPoly, _integer_rows, compute_E, lambda_iso
from .matpoly import _sub_multiple
from .poly import Poly
from .residue import BASE_FIELD, INTEGER_ROWS, ResidueField, check_modulus


@dataclass(frozen=True)
class LocalMultiplier:
    """The chain part of a local Smith form at p: V and its exponents,
    with A*V = E*diag(p**alpha_i) for some E that is invertible mod p."""

    p: Poly
    V: MatPoly
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


@dataclass(frozen=True)
class LocalSmithResult(LocalMultiplier):
    """A local multiplier and its E = A V diag(p**alpha_i)^-1."""

    E: MatPoly


# -- the echelon kernel -------------------------------------------------------


class _Echelon:
    """Reduced row echelon form over the exact field F (see ``residue``),
    grown by appending columns.

    Pivoting is leftmost column, topmost usable row, pivot scaled to 1,
    so ``rows`` is the canonical reduced echelon form of every column
    appended so far, in F's row form.  Each pivot step logs (row, swapped
    row, pivot inverse, cleared (row, multiplier) pairs).  Appended
    columns replay the log, which gives them exactly the operations a
    reduction of the whole tableau would, and are then reduced alone:
    rows at or below the rank are zero on the old columns, so old pivots
    never change and a new pivot row's update touches only the new
    columns.  Row updates skip the zero entries of the pivot row.
    """

    def __init__(self, F, nrows):
        self.F = F
        self.rows = [F.row([]) for _ in range(nrows)]
        self.pivots = []
        self.log = []
        self.ncols = 0

    def extend(self, new):
        """Append the columns of `new`, one row per row in F's row form
        (F.row, F.columns); its rows are used up."""
        F, rows, log = self.F, self.rows, self.log
        for r, piv, inv, cleared in log:
            new[r], new[piv] = new[piv], new[r]
            top = new[r] = F.scaled(new[r], inv)
            support = [(j, b) for j, b in enumerate(top) if b]
            if support:
                for i, f in cleared:
                    F.sub_multiple(new[i], f, top, support)
        base = self.ncols
        for row, tail in zip(rows, new):
            F.join(row, tail)
        self.ncols += len(new[0]) if new else 0
        nrows, r = len(rows), len(self.pivots)
        for c in range(base, self.ncols):
            if r >= nrows:
                break
            piv = next((i for i in range(r, nrows) if rows[i][c]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            top = rows[r]
            inv = F.unit(top, c)
            support = [(j, b) for j, b in enumerate(top[c:], c) if b]
            cleared = []
            for i in range(nrows):
                row = rows[i]
                if i != r and row[c]:
                    f = F.multiplier(row, c)
                    cleared.append((i, f))
                    F.sub_multiple(row, f, top, support)
            log.append((r, piv, inv, cleared))
            self.pivots.append(c)
            r += 1

    def null_basis(self, start=0):
        """Null-space basis columns for the free columns from `start` on,
        in F's chain form: 1 in the free position, the negated reduced
        coefficients in the pivot positions (F.null_vector)."""
        F, rows, pivots = self.F, self.rows, self.pivots
        pivot_set = set(pivots)
        return [
            F.null_vector(
                [(pc, rows[pr]) for pr, pc in enumerate(pivots) if rows[pr][c]], c, self.ncols
            )
            for c in range(start, self.ncols)
            if c not in pivot_set
        ]


def _rref(rows, F):
    """The echelon kernel on all columns at once: (reduced rows, pivot
    column indices, null-space basis columns)."""
    ech = _Echelon(F, len(rows))
    ech.extend([F.row(r) for r in rows])
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


def _finish_local(p, accepted, mu) -> LocalMultiplier:
    alphas = tuple(a for a, _ in accepted)
    if any(alphas[i] > alphas[i + 1] for i in range(len(alphas) - 1)):
        raise MultiplicityMismatch("exponents not nondecreasing")
    if sum(alphas) != mu:
        raise MultiplicityMismatch(
            f"accepted exponents sum to {sum(alphas)}, expected {mu}"
        )
    V = MatPoly.from_columns([col for _, col in accepted])
    return LocalMultiplier(p=p, V=V, alphas=alphas)


def _with_E(A, loc: LocalMultiplier) -> LocalSmithResult:
    E = compute_E(A, loc.V, loc.diagonal())
    return LocalSmithResult(p=loc.p, V=loc.V, alphas=loc.alphas, E=E)


# -- the chain construction, shared by both scalar lanes ----------------------


def local_smith(A: MatPoly, p: Poly, mu: int) -> LocalSmithResult:
    """Unimodular local Smith form at p with algebraic multiplicity mu.

    mu must be the exact multiplicity of p in det(A).  A larger mu raises
    MultiplicityMismatch; a smaller one is not always detected and can
    return a wrong local form.

    The chains come from _local_multiplier: the base-field lane on
    rational input, else the residue lane."""
    return _with_E(A, _local_multiplier(A, p, mu))


def _local_multiplier(A: MatPoly, p: Poly, mu: int) -> LocalMultiplier:
    """The p, V and alphas of local_smith, without its E."""
    return _local_chains(A, p, mu, _exact_lane)


def _exact_lane(A: MatPoly, p: Poly, mu: int):
    """The base-field lane where it runs on integer rows (rational A and
    p), else the residue lane.  The rule that picks the field lives in
    _BaseFieldLane alone; building that lane reads no digit of A."""
    lane = _BaseFieldLane(A, p, mu)
    return lane if lane.F is INTEGER_ROWS else _ResidueLane(A, p, mu)


def _rational(A: MatPoly, p: Poly) -> bool:
    """Whether A and p are over Q: no coefficient is Gaussian."""
    return all(e._nums is not None for e in chain([p], *A.entries))


def local_smith_over_K(A: MatPoly, p: Poly, mu: int) -> LocalSmithResult:
    """Same contract as local_smith, with arithmetic in base fields only:
    the base-field lane, over Q on integer rows or over K."""
    return _with_E(A, _local_chains(A, p, mu, _BaseFieldLane))


def _local_chains(A: MatPoly, p: Poly, mu: int, make_lane) -> LocalMultiplier:
    """Breadth-first Jordan chains at p, in the scalars of
    `make_lane(A, p, mu)`.

    Round k appends the next residuals of the active chains to the
    tableau's echelon form.  A chain whose residual is a pivot
    supercolumn is accepted with exponent k; each new kernel vector
    combines the earlier chains (`stacked`) into a chain one longer.
    Every error of the local forms is decided here.

    V is unimodular by construction, in either lane.  Its exponent-0
    columns are the unit vectors at the pivot columns of A_0 = A mod p.
    Every other column is a chain accepted in round k, and is the sum of
    three parts: the initial null vector of A_0 it grew from, which is 1
    at its own free column and otherwise nonzero only on pivot columns;
    p**k times a vector on the pivot columns (the new kernel vectors' part
    on A_0); and polynomial multiples of columns accepted in earlier
    rounds.  Taking columns in acceptance order, subtracting those
    multiples and then clearing the pivot entries with the unit columns
    are column operations that reduce V to a permutation matrix, so det V
    is a nonzero constant.

    Round 0 finds r0 >= 1 chains and every later round adds at least one,
    or raises, so the last round k is at most mu - 1, and round k reads
    digits 0..k of A: the lanes keep or build only those.
    """
    if not A.is_square():
        raise NotSquare("local Smith form needs a square matrix")
    if mu < 1:
        raise PrimeDoesNotDivideDet("algebraic multiplicity must be >= 1")
    lane = make_lane(A, p, mu)  # either lane rejects a non-monic or constant p
    n, s, width, F = A.rows, lane.s, lane.width, lane.F
    ech = _Echelon(F, width)
    ech.extend([F.row(r) for r in lane.tableau()])
    null_basis = ech.null_basis()
    free_super, pivot_super = _group_supercolumns(ech.pivots, ech.ncols, s, 0, p)
    r0 = len(free_super)
    if r0 == 0:
        raise PrimeDoesNotDivideDet("leading coefficient of A is invertible mod p")
    if len(null_basis) != r0 * s:
        raise MultiplicityMismatch("kernel is not a module over R/pR")
    accepted = [
        (0, [Poly.one() if r == g else Poly.zero() for r in range(n)]) for g in pivot_super
    ]
    R = r0
    chains = null_basis
    stacked = list(chains)  # every kernel chain so far, one per tableau column past width
    k = 0
    while R < mu:
        k += 1
        prev_cols = ech.ncols
        ech.extend(F.columns([lane.residual(c, k) for c in chains], width))
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
        chains = [lane.extend(F.chain(stacked, vec, width, width * k), k) for vec in new_null]
        stacked += chains
    for g in range(len(chains) // s):
        accepted.append((k + 1, lane.decode(chains[g * s])))
    return _finish_local(p, accepted, mu)


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

    def __init__(self, A: MatPoly, p: Poly, mu: int):
        """Round k < mu reads digits 0..k of A, so the first mu digits of
        _plane_digits over K are kept, each a grid of Poly of degree
        < deg p.  A's rational rows, scaled to integers there, scale the
        tableau's rows and nothing else, as in the base-field lane."""
        self.p, self.F = p, ResidueField(p)
        self.n = self.width = A.rows
        m = A.cols
        digits = islice(_plane_digits(A, BASE_FIELD.embed(p.coeffs), BASE_FIELD), mu)
        grids = ([Poly(cs) for cs in zip(*digit)] for digit in digits)
        self.digits = [[es[i : i + m] for i in range(0, len(es), m)] for es in grids]

    def tableau(self):
        return [list(row) for row in self.digits[0]]

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
                for i, row in enumerate(digits[d]):
                    e = acc[i]
                    for a, b in zip(row, block):
                        if a and b:
                            e = e + a * b
                    acc[i] = e
        return [hi[i] % p + lo[i] // p for i in range(n)]

    def extend(self, chain, k):
        """[rem(head, p); y] + quo(shift-down(head), p) for the chain
        [head; y] of k+1 digit blocks."""
        n, p = self.n, self.p
        qr = [e.divmod(p) for e in chain[: n * k]]
        out = [r for _, r in qr] + chain[n * k :]
        for r in range(n, n * (k + 1)):
            out[r] = out[r] + qr[r - n][0]
        return out

    def decode(self, chain):
        n = self.n
        return lambda_iso([chain[j : j + n] for j in range(0, len(chain), n)], self.p)


class _BaseFieldLane:
    """Scalars in the base field: each residue entry becomes its s
    coefficients (s = deg p), the tableau has width s*n, and chains come
    in supercolumns of s, of which the first is decoded.  Over Q (A and p
    rational) the echelon rows are integer rows (INTEGER_ROWS), otherwise
    lists of K's scalars (BASE_FIELD); the scalars met are the same.

    A digit entry e acts on a chain entry c (both of degree < s) by two
    F-linear maps, c -> rem(e c, p) and c -> quo(e c, p).  The residue
    lane's residual of a k-block chain is then sum_j G_{k-j} block_j, with
    G_t the rem map of digit t plus the quo map of digit t - 1, each an
    (s n) x (s n) matrix over F; G_0 is the tableau.  No polynomial
    arithmetic runs in the kernel.  Round k reads G_0..G_k, and G_t is
    built when a round first reads it (_map).

    A is held as planes: plane k lists coefficient k of every entry, row
    by row, so the digit expansion and the rem maps run a whole plane per
    list operation.  Rational rows are scaled to integers first, which
    scales the tableau's rows and nothing else: the reduced echelon form,
    the chains and V are unchanged.  Gaussian coefficients are taken as
    they are, which keeps their types."""

    def __init__(self, A: MatPoly, p: Poly, mu: int):
        # mu goes unread: the maps are built on demand
        check_modulus(p)
        self.F = F = INTEGER_ROWS if _rational(A, p) else BASE_FIELD
        s, n = p.degree, A.rows
        self.s, self.width = s, s * n
        self.p = F.embed(p.coeffs)
        self.G = []
        self._maps = self._digit_maps(_plane_digits(A, self.p, F), n, A.cols)
        self.sparse = {}  # k -> the rows of [G_k, G_{k-1}, ..., G_1], sparse

    def _digit_maps(self, digits, n, nc):
        """G_0, G_1, ...: the maps of the successive digits."""
        s, pf = self.s, self.p
        zero = [0] * (n * nc)
        # e l**b = quo_b p + rem_b: quo_b = sum_m c_{b-1-m} l**m, where c_b
        # is coefficient s-1 of rem_b; `carries` holds the c_b of digit t-1
        carries = [zero] * s
        for digit in digits:
            G = [[0] * (s * nc) for _ in range(self.width)]
            R, now = digit, []  # R[a]: coefficient a of rem_b, for each entry
            for b in range(s):
                if b:
                    R = [[x - y * pa for x, y in zip(ra, R[-1])]
                         for ra, pa in zip([zero] + R[:-1], pf)]
                now.append(R[-1])
                for a in range(s):
                    plane = R[a] if a >= b else [
                        x + y for x, y in zip(R[a], carries[b - 1 - a])
                    ]
                    for i in range(n):
                        G[i * s + a][b::s] = plane[i * nc : (i + 1) * nc]
            carries = now
            yield G

    def _map(self, t):
        while len(self.G) <= t:
            self.G.append(next(self._maps))
        return self.G[t]

    def tableau(self):
        return self._map(0)

    def _rows(self, k):
        if k not in self.sparse:
            rows = []
            for r in range(self.width):
                full = list(chain.from_iterable(self._map(k - j)[r] for j in range(k)))
                rows.append((list(compress(range(len(full)), full)), list(filter(None, full))))
            self.sparse[k] = rows
        return self.sparse[k]

    def residual(self, chain, k):
        return self.F.dot(self._rows(k), chain)

    @staticmethod
    def extend(chain, k):
        return chain

    def decode(self, chain):
        return self.F.decode(chain, self.p, self.s, self.width)


def _plane_digits(A: MatPoly, p: list, F):
    """The digits of A in powers of the monic p, whose coefficients p lists
    in the field F: the one p-adic expansion, which both lanes read.  Each
    digit is s planes over F, one per next(), lowest first (zero digits
    past the last); plane k holds coefficient k of each entry A[i][j] at
    i*m + j, m = A.cols, rational rows scaled to integers first
    (matpoly._integer_rows).  A division leaves an entry whose quotient
    coefficient is zero as it is, as a polynomial division would (that
    keeps Gaussian coefficient types)."""
    one, _, rows = _integer_rows(A.entries)
    if type(one) is not int:
        rows = [[e.coeffs for e in row] for row in A.entries]
    m, size = A.cols, A.rows * A.cols
    planes = [[0] * size for _ in range(max(A.max_degree() + 1, 1))]
    for i, row in enumerate(rows):
        for j, coeffs in enumerate(row):
            for k, c in enumerate(coeffs):
                planes[k][i * m + j] = c
    planes = [F.embed(plane) for plane in planes]
    s = len(p) - 1
    while True:
        a = planes + [[0] * size] * (s - len(planes))
        planes = [None] * (len(a) - s)
        for i in range(len(a) - 1, s - 1, -1):
            f = planes[i - s] = a[i]
            for j, pj in enumerate(p[:s]):
                if pj:
                    a[i - s + j] = [x - pj * y if y else x for x, y in zip(a[i - s + j], f)]
        yield a[:s]
        if not planes:
            planes = [[0] * size]


# -- preliminary column-rotation version (test oracle) -----------------------


def local_smith_reference(A: MatPoly, p: Poly) -> LocalSmithResult:
    """Column-rotation construction; derives mu internally.  Slow, used as
    an independent oracle for the nullspace-based routes."""
    if not A.is_square():
        raise NotSquare("local Smith form needs a square matrix")
    F = ResidueField(p)
    n = A.rows
    cols = MatPoly.identity(n).columns()
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
            ax = (A @ MatPoly.from_columns([x])).column(0)
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
                for m, a in enumerate(coeffs):
                    if not a.is_zero():
                        _sub_multiple(x, cols[m], a * p ** (k - alphas[m]))
                cols = cols[:done] + cols[done + 1 :] + [x]
        k += 1
        pk = pk * p
    if not any(alphas):
        raise PrimeDoesNotDivideDet("leading coefficient of A is invertible mod p")
    return _with_E(A, _finish_local(p, list(zip(alphas, cols)), sum(alphas)))


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
