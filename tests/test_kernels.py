"""Property tests for the integer kernels behind Poly.divmod, the p-adic
expansion (localsmith._plane_digits), MatPoly @ and compute_E, each against a plain reference written here over
the field, for the packed-integer kernel (_pack, _unpack and the one
Kronecker-packed chain kernel of @, compute_E and verify_smith, here
through _rational_product: one slot width for the whole product, one sign
bit over the product of the factors' largest coefficients and the number
of products a coefficient adds; verify's use of it is checked in
test_verify.py), for the exact integer division of the fraction-free
eliminations (mat_det itself is checked in test_matpoly.py), and for the
echelon kernel over Q and over R/pR, whole (_rref) and grown by blocks of
columns (_Echelon).

Rational operands must give exactly the reference's coefficients, type
included (every coefficient a Fraction).  Gaussian operands run the same
list kernels on field coefficients; their quotients and remainders keep
the reference's types too."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import companion_product, digits_in_p, integer_scaled
from smithpoly import (
    DimensionMismatch,
    DivisibilityFailure,
    MatPoly,
    Poly,
    ShapeMismatch,
    compute_E,
    lambda_iso,
)
from smithpoly.field import GaussianRational
from smithpoly.localsmith import _BaseFieldLane, _Echelon, _rref
from smithpoly.matpoly import _exact_div, _rational_product
from smithpoly.poly import _pack, _unpack
from smithpoly.residue import BASE_FIELD, ResidueField

KERNELS = settings(max_examples=60)

small_ints = st.integers(min_value=-9, max_value=9)
rationals = st.one_of(
    small_ints.map(Fraction),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
)
gaussians = st.builds(GaussianRational, rationals, rationals)


def coeff_lists(scalars, max_size=8):
    return st.lists(scalars, max_size=max_size)


def _trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _types(cs):
    return [type(c) for c in cs]


def reference_divmod(a, b):
    """Schoolbook long division over the field, leading term first."""
    a, b = _trim(a), _trim(b)
    db = len(b) - 1
    if len(a) - 1 < db:
        return [], a
    q = [Fraction(0)] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        if a[i]:
            f = a[i] / b[-1]
            q[i - db] = f
            for j in range(db):
                a[i - db + j] = a[i - db + j] - f * b[j]
    return _trim(q), _trim(a[:db])


def _divisors():
    monic = st.lists(small_ints, max_size=4).map(lambda cs: cs + [1])
    negated = st.lists(small_ints, max_size=4).map(lambda cs: cs + [-1])
    non_unit = st.tuples(
        st.lists(small_ints, max_size=4), st.sampled_from([2, -3, 6])
    ).map(lambda t: t[0] + [t[1]])
    rational_monic = st.lists(rationals, max_size=4).map(lambda cs: cs + [Fraction(1)])
    # leading coefficient +-1 only after the denominators are cleared
    halved = st.lists(small_ints, min_size=1, max_size=4).map(
        lambda cs: [Fraction(c) for c in cs] + [Fraction(1, 2)]
    )
    gaussian = st.lists(gaussians, max_size=3).map(lambda cs: cs + [GaussianRational(0, 1)])
    return st.one_of(monic, negated, non_unit, rational_monic, halved, gaussian)


@KERNELS
@given(a=st.one_of(coeff_lists(rationals), coeff_lists(gaussians, 5)), b=_divisors())
def test_divmod_matches_long_division(a, b):
    f, g = Poly(a), Poly(b)
    q, r = f.divmod(g)
    ref_q, ref_r = reference_divmod(f.coeffs, g.coeffs)
    assert list(q.coeffs) == ref_q and list(r.coeffs) == ref_r
    assert _types(q.coeffs) == _types(ref_q)
    assert _types(r.coeffs) == _types(ref_r)
    rational = all(isinstance(c, Fraction) for c in f.coeffs + g.coeffs)
    if rational:
        assert all(type(c) is Fraction for c in q.coeffs + r.coeffs)


@KERNELS
@given(b=_divisors(), size=st.integers(min_value=0, max_value=4))
def test_short_and_zero_dividends(b, size):
    g = Poly(b)
    f = Poly(b[: min(size, len(g.coeffs) - 1)])
    q, r = f.divmod(g)
    assert q.is_zero() and r == f
    assert Poly.zero().divmod(g) == (Poly.zero(), Poly.zero())


def _monic_integer(degree):
    return st.lists(small_ints, min_size=degree, max_size=degree).map(
        lambda cs: Poly(cs + [1])
    )


def _matrices(scalars, rows, cols, max_degree=5):
    entry = coeff_lists(scalars, max_degree + 1).map(Poly)
    return st.lists(
        st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(MatPoly)


@KERNELS
@given(
    data=st.data(),
    degree=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=1, max_value=3),
)
def test_plane_digits_invert_lambda_iso(data, degree, n):
    """Digits over Q of degree < deg p reassemble to A, its rows scaled to
    integers, and the digit after the last is zero."""
    p = data.draw(_monic_integer(degree))
    A = data.draw(_matrices(rationals, n, n, max_degree=9))
    digits = digits_in_p(A, p)
    for digit in digits:
        assert all(e.degree < degree for row in digit for e in row)
        assert all(type(c) is Fraction for row in digit for e in row for c in e.coeffs)
    rows = [lambda_iso([digit[r] for digit in digits], p) for r in range(n)]
    assert MatPoly(rows) == integer_scaled(A)
    assert not any(e for row in digits_in_p(A, p, len(digits) + 1)[-1] for e in row)


def test_plane_digits_non_integral_prime():
    """A monic p with a fractional coefficient divides on Fractions."""
    x = Poly.x()
    p = x + Poly.const(Fraction(1, 2))
    A = MatPoly([[x**3 + 1, Poly.const(Fraction(2, 3))]])
    digits = digits_in_p(A, p)
    assert [lambda_iso([digit[0] for digit in digits], p)] == [[3 * x**3 + 3, Poly([2])]]


@pytest.mark.parametrize("p", ["l^2+1", "l-i"])
def test_plane_digits_gaussian_entries(p):
    """Q(i) entries are expanded as they are, unscaled, and reassemble to A
    at a rational and at a Gaussian prime."""
    x, i = Poly.x(), Poly.const(GaussianRational(0, 1))
    p = {"l^2+1": x**2 + 1, "l-i": x - i}[p]
    A = MatPoly([
        [x**3 + i, Poly.const(Fraction(1, 2)) * x + i],
        [i * x**4 - Poly.const(Fraction(2, 3)), Poly([3])],
    ])
    digits = digits_in_p(A, p)
    assert all(e.degree < p.degree for digit in digits for row in digit for e in row)
    rows = [lambda_iso([digit[r] for digit in digits], p) for r in range(A.rows)]
    assert MatPoly(rows) == A


def reference_matmul(A, B):
    """Entry (i, j) as the plain convolution sum over k, coefficient by
    coefficient."""
    out = []
    for i in range(A.rows):
        row = []
        for j in range(B.cols):
            acc = []
            for k in range(A.cols):
                for s, x in enumerate(A[i, k].coeffs):
                    for t, y in enumerate(B[k, j].coeffs):
                        acc.extend([Fraction(0)] * (s + t + 1 - len(acc)))
                        acc[s + t] = acc[s + t] + x * y
            row.append(_trim(acc))
        out.append(row)
    return out


# Operand shapes the packed product must meet beside plain small entries:
# columns of very different bit lengths (two slot widths in one product),
# a zero row and a zero column, and every coefficient at the largest size
# its bit length allows, so that slot sums come near 2**(B-1).
SHAPES = ["plain", "spread", "zeros", "bound"]
LONG = (1 << 400) - 1


def _spread(M, j):
    """M with column j scaled by the 400-bit LONG."""
    return MatPoly([[e.scale(LONG) if k == j else e for k, e in enumerate(row)] for row in M.entries])


def _zeroed(M, i, j):
    """M with row i and column j zero."""
    return MatPoly([[Poly.zero() if r == i or k == j else e for k, e in enumerate(row)]
                    for r, row in enumerate(M.entries)])


@st.composite
def _extremes(draw, rows, cols):
    """Every coefficient sign * (2**bits - 1), every entry `length` long:
    with the other factor alike, each slot sum of the product is the most
    its bit lengths and term count allow, all of one sign."""
    bits = draw(st.sampled_from([2, 3, 7, 31, 64, 200]))
    length = draw(st.integers(min_value=1, max_value=5))
    c = Fraction(draw(st.sampled_from([1, -1])) * ((1 << bits) - 1))
    return MatPoly([[Poly([c] * length)] * cols] * rows)


@settings(KERNELS, max_examples=100)
@given(
    data=st.data(),
    dims=st.tuples(*[st.integers(min_value=1, max_value=3)] * 3),
    gaussian=st.booleans(),
    shape=st.sampled_from(SHAPES),
)
def test_matmul_matches_entrywise_reference(data, dims, gaussian, shape):
    n, m, k = dims
    A = data.draw(_matrices(rationals, n, m, 4))
    B = data.draw(_matrices(gaussians if gaussian else rationals, m, k, 3))
    if shape == "spread":
        B = _spread(B, data.draw(st.integers(0, k - 1)))
    elif shape == "zeros":
        A = _zeroed(A, data.draw(st.integers(0, n - 1)), -1)
        B = _zeroed(B, -1, data.draw(st.integers(0, k - 1)))
    elif shape == "bound":
        A, B = data.draw(_extremes(n, m)), data.draw(_extremes(m, k))
    C = A @ B
    assert [[list(e.coeffs) for e in row] for row in C.entries] == reference_matmul(A, B)
    if not gaussian:
        assert all(type(c) is Fraction for row in C.entries for e in row for c in e.coeffs)


# -- the packed-integer kernel ------------------------------------------------


@st.composite
def _slot_values(draw):
    """A width B and values that fit its signed slots, the extremes
    -2**(B-1) and 2**(B-1) - 1, zero and -1 drawn often."""
    B = draw(st.integers(min_value=1, max_value=130))
    lo, hi = -(1 << (B - 1)), (1 << (B - 1)) - 1
    value = st.one_of(st.sampled_from([lo, hi, 0, -1]), st.integers(lo, hi))
    return B, draw(st.lists(value, max_size=12))


@KERNELS
@given(case=_slot_values())
def test_unpack_inverts_pack(case):
    B, xs = case
    v = _pack(xs, B)
    assert v == sum(x << (B * k) for k, x in enumerate(xs))
    assert _unpack(v, B, len(xs)) == xs
    # reading more slots than were packed gives zeros
    assert _unpack(v, B, len(xs) + 2) == xs + [0, 0]


def test_unpack_borrows_across_slots():
    assert _pack([-1, 0, 1], 8) == (1 << 16) - 1
    assert _unpack((1 << 16) - 1, 8, 3) == [-1, 0, 1]
    assert _unpack(-1, 4, 3) == [-1, 0, 0]
    assert _unpack(_pack([-128, 127, -128], 8), 8, 3) == [-128, 127, -128]


def reference_int_dot(row, col):
    """sum_k row[k] * col[k], coefficient by coefficient."""
    acc = []
    for a, b in zip(row, col):
        for s, x in enumerate(a):
            for t, y in enumerate(b):
                acc.extend([0] * (s + t + 1 - len(acc)))
                acc[s + t] += x * y
    return _trim(acc)


def _int_coeff_lists():
    """Short or long lists of small or long integers of either sign, some
    with trailing zeros (zero-padded, which Poly strips), some empty (the
    zero entry)."""
    small = st.integers(min_value=-9, max_value=9)
    long = st.integers(min_value=-(1 << 300), max_value=1 << 300)
    body = st.one_of(
        st.lists(small, max_size=3),
        st.lists(st.one_of(small, long), min_size=1, max_size=25),
    )
    padding = st.integers(min_value=0, max_value=3).map(lambda k: [0] * k)
    return st.tuples(body, padding).map(lambda t: t[0] + t[1] if t[0] else t[0])


def _chain_product(rows, cols):
    """out[r][i] = sum_k rows[r][k] * cols[i][k] by the chain kernel of @
    and compute_E, for integer coefficient lists (all scales 1)."""
    A = MatPoly([[Poly(e) for e in row] for row in rows])
    B = MatPoly.from_columns([[Poly(e) for e in col] for col in cols])
    out, s, t = _rational_product((A, B))
    assert set(s) == set(t) == {1}
    return list(out)


@KERNELS
@given(data=st.data(), dims=st.tuples(*[st.integers(min_value=1, max_value=4)] * 3))
def test_chain_product_matches_schoolbook(data, dims):
    n, m, k = dims
    rows = data.draw(st.lists(st.lists(_int_coeff_lists(), min_size=m, max_size=m),
                              min_size=n, max_size=n))
    cols = data.draw(st.lists(st.lists(_int_coeff_lists(), min_size=m, max_size=m),
                              min_size=k, max_size=k))
    out = _chain_product(rows, cols)
    assert [[_trim(e) for e in row] for row in out] == [
        [reference_int_dot(row, col) for col in cols] for row in rows
    ]


def test_chain_product_at_the_slot_bound():
    """T products at the largest size their bit lengths allow, all of one
    sign and all landing on coefficient 0, for T = 2**m - 1 (the most the
    term count's bit length admits): each sum sits just inside its slot.
    With a 400-bit column beside them the slots widen for the whole
    product, and the small sums still read back."""
    for ba, bb in ((1, 1), (7, 3), (64, 64), (200, 13)):
        ta, tb = (1 << ba) - 1, (1 << bb) - 1
        for terms in (1, 3, 7, 15):
            for sign in (1, -1):
                rows = [[[sign * ta]] * terms, [[-sign * ta]] * terms]
                t = terms * ta * tb
                for wide in ([], [[[LONG]] * terms]):
                    out = _chain_product(rows, [[[tb, -tb]] * terms] + wide)
                    assert [row[0] for row in out] == [[sign * t, -sign * t], [-sign * t, sign * t]]
                rows, cols = [[[sign * ta] * 5] * terms], [[[tb] * 3] * terms, [[LONG, 1]] * terms]
                out = _chain_product(rows, cols)
                assert [_trim(c) for c in out[0]] == [reference_int_dot(rows[0], c) for c in cols]


@KERNELS
@given(
    data=st.data(),
    n=st.integers(min_value=2, max_value=3),
    bad=st.integers(min_value=0, max_value=2),
    shift=st.integers(min_value=1, max_value=5),
)
def test_compute_E_names_the_failing_column(data, n, bad, shift):
    """A V = E0 D for V = I + f e_1 e_n^T; adding a constant to one entry
    of column `bad` of A breaks divisibility there and only there."""
    bad %= n
    E0 = data.draw(_matrices(rationals, n, n, 2))
    D = MatPoly.diag([data.draw(_monic_integer(1 + j % 2)) for j in range(n)])
    f = data.draw(_matrices(small_ints.map(Fraction), 1, 1, 2))[0, 0]
    V = [[Poly.one() if i == j else Poly.zero() for j in range(n)] for i in range(n)]
    Vinv = [list(r) for r in V]
    V[0][n - 1], Vinv[0][n - 1] = f, -f
    V, Vinv = MatPoly(V), MatPoly(Vinv)
    A = E0 @ D @ Vinv
    assert compute_E(A, V, D) == E0
    # perturb column `bad` of A V: A + c e_r e_bad^T V^-1 has A V + c e_r e_bad^T
    r = data.draw(st.integers(min_value=0, max_value=n - 1))
    bump = [[Poly.const(shift) if (i, j) == (r, bad) else Poly.zero() for j in range(n)]
            for i in range(n)]
    A2 = A + MatPoly(bump) @ Vinv
    with pytest.raises(DivisibilityFailure, match=f"column {bad + 1} of A\\*V"):
        compute_E(A2, V, D)


def reference_compute_E(A, V, ds):
    """Quotients of the reference product A V, column i divided by d_i,
    or the 1-based index of the first column that does not divide."""
    AV = reference_matmul(A, V)
    E = [[None] * len(ds) for _ in AV]
    for i, d in enumerate(ds):
        for r, row in enumerate(AV):
            q, rem = reference_divmod(row[i], d.coeffs)
            if rem:
                return i + 1
            E[r][i] = q
    return E


X = Poly.x()
HALF = Fraction(1, 2)
# leading coefficient +-1 once the denominators are cleared: integer route
UNIT_DIVISORS = st.one_of(
    st.integers(min_value=1, max_value=2).flatmap(_monic_integer),
    st.sampled_from([-(X**2) + 3, (X + 1).scale(HALF), X**2 * HALF + X * HALF + 1]),
)
# constants +-1 once cleared: the integer route without a division
UNIT_CONSTANTS = st.sampled_from([Poly.one(), -Poly.one(), Poly.const(HALF), Poly.const(-HALF)])
# a non-unit leading coefficient, which compute_E pseudo-divides on the
# integer route, or Gaussian, which takes the whole call to A @ V and
# Poly.divmod
FIELD_DIVISORS = st.sampled_from(
    [(2 * X + 1) ** 2, (X + HALF) ** 2, 3 * X - 1, X + GaussianRational(0, 1)]
)


def _check_compute_E(A, V, ds):
    """compute_E(A, V, diag(ds)) against the reference: its quotients, or
    DivisibilityFailure naming its first non-divisible column; None then.
    Rational operands take the integer route, whose quotients have
    Fraction coefficients only.  On Q(i) a coefficient's type depends on
    the arithmetic path (a zero coefficient times i is a GaussianRational
    in the reference, which multiplies every pair of coefficients, and
    Poly skips zero ones), so there only the values are compared."""
    ref = reference_compute_E(A, V, ds)
    if isinstance(ref, int):
        with pytest.raises(DivisibilityFailure, match=f"^column {ref} of A\\*V"):
            compute_E(A, V, MatPoly.diag(ds))
        return None
    E = compute_E(A, V, MatPoly.diag(ds))
    assert [[list(e.coeffs) for e in row] for row in E.entries] == ref
    rows = [*A.entries, *V.entries, ds]
    if all(e._nums is not None for row in rows for e in row):
        assert all(type(c) is Fraction for row in E.entries for e in row for c in e.coeffs)
    return E


@pytest.mark.parametrize("route", ["integer", "field", "gaussian"])
@settings(KERNELS, max_examples=60)
@given(
    data=st.data(),
    dims=st.tuples(*[st.integers(min_value=1, max_value=3)] * 3),
    bump=st.one_of(st.just(0), st.integers(min_value=-3, max_value=3)),
    shape=st.sampled_from(SHAPES),
)
def test_compute_E_matches_division_reference(route, data, dims, bump, shape):
    """compute_E(A, V, D) for V = W D (so A V = (A W) D), with one entry
    of V moved by the constant `bump`, checked by _check_compute_E.  Only
    a Q(i) d_i (under "field") or Q(i) entries (under "gaussian") take the
    call off the integer route; a rational d_i with a non-unit leading
    coefficient is pseudo-divided on it.  The shapes are the product's
    (SHAPES); under "bound" every d_i is a constant, so that V keeps W's
    extreme coefficients."""
    rows, inner, n = dims
    divisors = UNIT_CONSTANTS if shape == "bound" else UNIT_DIVISORS
    ds = [data.draw(divisors) for _ in range(n)]
    if route == "field":
        ds[data.draw(st.integers(min_value=0, max_value=n - 1))] = data.draw(FIELD_DIVISORS)
    A = data.draw(_matrices(gaussians if route == "gaussian" else rationals, rows, inner, 3))
    W = data.draw(_matrices(rationals, inner, n, 2))
    if shape == "spread":
        W = _spread(W, data.draw(st.integers(0, n - 1)))
    elif shape == "zeros":
        A = _zeroed(A, data.draw(st.integers(0, rows - 1)), -1)
        W = _zeroed(W, -1, data.draw(st.integers(0, n - 1)))
    elif shape == "bound":
        W = data.draw(_extremes(inner, n))
        if route != "gaussian":
            A = data.draw(_extremes(rows, inner))
    V = [list(row) for row in (W @ MatPoly.diag(ds)).entries]
    k, i = data.draw(st.tuples(st.integers(0, inner - 1), st.integers(0, n - 1)))
    V[k][i] = V[k][i] + bump
    E = _check_compute_E(A, MatPoly(V), ds)
    if E is not None and not bump:
        assert E == A @ W


def test_compute_E_gaussian_divisor_of_a_rational_product():
    """A Q(i) d_2 with rational A and W: compute_E gives E[0][1] = l^2+1
    with Fraction coefficients, where the reference's constant term is a
    GaussianRational; the values agree."""
    A, W = MatPoly([[X**2 + 1]]), MatPoly([[0, 1]])
    ds = [-(X**2) + 3, X + GaussianRational(0, 1)]
    E = _check_compute_E(A, W @ MatPoly.diag(ds), ds)
    assert E == A @ W


def test_compute_E_rejects_a_bad_D():
    """A D that is not diagonal, has the wrong size or a zero d_i gets a
    typed error, never a wrong E or a raw exception."""
    A, V = MatPoly.diag([X, X**2]), MatPoly.identity(2)
    with pytest.raises(ShapeMismatch):
        compute_E(A, V, MatPoly([[X, 1], [0, X**2]]))
    with pytest.raises(DimensionMismatch):
        compute_E(A, V, MatPoly([[X]]))
    with pytest.raises(DimensionMismatch):
        compute_E(A, V, MatPoly.diag([X, X, 1]))
    with pytest.raises(DivisibilityFailure, match="column 2 of A\\*V"):
        compute_E(A, V, MatPoly.diag([X, 0]))


def test_exact_div_does_not_floor():
    """The integer division of _bareiss and _gauss_jordan raises where `//`
    would floor: 1 // 2 and -7 // 2 are not exact, -6 // 3 is."""
    div = _exact_div(1)
    assert div(-6, 3) == -2 and div(0, 5) == 0
    for a, b in [(1, 2), (-7, 2), (7, -2)]:
        with pytest.raises(DivisibilityFailure, match="not a multiple"):
            div(a, b)


# -- the echelon kernel ------------------------------------------------------

I = GaussianRational(0, 1)
RREF_PRIMES = [
    Poly([2, 1]),  # l+2
    Poly([1, 0, 1]),  # l^2+1
    Poly([1, 1, 1]),  # l^2+l+1
    Poly([-2, 0, 0, 1]),  # l^3-2
    Poly([1, 1, 0, 1]),  # l^3+l+1
    Poly([I, 0, 1]),  # l^2+i, irreducible over Q(i)
]


def _echelon_cases(entry, zero, scale):
    """A 1-4 x 1-5 matrix, sparse entries, and sometimes a last row that
    is the first plus a multiple of the second, so ranks fall short."""

    @st.composite
    def cases(draw):
        nrows = draw(st.integers(min_value=1, max_value=4))
        ncols = draw(st.integers(min_value=1, max_value=5))
        cell = st.one_of(st.just(zero), entry)
        rows = [[draw(cell) for _ in range(ncols)] for _ in range(nrows)]
        if nrows >= 2 and draw(st.booleans()):
            c = draw(entry)
            rows.append([x + scale(c, y) for x, y in zip(rows[0], rows[1])])
        return rows

    return cases()


def _check_echelon(rows, F):
    """The reduced form is canonical (unit pivot columns, zero rows last),
    rank plus nullity is the width, and the transpose has the same rank."""
    ncols = len(rows[0])
    rref, pivots, null = _rref(rows, F)
    for i, c in enumerate(pivots):
        assert [row[c] for row in rref] == [F.one if k == i else F.zero for k in range(len(rref))]
    assert not any(any(row) for row in rref[len(pivots) :])
    assert len(pivots) + len(null) == ncols
    transposed = [list(col) for col in zip(*rows)]
    assert len(_rref(transposed, F)[1]) == len(pivots)
    return pivots, null


@KERNELS
@given(rows=_echelon_cases(rationals, Fraction(0), lambda c, y: c * y))
def test_rref_over_rationals(rows):
    _, null = _check_echelon(rows, BASE_FIELD)
    for vec in null:
        for row in rows:
            assert sum((a * b for a, b in zip(row, vec)), Fraction(0)) == 0


@KERNELS
@given(data=st.data(), p=st.sampled_from(RREF_PRIMES))
def test_rref_over_residue_field(data, p):
    """Null vectors are annihilated (products by the companion action, which
    never divides by p), and the rank over R/pR times s = deg p is the
    rank over K of the base-field lane's block expansion."""
    s, F = p.degree, ResidueField(p)
    scalars = gaussians if isinstance(p.coeffs[0], GaussianRational) else small_ints
    entry = st.lists(scalars, min_size=s, max_size=s).map(Poly)
    rows = data.draw(_echelon_cases(entry, Poly.zero(), F.mul))
    pivots, null = _check_echelon(rows, F)
    for vec in null:
        for row in rows:
            acc = [Fraction(0)] * s
            for a, b in zip(row, vec):
                acc = [x + y for x, y in zip(acc, companion_product(a, b, p))]
            assert not any(acc)
    block = _BaseFieldLane(MatPoly(rows), p, 1).tableau()
    assert len(_rref(block, BASE_FIELD)[1]) == s * len(pivots)


def _typed(x):
    """A value with the type of every coefficient, so Fraction(0) and 0
    or a Fraction and an equal GaussianRational compare unequal."""
    if isinstance(x, list):
        return [_typed(e) for e in x]
    if isinstance(x, Poly):
        return [(type(c), c) for c in x.coeffs]
    return (type(x), x)


def _check_grown_by_blocks(rows, F, cuts):
    """Extending block by block gives, after every block, the reduced rows,
    pivots and null basis of _rref on the columns so far, and the null
    vectors of the new free columns are that basis's tail."""
    ncols = len(rows[0])
    bounds = [0] + sorted(set(c for c in cuts if 0 < c < ncols)) + [ncols]
    ech = _Echelon(F, len(rows))
    for lo, hi in zip(bounds, bounds[1:]):
        ech.extend([row[lo:hi] for row in rows])
        whole, pivots, null = _rref([row[:hi] for row in rows], F)
        assert _typed(ech.rows) == _typed(whole)
        assert ech.pivots == pivots
        assert _typed(ech.null_basis()) == _typed(null)
        old_free = lo - sum(1 for c in pivots if c < lo)
        assert _typed(ech.null_basis(lo)) == _typed(null[old_free:])


CUTS = st.lists(st.integers(min_value=1, max_value=4), max_size=3)


@KERNELS
@given(rows=_echelon_cases(rationals, Fraction(0), lambda c, y: c * y), cuts=CUTS)
def test_echelon_grown_by_blocks_over_rationals(rows, cuts):
    _check_grown_by_blocks(rows, BASE_FIELD, cuts)


@KERNELS
@given(data=st.data(), p=st.sampled_from(RREF_PRIMES), cuts=CUTS)
def test_echelon_grown_by_blocks_over_residue_field(data, p, cuts):
    s, F = p.degree, ResidueField(p)
    scalars = gaussians if isinstance(p.coeffs[0], GaussianRational) else small_ints
    entry = st.lists(scalars, min_size=s, max_size=s).map(Poly)
    rows = data.draw(_echelon_cases(entry, Poly.zero(), F.mul))
    _check_grown_by_blocks(rows, F, cuts)
