"""Property tests for the integer kernels behind Poly.divmod, expand_in_p,
MatPoly @ and mat_det's interpolation, each against a plain reference
written here over the field, and for the echelon kernel over Q and over
R/pR, whole (_rref) and grown by blocks of columns (_Echelon).

Rational operands must give exactly the reference's coefficients, type
included (every coefficient a Fraction).  Gaussian operands take the field
loop; their quotients and remainders keep the reference's types too."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import companion_product
from smithpoly import DivisibilityFailure, MatPoly, Poly, compute_E, expand_in_p, lambda_iso
from smithpoly.field import GaussianRational
from smithpoly.localsmith import _Echelon, _FieldLane, _rref
from smithpoly.matpoly import _exact_div, _interpolate
from smithpoly.residue import BASE_FIELD, ResidueField

settings.register_profile(
    "kernels", max_examples=60, deadline=None, derandomize=True, database=None
)
KERNELS = settings.get_profile("kernels")

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
def test_expand_in_p_inverts_lambda_iso(data, degree, n):
    p = data.draw(_monic_integer(degree))
    A = data.draw(_matrices(rationals, n, n, max_degree=9))
    blocks = expand_in_p(A, p).blocks
    for blk in blocks:
        assert blk.max_degree() < degree
        assert all(type(c) is Fraction for row in blk.entries for e in row for c in e.coeffs)
    rows = [lambda_iso([blk.entries[r] for blk in blocks], p) for r in range(n)]
    assert MatPoly(rows) == A


def test_expand_in_p_non_integral_prime():
    """A monic p with a fractional coefficient takes the field loop."""
    x = Poly.x()
    p = x + Poly.const(Fraction(1, 2))
    A = MatPoly([[x**3 + 1, Poly.const(Fraction(2, 3))]])
    blocks = expand_in_p(A, p).blocks
    assert [lambda_iso([blk.entries[0] for blk in blocks], p)] == list(
        map(list, A.entries)
    )


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


@KERNELS
@given(
    data=st.data(),
    dims=st.tuples(*[st.integers(min_value=1, max_value=3)] * 3),
    gaussian=st.booleans(),
)
def test_matmul_matches_entrywise_reference(data, dims, gaussian):
    n, m, k = dims
    A = data.draw(_matrices(rationals, n, m, 4))
    B = data.draw(_matrices(gaussians if gaussian else rationals, m, k, 3))
    C = A @ B
    assert [[list(e.coeffs) for e in row] for row in C.entries] == reference_matmul(A, B)
    if not gaussian:
        assert all(type(c) is Fraction for row in C.entries for e in row for c in e.coeffs)


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


def _nodes(count):
    """mat_det's evaluation points 0, 1, -1, 2, -2, ..."""
    return [(k + 1) // 2 if k % 2 else -(k // 2) for k in range(count)]


def reference_lagrange(points, values):
    """sum_k values[k] * prod_{j != k} (X - x_j) / (x_k - x_j) on Fractions,
    coefficients lowest first."""
    out = [Fraction(0)] * len(points)
    for k, (xk, yk) in enumerate(zip(points, values)):
        basis, scale = [Fraction(1)], yk
        for j, xj in enumerate(points):
            if j != k:
                basis = [Fraction(0)] + basis
                basis = [a - xj * b for a, b in zip(basis, basis[1:] + [0])]
                scale = scale / Fraction(xk - xj)
        out = [a + scale * b for a, b in zip(out, basis)]
    return _trim(out)


gaussian_ints = st.builds(GaussianRational, small_ints, small_ints)


@KERNELS
@given(
    coeffs=st.one_of(coeff_lists(small_ints, 7), coeff_lists(gaussian_ints, 6)),
    extra=st.integers(min_value=0, max_value=3),
)
def test_interpolate_matches_lagrange(coeffs, extra):
    """Integer and Gaussian-integer polynomials at mat_det's nodes, with up
    to three points more than the degree needs: the exact Newton kernel
    returns the polynomial, as the Lagrange form on Fractions does."""
    one = GaussianRational(1) if any(isinstance(c, GaussianRational) for c in coeffs) else 1
    points = _nodes(max(len(coeffs), 1) + extra)
    values = [sum((c * x**k for k, c in enumerate(coeffs)), one * 0) for x in points]
    got = _interpolate(points, values, _exact_div(one))
    assert len(got) == len(points)
    assert all(type(c) is type(one) for c in got)
    assert _trim(got) == _trim(coeffs) == reference_lagrange(points, values)


@KERNELS
@given(
    coeffs=coeff_lists(small_ints, 6),
    count=st.integers(min_value=4, max_value=8),
    data=st.data(),
)
def test_interpolate_raises_on_non_integer_polynomial(coeffs, count, data):
    """One value of an integer polynomial moved by one: the interpolant's
    top coefficient gains 1 / prod_{j != k} (x_k - x_j), not an integer from
    four nodes on (three distinct nonzero integers have a product of at
    least 2), so the integer kernel raises instead of flooring."""
    points = _nodes(max(len(coeffs), count))
    values = [sum(c * x**k for k, c in enumerate(coeffs)) for x in points]
    k = data.draw(st.integers(min_value=0, max_value=len(points) - 1))
    values[k] += 1
    assert reference_lagrange(points, values)[-1].denominator > 1
    with pytest.raises(DivisibilityFailure, match="not a multiple"):
        _interpolate(points, values, _exact_div(1))


def test_interpolate_does_not_floor():
    """l (l - 1) / 2 at 0, 1, -1 is 0, 0, 1: its second divided difference
    is 1/2, which `//` would floor to 0."""
    with pytest.raises(DivisibilityFailure):
        _interpolate([0, 1, -1], [0, 0, 1], _exact_div(1))


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
    block = _FieldLane(MatPoly(rows), p, 1).tableau()
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
