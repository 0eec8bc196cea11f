"""The integer form of rational polynomials: every producer stores the
canonical (nums, den), the Fraction view reads as a Poly built from the
same Fractions, and the integer kernels and verify_smith build no view."""

import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import instance
from smithpoly.field import GaussianRational
from smithpoly.globalsmith import (
    combine_local,
    factor_determinant,
    invert_unimodular,
    smith_diagonal,
    smith_with_multipliers,
    triangularize,
)
from smithpoly.localsmith import (
    _BaseFieldLane,
    _local_chains,
    _local_multiplier,
    local_smith,
    local_smith_over_K,
)
from smithpoly.matpoly import MatPoly, compute_E, mat_det
from smithpoly.poly import Poly, _from_ints, _view, poly_gcd, poly_xgcd
from smithpoly.verify import verify_smith

X = Poly.x()
FORMS = settings(max_examples=60)

ints = st.integers(min_value=-12, max_value=12)
rationals = st.one_of(ints, st.fractions(min_value=-9, max_value=9, max_denominator=8))
coeff_lists = st.lists(rationals, max_size=5)


def _trim(cs):
    cs = [Fraction(c) for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _ref_add(a, b, sign=1):
    a, b = _trim(a), _trim(b)
    n = max(len(a), len(b))
    a, b = a + [Fraction(0)] * (n - len(a)), b + [Fraction(0)] * (n - len(b))
    return _trim([x + sign * y for x, y in zip(a, b)])


def _ref_mul(a, b):
    a, b = _trim(a), _trim(b)
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for (i, x), (j, y) in itertools.product(enumerate(a), enumerate(b)):
        out[i + j] += x * y
    return out


def _check(P, ref=None):
    """P holds the canonical integer form, with the Fraction coefficients
    ref if given, and reads as the Poly built from the same Fractions."""
    nums, den = P._nums, P._den
    assert type(nums) is tuple and all(type(c) is int for c in nums)
    assert type(den) is int and den > 0
    assert gcd(den, *nums) == 1 and (not nums or nums[-1] != 0)
    assert P.degree == len(nums) - 1 and bool(P) == bool(nums)
    fracs = [Fraction(n, den) for n in nums]
    if ref is not None:
        assert fracs == _trim(ref)
    R = Poly(fracs)
    assert (R._nums, R._den) == (nums, den)
    assert P == R and R == P
    assert hash(P) == hash(R) == hash(tuple(fracs))
    assert repr(P.coeffs) == repr(R.coeffs) == repr(tuple(fracs))
    assert all(type(c) is Fraction for c in P.coeffs)


@FORMS
@given(a=coeff_lists, b=coeff_lists, c=rationals)
def test_arithmetic_stores_the_canonical_form(a, b, c):
    A, B = Poly(a), Poly(b)
    _check(A, a)
    _check(B, b)
    _check(A + B, _ref_add(a, b))
    _check(A - B, _ref_add(a, b, -1))
    _check(-A, _ref_add([], a, -1))
    _check(A * B, _ref_mul(a, b))
    _check(A.scale(c), _ref_mul(a, [c]))
    _check(A.derivative(), [k * x for k, x in enumerate(_trim(a))][1:])
    if B:
        q, r = A.divmod(B)
        _check(q)
        _check(r)
        assert _ref_add(_ref_add(_ref_mul(list(q.coeffs), b), list(r.coeffs)), a, -1) == []
        _check(B.monic())
        assert B.monic().is_monic()


@FORMS
@given(ints_=st.lists(ints, max_size=6), den=ints.filter(bool), f=ints.filter(bool))
def test_from_ints_reduces_any_den(ints_, den, f):
    """An unreduced or negative den gives the form of the same Fractions."""
    ref = [Fraction(c, den) for c in ints_]
    _check(_from_ints(list(ints_), den), ref)
    _check(_from_ints([c * f for c in ints_], den * f), ref)


def test_zero_and_integral_forms():
    for P in (Poly(), Poly([0, Fraction(0)]), _from_ints([0, 0], -6), X - X, Poly.zero()):
        _check(P, [])
        assert (P._nums, P._den) == ((), 1) and P.coeffs == ()
    P = _from_ints([4, -6, 8], -2)
    assert (P._nums, P._den) == ((-2, 3, -4), 1)
    _check(P)
    assert _from_ints([3, 6], 9) == Poly([Fraction(1, 3), Fraction(2, 3)])


def test_gaussian_input_keeps_its_types():
    i = GaussianRational(0, 1)
    cases = [
        Poly([GaussianRational(1, 0), Fraction(1, 2)]),
        Poly([i, 1]),
        Poly([i, 1]) + Poly([Fraction(1, 2), 0, 3]),
        Poly([Fraction(1, 2), 0, 3]) * Poly([GaussianRational(2, 0)]),
        Poly([1, 2]).scale(i),
        Poly([i, 1]) - Poly([Fraction(1, 2), 0, 3]),
        *Poly([Fraction(1, 2), 0, 0, 3]).divmod(Poly([i, 0, GaussianRational(2, 0)])),
    ]
    want = [
        [GaussianRational, Fraction],
        [GaussianRational, Fraction],
        [GaussianRational, Fraction, Fraction],
        [GaussianRational, GaussianRational, GaussianRational],
        [GaussianRational, GaussianRational],
        [GaussianRational, Fraction, Fraction],
        [Fraction, GaussianRational],
        [Fraction, GaussianRational],
    ]
    for P, types in zip(cases, want):
        assert P._nums is None and P._den is None
        assert [type(c) for c in P.coeffs] == types
    assert cases[0] == Poly([1, Fraction(1, 2)]) and Poly([1, Fraction(1, 2)]) == cases[0]
    assert hash(cases[0]) == hash(Poly([1, Fraction(1, 2)]))


@FORMS
@given(n=st.integers(-10**30, 10**30), d=st.integers(1, 10**20))
def test_view_matches_the_fraction_constructor(n, d):
    """_view writes Fraction's slots; the value, hash, repr and str are
    those of Fraction(n, d), for zero and negative numerators too."""
    for m in (n, 0, -abs(n) - 1):
        (v,) = _view((m,), d)
        f = Fraction(m, d)
        assert type(v) is Fraction
        assert (v.numerator, v.denominator) == (f.numerator, f.denominator)
        assert v == f and hash(v) == hash(f) and repr(v) == repr(f) and str(v) == str(f)
        assert v + Fraction(1, 3) == f + Fraction(1, 3)


def _matrices(n, cells):
    return MatPoly([[Poly(cells[i * n + j]) for j in range(n)] for i in range(n)])


@FORMS
@given(data=st.data(), n=st.integers(1, 3))
def test_matrix_producers_store_the_canonical_form(data, n):
    size = 2 * n * n
    cells = data.draw(st.lists(st.lists(rationals, max_size=3), min_size=size, max_size=size))
    A, B = _matrices(n, cells[: n * n]), _matrices(n, cells[n * n :])
    C = A @ B
    for i, j in itertools.product(range(n), repeat=2):
        ref = []
        for k in range(n):
            ref = _ref_add(ref, _ref_mul(cells[i * n + k], cells[n * n + k * n + j]))
        _check(C[i, j], ref)
    det = []
    for perm in itertools.permutations(range(n)):
        sign = (-1) ** sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = [Fraction(sign)]
        for i in range(n):
            term = _ref_mul(term, cells[i * n + perm[i]])
        det = _ref_add(det, term)
    _check(mat_det(A), det)
    # E = c E0 from A = E0 D and V = c I, with d_i monic, -1, a non-unit
    # constant or of non-unit leading coefficient (pseudo-division)
    ds = st.sampled_from([Poly([-1]), X + 2, X**2 - 3, Poly([3]), 2 * X - Fraction(1, 3)])
    D = MatPoly.diag(data.draw(st.lists(ds, min_size=n, max_size=n)))
    c = data.draw(rationals.filter(bool))
    E = compute_E(A @ D, MatPoly.diag([Poly([c])] * n), D)
    for i, j in itertools.product(range(n), repeat=2):
        _check(E[i, j], _ref_mul(cells[i * n + j], [c]))


@FORMS
@given(data=st.data(), n=st.integers(1, 3))
def test_inverse_stores_the_canonical_form(data, n):
    """E = L U0 with L unit lower and U0 upper triangular over Q[l], U0's
    diagonal nonzero constants: unimodular, with rational inverse."""
    def draw_poly():
        return Poly(data.draw(st.lists(rationals, max_size=3)))

    def entry(i, j, diagonal, below):
        if i == j:
            return diagonal
        return draw_poly() if (i > j) == below else Poly.zero()

    units = [Poly([data.draw(rationals.filter(bool))]) for _ in range(n)]
    L = MatPoly([[entry(i, j, Poly.one(), True) for j in range(n)] for i in range(n)])
    U0 = MatPoly([[entry(i, j, units[i], False) for j in range(n)] for i in range(n)])
    E = L @ U0
    U = invert_unimodular(E)
    for row in U.entries:
        for P in row:
            _check(P)
    assert U @ E == MatPoly.identity(n)


# -- the view is built only where a coefficient is read ------------------------


@pytest.fixture
def views(monkeypatch):
    """The Polys whose Fraction view is built while the fixture is live."""
    built = []
    real = Poly.__getattr__

    def spy(self, name):
        if name == "coeffs":
            built.append(self)
        return real(self, name)

    monkeypatch.setattr(Poly, "__getattr__", spy)
    return built


def _ids(*matrices):
    return {id(e) for M in matrices for row in M.entries for e in row}


@pytest.mark.parametrize("spec", [(1, 4, "revcols"), (4, 4, "none"), (6, 3, "revcols")])
def test_solve_and_verify_build_no_view_of_the_matrices(views, monkeypatch, spec):
    """Neither smith_with_multipliers nor verify_smith on its result reads
    a coefficient of A, V, E or U, and verify_smith forms no product."""
    A = instance(*spec)
    r = smith_with_multipliers(A, with_U=True)
    products = []
    real = MatPoly.__matmul__

    def matmul(self, other):
        products.append(real(self, other))
        return products[-1]

    monkeypatch.setattr(MatPoly, "__matmul__", matmul)
    assert verify_smith(A, r.E, r.D, V=r.V).overall
    assert products == []
    assert not _ids(A, r.V, r.E, r.U) & set(map(id, views))


def test_integer_kernels_build_no_view(views):
    A = instance(1, 4, "revcols")
    r = smith_with_multipliers(A)
    # two primes: the Bezout weights divide by non-monic remainders
    B = instance(4, 4, "none")
    factored = factor_determinant(B)
    locals_ = [_local_multiplier(B, p, e) for p, e in factored.factors]
    D = smith_diagonal(locals_, B.rows)
    f = Poly([Fraction(2, 3), 0, -5, Fraction(7, 2)]) * Poly([1, Fraction(3, 4)])
    g = Poly([Fraction(-1, 6), 3]) * Poly([1, Fraction(3, 4)])
    views.clear()
    compute_E(A, r.V, r.D)
    mat_det(A)
    mat_det(r.E)
    invert_unimodular(r.E)
    assert poly_gcd(f, g) == Poly([Fraction(4, 3), 1])
    h, u, v = poly_xgcd(f, g)
    q, rem = f.divmod(g)
    combined = combine_local(B, locals_, factored=factored, check=False)
    triangularize(combined, D)
    assert views == []
    assert h == u * f + v * g and q * g + rem == f and rem.degree < g.degree


# -- the base-field lane builds the digit maps it reads --------------------------


def test_base_field_lane_builds_only_the_maps_it_reads(monkeypatch):
    """alphas (0, 1, 1, 3) at p = l^2 + 1: mu = 5, but the rounds read
    G_0..G_3 only."""
    p = X**2 + 1
    one, zero = Poly.one(), Poly.zero()
    L = MatPoly([
        [one, zero, zero, zero],
        [X, one, zero, zero],
        [one, 3 * one, one, zero],
        [zero, X, X + 1, one],
    ])
    W = MatPoly([
        [one, X, zero, one],
        [zero, one, X - 1, zero],
        [zero, zero, one, 2 * X],
        [zero, zero, zero, one],
    ])
    A = L @ MatPoly.diag([one, p, p, p**3]) @ W
    lanes = []
    real = _BaseFieldLane.__init__

    def init(self, *args, **kwargs):
        real(self, *args, **kwargs)
        lanes.append(self)

    monkeypatch.setattr(_BaseFieldLane, "__init__", init)
    exact_k = _local_chains(A, p, 5, _BaseFieldLane)
    for res in (local_smith(A, p, 5), local_smith_over_K(A, p, 5), exact_k):
        assert res.alphas == (0, 1, 1, 3)
    assert lanes
    assert max(len(lane.G) for lane in lanes) <= 3 + 1 < 5
