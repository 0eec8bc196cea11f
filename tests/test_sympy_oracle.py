"""sympy as an optional third oracle for the layers around the local
forms: mat_det against sympy's DomainMatrix determinant on derandomized
random matrices over Q and over Q+iQ, and factor_over_rationals against sympy.factor_list
on random rational polynomials.  Skipped where sympy is not installed."""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from smithpoly.factorization import factor_over_rationals  # noqa: E402
from smithpoly.field import GaussianRational as G  # noqa: E402
from smithpoly.matpoly import MatPoly, mat_det  # noqa: E402
from smithpoly.poly import Poly  # noqa: E402

ORACLE = settings(max_examples=40)
LAM = sympy.Symbol("l")

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
polys = st.lists(rationals, max_size=4).map(Poly)
gaussians = st.builds(G, rationals, rationals)
gaussian_polys = st.lists(st.one_of(rationals, gaussians), max_size=4).map(Poly)


def _sympy_scalar(c):
    if isinstance(c, G):
        return _sympy_scalar(c.re) + sympy.I * _sympy_scalar(c.im)
    return sympy.Rational(c.numerator, c.denominator)


def _to_sympy(f: Poly):
    return sum((_sympy_scalar(c) * LAM**k for k, c in enumerate(f.coeffs)), sympy.Integer(0))


def _from_sympy(expr) -> Poly:
    coeffs = sympy.Poly(sympy.expand(expr), LAM).all_coeffs()[::-1]
    return Poly([_from_sympy_scalar(c) for c in coeffs])


def _from_sympy_scalar(c):
    re, im = (Fraction(int(v.p), int(v.q)) for v in c.as_real_imag())
    return G(re, im) if im else re


@st.composite
def _matrices(draw, entries):
    n = draw(st.integers(min_value=1, max_value=4))
    return MatPoly([[draw(entries) for _ in range(n)] for _ in range(n)])


def _rows_over(rows, dens, scale=1):
    return MatPoly(
        [[Poly(cs).scale(scale * Fraction(1, d)) for cs in row] for row, d in zip(rows, dens)]
    )


@ORACLE
@given(st.one_of(_matrices(polys), _matrices(gaussian_polys)))
# det near the packed route's slot bound, negative in the lowest and top
# slot, each row over its own denominator
@example(_rows_over([[[-1, 2], [0, -3]], [[3], [2, -3]]], (5, 7)))
@example(_rows_over([[[0, 3], [-2, -3]], [[-3, -1], [-2]]], (1, 4)))
# a 400-bit factor on every entry: wide slots and long packed minors
@example(_rows_over([[[2, -1], [3]], [[-5], [1, 4]]], (3, 1), 3**250))
@example(
    _rows_over([[[1, 2, -2], [3], [0, 1]], [[-1], [4, 0, 5], [2]], [[7, 1], [-3], [1, 1, 1]]], (2, 1, 9), 3**250)
)
# Gaussian: a slot-edge matrix times i, whose det is purely imaginary, and
# a 400-bit factor on entries with nonzero imaginary parts
@example(_rows_over([[[-3], [2], [0, -1]], [[-1, 1], [-3], [1]], [[-2], [-1], [0, 3]]], (1, 3, 2), G(0, 1)))
@example(_rows_over([[[2, G(-1, 3)], [G(0, 3)]], [[G(-5, 2)], [G(1, 1), 4]]], (3, 1), 3**250))
def test_mat_det_matches_sympy(A):
    # sympy's own determinant over QQ[l] or QQ_I[l]
    M = DomainMatrix.from_Matrix(sympy.Matrix([[_to_sympy(e) for e in row] for row in A.entries]))
    assert mat_det(A) == _from_sympy(M.domain.to_sympy(M.det()))


@st.composite
def _products(draw):
    """A rational constant times 1-3 factors of degree 1-3, each to a power
    1-2, so repeated and reducible-looking factors are common."""
    nonzero = rationals.filter(bool)
    f = Poly.const(draw(nonzero))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        g = Poly(draw(st.lists(st.integers(min_value=-4, max_value=4), min_size=2, max_size=4)))
        if g.degree >= 1:
            f = f * g ** draw(st.integers(min_value=1, max_value=2))
    return f


@ORACLE
@given(st.one_of(_products(), polys.filter(lambda f: f.degree >= 0)))
def test_factor_over_rationals_matches_sympy(f):
    fac = factor_over_rationals(f)
    assert fac.expand() == f
    unit, factors = sympy.factor_list(_to_sympy(f), LAM)
    want = {}
    for g, e in factors:
        g = _from_sympy(g).monic()
        want[g] = want.get(g, 0) + e
    assert dict(fac.factors) == want
    assert all(p.is_monic() for p, _ in fac.factors)
