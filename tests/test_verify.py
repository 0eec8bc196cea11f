"""The packed product identity of verify_smith: verify._first_unequal
compares two products of matrices, each given as its
matpoly._integer_chain, at x = 2**B without forming them, and must name
the same first unequal entry, row by row, as the products formed with
MatPoly @ and compared entry by entry.

The property tests draw rational operands with denominators, Gaussian
operands, and pairs whose values agree while one side holds
GaussianRational(x, 0) where the other holds Fraction(x); products made
equal by a unimodular P (X = Z P, Y = P^-1 W, W diagonal or not) are
then moved by one coefficient: by +-1, or to +-2**(w-1) for w one more
than the bit length of the largest coefficient of either product.  The
slot-edge cases hold, for each term of B, two unequal products that agree
at x = 2**B' for the B' the bound would give without that term; @ and
compute_E take their products from the same chain kernel
(matpoly._integer_chain, _chain_rows), and the cases run through them
too."""

from fractions import Fraction
from functools import reduce
from itertools import product
from operator import matmul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smithpoly.field import GaussianRational
from smithpoly.matpoly import MatPoly, _integer_chain, compute_E
from smithpoly.poly import Poly, _pack, _unpack
from smithpoly.verify import _first_unequal as _first_unequal_chains

PACKED = settings(max_examples=60)

small_ints = st.integers(min_value=-9, max_value=9)
rationals = st.one_of(
    small_ints.map(Fraction),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
)
gaussians = st.builds(GaussianRational, rationals, rationals)
KINDS = {"rational": rationals, "gaussian": gaussians}


def _first_unequal(left, right):
    return _first_unequal_chains(_integer_chain(left), _integer_chain(right))


def _reference(left, right):
    """The first unequal entry of the two products formed with @."""
    P, Q = reduce(matmul, left), reduce(matmul, right)
    for i, j in product(range(P.rows), repeat=2):
        if P[i, j] != Q[i, j]:
            return i + 1, j + 1
    return None


def _matrices(scalars, n):
    entry = st.lists(scalars, max_size=4).map(Poly)
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n).map(MatPoly)


def _diagonal(scalars, n):
    return st.lists(st.lists(scalars, max_size=4).map(Poly), min_size=n, max_size=n).map(
        MatPoly.diag
    )


def _unimodular(data, scalars, n):
    """P and P^-1: nonzero constants on the diagonal times I + c e_kl,
    k != l (or I alone for n = 1)."""
    units = data.draw(st.lists(scalars.filter(bool), min_size=n, max_size=n))
    c = Poly(data.draw(st.lists(scalars, max_size=3)))
    k, l = data.draw(st.permutations(range(n)))[:2] if n > 1 else (0, 0)
    one, zero = Poly.one(), Poly.zero()

    def elementary(sign):
        return MatPoly([
            [one if i == j else sign * c if (i, j) == (k, l) else zero for j in range(n)]
            for i in range(n)
        ])

    P = MatPoly.diag(units) @ elementary(1)
    P_inv = elementary(-1) @ MatPoly.diag([1 / u for u in units])
    assert P @ P_inv == MatPoly.identity(n)
    return P, P_inv


def _as_gaussian(M):
    """M with every coefficient a GaussianRational: the same values."""
    return MatPoly(
        [[Poly([GaussianRational(c) for c in e.coeffs]) for e in row] for row in M.entries]
    )


def _moved(M, i, j, t, value):
    """M with coefficient t of entry (i, j) moved by value (an int) or set
    to it (a one-tuple)."""
    cs = list(M[i, j].coeffs) + [0] * (t - M[i, j].degree)
    cs[t] = value[0] if isinstance(value, tuple) else cs[t] + value
    rows = [list(r) for r in M.entries]
    rows[i][j] = Poly(cs)
    return MatPoly(rows)


def _width(*mats):
    """One more than the bit length of the largest numerator part of any
    coefficient of mats."""
    parts = (
        x
        for M in mats
        for row in M.entries
        for e in row
        for c in e.coeffs
        for x in ((c.re, c.im) if isinstance(c, GaussianRational) else (c,))
    )
    return max((abs(Fraction(x).numerator).bit_length() for x in parts), default=0) + 1


@PACKED
@given(data=st.data(), kind=st.sampled_from(sorted(KINDS)), n=st.integers(1, 3))
def test_independent_products(data, kind, n):
    X, Y, Z, W = (data.draw(_matrices(KINDS[kind], n)) for _ in range(4))
    assert _first_unequal((X, Y), (Z, W)) == _reference((X, Y), (Z, W))


@settings(PACKED, max_examples=120)
@given(
    data=st.data(),
    kind=st.sampled_from(["rational", "gaussian", "mixed"]),
    n=st.integers(1, 3),
    diagonal=st.booleans(),
    move=st.sampled_from([None, 1, -1, "edge", "-edge"]),
)
def test_planted_equal_products(data, kind, n, diagonal, move):
    scalars = KINDS["gaussian" if kind == "gaussian" else "rational"]
    Z = data.draw(_matrices(scalars, n))
    W = data.draw(_diagonal(scalars, n) if diagonal else _matrices(scalars, n))
    P, P_inv = _unimodular(data, scalars, n)
    X, Y = Z @ P, P_inv @ W
    if kind == "mixed":
        X, W = _as_gaussian(X), _as_gaussian(W)
    assert _first_unequal((X, Y), (Z, W)) is None
    if move is None:
        return
    w = _width(X @ Y, Z @ W)
    value = {"edge": (2 ** (w - 1),), "-edge": (-(2 ** (w - 1)),)}.get(move, move)
    ops = [X, Y, Z, W]
    which = data.draw(st.integers(0, 3))
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    t = data.draw(st.integers(0, ops[which][i, j].degree + 1))
    ops[which] = _moved(ops[which], i, j, t, value)
    left, right = ops[:2], ops[2:]
    assert _first_unequal(left, right) == _reference(left, right)


@PACKED
@given(
    data=st.data(),
    kind=st.sampled_from(sorted(KINDS)),
    n=st.integers(1, 3),
    moved=st.booleans(),
)
def test_F_route_against_one(data, kind, n, moved):
    """The F route of verify_smith: (E D) F, E D formed by @, against A."""
    E, D, F = (data.draw(_matrices(KINDS[kind], n)) for _ in range(3))
    left = (E @ D, F)
    A = left[0] @ F
    if moved:
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        A = _moved(A, i, j, data.draw(st.integers(0, A[i, j].degree + 1)), 1)
    assert _first_unequal(left, (A,)) == _reference(left, (A,))


# -- slot edges ------------------------------------------------------------

K = 20
a = 2**K - 1  # every bit set: the operands' bound is attained


def _balanced(cs, B):
    """The coefficients of the polynomial with the value of cs at 2**B
    whose every coefficient fits a signed B-bit slot."""
    out = _unpack(_pack(cs, B), B, len(cs) + 1)
    while out and not out[-1]:
        out.pop()
    return out


def _single(*entries):
    return [MatPoly([[e]]) for e in entries]


def _slot_edges():
    one = Poly.one()
    # the sign bit: a^2 has 2K bits, so the slot needs 2K + 1
    R = Poly(_balanced([a * a], 2 * K))
    yield "sign bit", _single(Poly([a]), Poly([a])), _single(R, one), 2 * K
    # the product count: the middle coefficient of (a + a x)^2 adds two products
    R = Poly(_balanced([a * a, 2 * a * a, a * a], 2 * K + 1))
    yield "product count", _single(Poly([a, a]), Poly([a, a])), _single(R, one), 2 * K + 1
    # the scales: the left side is compared times the right side's denominator 3
    R = Poly([Fraction(c, 3) for c in _balanced([3 * a * a], 2 * K + 1)])
    yield "scale", _single(Poly([a]), Poly([a])), _single(R, one), 2 * K + 1
    # |re| + |im|: (a + a i)^2 = 2 a^2 i, twice max(|re|, |im|)^2
    g = GaussianRational(a, a)
    R = Poly([GaussianRational(0, c) for c in _balanced([2 * a * a], 2 * K + 1)])
    yield "gaussian size", _single(Poly([g]), Poly([g])), _single(R, one), 2 * K + 1


@pytest.mark.parametrize(
    "case, route",
    [
        pytest.param(case, route, id=case[0] if route == "verify" else f"{case[0]} by {route}")
        for case in _slot_edges()
        for route in ("verify", "matmul", "compute_E")
    ],
)
def test_slot_edges(case, route):
    """Each case through each user of the chain kernel: the identity
    check, and the product of the left side by @ and by compute_E (with
    D = I), which must equal the Poly product of its entries.  @ and
    compute_E pack only rational factors; a Gaussian case takes Poly
    arithmetic there."""
    _, left, right, narrow = case
    P, Q = reduce(matmul, left), reduce(matmul, right)
    assert P != Q and P[0, 0].eval(2**narrow) == Q[0, 0].eval(2**narrow)
    if route == "verify":
        assert _first_unequal(left, right) == (1, 1)
        return
    want = left[0][0, 0] * left[1][0, 0]
    if route == "matmul":
        assert P[0, 0] == want
    else:
        assert compute_E(*left, MatPoly.identity(1))[0, 0] == want
