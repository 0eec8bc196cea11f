import pytest

from conftest import random_matrix
from smithpoly.errors import NotRegular, TooLarge
from smithpoly.field import GaussianRational
from smithpoly.matpoly import MatPoly, mat_det
from smithpoly.oracle import elementary_smith, minors_gcd_smith
from smithpoly.poly import Poly
from smithpoly.prng import SplitMix64

X = Poly.x()


def test_minors_jordan_block():
    A = MatPoly([[X, Poly.one()], [Poly.zero(), X]])
    assert minors_gcd_smith(A) == MatPoly.diag([Poly.one(), X**2])


def test_minors_divisible_diagonal_fixed_point():
    D = MatPoly.diag([X, X**2 * (X - 1)])
    assert minors_gcd_smith(D) == D


def test_minors_coprime_diagonal():
    A = MatPoly.diag([X - 1, X])
    assert minors_gcd_smith(A) == MatPoly.diag([Poly.one(), X * (X - 1)])


def test_minors_guards():
    with pytest.raises(TooLarge):
        minors_gcd_smith(MatPoly.identity(6))
    with pytest.raises(NotRegular):
        minors_gcd_smith(MatPoly([[X, X], [X, X]]))


def test_elementary_identity():
    U, D, V = elementary_smith(MatPoly.identity(3))
    assert D == MatPoly.identity(3)
    assert (U @ MatPoly.identity(3) @ V) == D


def test_elementary_sorts_by_divisibility():
    A = MatPoly.diag([X**2, X])
    U, D, V = elementary_smith(A)
    assert D == MatPoly.diag([X, X**2])
    assert (U @ A @ V) == D
    assert mat_det(U).degree == 0 and mat_det(V).degree == 0


def _check_elementary(A):
    """U A V = D with U and V of constant determinant, and D the
    determinantal-divisor diagonal."""
    U, D, V = elementary_smith(A)
    assert (U @ A @ V) == D
    assert mat_det(U).degree == 0 and mat_det(V).degree == 0
    assert D == minors_gcd_smith(A)
    return D


def test_elementary_indivisible_entry_step():
    """In diag(l, l+1) neither entry divides the other, so the Smith form
    diag(1, l^2+l) is reached only by adding the row of an entry the pivot
    does not divide to the pivot row."""
    assert _check_elementary(MatPoly.diag([X, X + 1])) == MatPoly.diag([Poly.one(), X**2 + X])


def test_elementary_gaussian_entries():
    """Q(i) entries: the pivot rule ranks them by the height of both parts."""
    i = GaussianRational(0, 1)
    D = _check_elementary(MatPoly([[X - i, 2], [i, X + 1]]))
    assert D == MatPoly.diag([Poly.one(), X**2 + (1 - i) * X - 3 * i])


def test_oracles_agree_random():
    """Both oracles, nothing shared, same diagonal on random inputs."""
    rng = SplitMix64(151)
    checked = 0
    while checked < 100:
        n = 3
        A = random_matrix(rng, n, 2)
        if mat_det(A).is_zero():
            continue
        checked += 1
        D1 = minors_gcd_smith(A)
        U, D2, V = elementary_smith(A)
        assert D1 == D2
        assert (U @ A @ V) == D2
        diag = [D2[i, i] for i in range(n)]
        for i in range(1, n):
            assert diag[i].divmod(diag[i - 1])[1].is_zero()
