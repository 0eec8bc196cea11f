import pytest

from conftest import random_matrix, random_poly
from corpus import instance
from smithpoly.errors import DegreeTooHigh, NotMonic, NotSquare
from smithpoly.matpoly import (
    MatPoly,
    expand_in_p,
    lambda_iso,
    mat_det,
)
from smithpoly.matpoly import _det_bareiss, _det_interp
from smithpoly.poly import Poly
from smithpoly.prng import SplitMix64

X = Poly.x()


def test_det_examples():
    assert mat_det(MatPoly.identity(3)).is_one()
    tri = MatPoly([[X, Poly.one()], [Poly.zero(), X]])
    assert mat_det(tri) == X**2
    with pytest.raises(NotSquare):
        mat_det(MatPoly.zeros(2, 3))


@pytest.mark.parametrize("perm", ["none", "revcols", "randrows"])
def test_det_family_one_diagonal_product(perm):
    A = instance(1, 4, perm) if perm != "randrows" else None
    if A is None:
        from smithpoly import FamilySpec, gen_test_matrix

        A = gen_test_matrix(FamilySpec(family=1, param=4, seed=5, permutation=perm))
    det = mat_det(A)
    expected = X**6 * (X - 1) ** 4
    assert det == expected or det == -expected


def test_det_multiplicative_random():
    rng = SplitMix64(83)
    for _ in range(40):
        n = 2 + rng.below(3)
        A = random_matrix(rng, n, rng.below(3))
        B = random_matrix(rng, n, rng.below(3))
        assert mat_det(A @ B) == mat_det(A) * mat_det(B)


def test_det_bareiss_interp_agree():
    rng = SplitMix64(89)
    for _ in range(25):
        n = 2 + rng.below(4)
        A = random_matrix(rng, n, rng.below(4))
        assert _det_bareiss(A) == _det_interp(A)


def test_unimodular_examples():
    shear = MatPoly([[Poly.one(), X], [Poly.zero(), Poly.one()]])
    assert mat_det(shear).degree == 0
    assert mat_det(MatPoly.diag([X, Poly.one()])).degree != 0


def test_family_sandwich_factors_unimodular():
    from smithpoly.families import _unit_lower, _unit_upper

    rng = SplitMix64(97)
    for n in (3, 5):
        L = _unit_lower(n, rng)
        Z = _unit_upper(n, rng)
        assert mat_det(L @ Z).is_one()


def test_expand_in_p_examples():
    A = MatPoly([[X, Poly.one()], [Poly([3]), X + 1]])
    exp = expand_in_p(A, X**2 + 1)
    assert len(exp.blocks) == 1 and exp.blocks[0] == A

    scalar = MatPoly([[X**2]])
    exp = expand_in_p(scalar, X)
    assert [b[0, 0] for b in exp.blocks] == [Poly.zero(), Poly.zero(), Poly.one()]

    entry = MatPoly([[X**2 + X + 1]])
    exp = expand_in_p(entry, X - 1)
    assert [b[0, 0] for b in exp.blocks] == [Poly([3]), Poly([3]), Poly.one()]

    with pytest.raises(NotMonic):
        expand_in_p(A, 2 * X)


def test_expand_roundtrip_random():
    rng = SplitMix64(101)
    primes = [X, X - 1, Poly([1, 0, 1]), Poly([1, 1, 1]), Poly([1, 0, 1, 1, 1])]
    for _ in range(30):
        A = random_matrix(rng, 2 + rng.below(2), rng.below(6))
        p = primes[rng.below(len(primes))]
        exp = expand_in_p(A, p)
        rows = [
            lambda_iso([blk.entries[r] for blk in exp.blocks], p)
            for r in range(A.rows)
        ]
        assert MatPoly(rows) == A
        s = p.degree
        for blk in exp.blocks:
            assert blk.max_degree() < s


def test_lambda_iso_examples():
    assert lambda_iso([[Poly([5])]], X) == [Poly([5])]
    assert lambda_iso([[Poly([1])], [Poly([2])]], X) == [Poly([1, 2])]
    p = X**2 + 1
    assert lambda_iso([[X], [Poly.one()]], p) == [X + p]
    with pytest.raises(DegreeTooHigh):
        lambda_iso([[X**2]], p)


def test_lambda_iso_roundtrip_random():
    rng = SplitMix64(103)
    for p in (X, Poly([1, 0, 1]), Poly([3, 2, 0, 1])):
        s = p.degree
        for _ in range(30):
            k = 1 + rng.below(4)
            n = 1 + rng.below(3)
            blocks = [
                [random_poly(rng, s - 1) for _ in range(n)] for _ in range(k)
            ]
            vec = lambda_iso(blocks, p)
            # expand_in_p inverts lambda_iso up to trailing zero digits
            column = MatPoly.from_columns([vec])
            back = [blk.column(0) for blk in expand_in_p(column, p).blocks]
            back += [[Poly.zero()] * n] * (k - len(back))
            assert back == blocks
            assert lambda_iso(back, p) == vec


def test_matmul_and_permutations():
    rng = SplitMix64(107)
    A = random_matrix(rng, 3, 2)
    assert A @ MatPoly.identity(3) == A
    rev = A.permute_cols([2, 1, 0])
    assert rev.column(0) == A.column(2)
    swapped = A.permute_rows([1, 0, 2])
    assert swapped.entries[0] == A.entries[1]
