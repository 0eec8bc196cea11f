from fractions import Fraction
from itertools import permutations

import pytest

from conftest import digits_in_p, random_matrix, random_poly
from corpus import instance, pipeline
from smithpoly import matpoly
from smithpoly.errors import (
    DegreeTooHigh,
    EmptyInput,
    NotMonic,
    NotSquare,
    ShapeMismatch,
    SmithError,
)
from smithpoly.field import GaussianRational
from smithpoly.localsmith import _ResidueLane
from smithpoly.matpoly import MatPoly, lambda_iso, mat_det
from smithpoly.poly import Poly
from smithpoly.prng import SplitMix64

X = Poly.x()


def test_det_examples():
    assert mat_det(MatPoly.identity(3)).is_one()
    tri = MatPoly([[X, Poly.one()], [Poly.zero(), X]])
    assert mat_det(tri) == X**2
    with pytest.raises(NotSquare):
        mat_det(MatPoly([[0, 0, 0], [0, 0, 0]]))


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


def _leibniz_det(A):
    """Permutation-sum determinant, independent of mat_det."""
    n = A.rows
    total = Poly.zero()
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = Poly.const(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * A[i, j]
        total = total + term
    return total


def _random_coeff(rng, kind):
    a = rng.randint(-5, 5)
    if kind == "int":
        return a
    if kind == "fraction":
        return Fraction(a, 1 + rng.below(6))
    return GaussianRational(Fraction(a, 1 + rng.below(3)), rng.randint(-3, 3))


def _uneven_matrices(rng, kind, n):
    """Entry degrees that differ, so min(sum of row degrees, sum of column
    degrees) falls below n * max_degree: one row of degree 4 and the rest
    constant, an upper-triangular matrix of mixed degrees, and a random
    matrix with a zero row and with a zero column."""

    def entry(deg):
        return Poly([_random_coeff(rng, kind) for _ in range(deg + 1)])

    tall = rng.below(n)
    yield [[entry(4 if i == tall else 0) for _ in range(n)] for i in range(n)]
    yield [[entry(rng.below(4)) if j >= i else Poly.zero() for j in range(n)] for i in range(n)]
    full = [[entry(rng.below(4)) for _ in range(n)] for _ in range(n)]
    k = rng.below(n)
    yield [[Poly.zero() if i == k else e for e in row] for i, row in enumerate(full)]
    yield [[Poly.zero() if j == k else e for j, e in enumerate(row)] for row in full]


# determinants that come near the packed route's slot bound: a coefficient
# at or past half of 2**(B-1), negative coefficients in the lowest and the
# top slot, and deg det = min(row-degree sum, column-degree sum)
_SLOT_EDGE = [
    [[[-1, 2], [0, -3]], [[3], [2, -3]]],  # det -2 + 16 x - 6 x^2, B = 6
    [[[0, 3], [-2, -3]], [[-3, -1], [-2]]],  # det -6 - 17 x - 3 x^2, B = 6
    [[[-3], [2], [0, -1]], [[-1, 1], [-3], [1]], [[-2], [-1], [0, 3]]],  # -7 + 38 x - 5 x^2
]


def _long_cases(rng, kind):
    """The slot-edge matrices (each row over its own denominator for
    "fraction"), for n = 2..4 one whose coefficients carry a 600-bit factor,
    and two revcols E of the corpus, whose packed minors grow long."""
    c = {"int": 1, "fraction": Fraction(1, 6), "gaussian": GaussianRational(0, 1)}[kind]
    for rows in _SLOT_EDGE:
        yield MatPoly([[Poly(cs).scale(s) for cs in row] for s, row in zip((1, c, c * c), rows)])
    for n in range(2, 5):
        yield MatPoly(
            [
                [Poly([_random_coeff(rng, kind) * 2**600 + rng.randint(-9, 9) for _ in range(2)])
                 for _ in range(n)]
                for _ in range(n)
            ]
        )
    if kind != "gaussian":
        yield pipeline(6, 4, "revcols").E
        yield pipeline(4, 5, "revcols").E


@pytest.mark.parametrize("kind", ["int", "fraction", "gaussian"])
def test_det_matches_leibniz_random(kind):
    rng = SplitMix64(89)
    for n in range(1, 5):
        for deg in range(4):
            A = MatPoly(
                [
                    [
                        Poly([_random_coeff(rng, kind) for _ in range(deg + 1)])
                        for _ in range(n)
                    ]
                    for _ in range(n)
                ]
            )
            assert mat_det(A) == _leibniz_det(A), (n, deg)
            if n > 1:
                rows = list(A.entries)
                rows[-1] = rows[0]
                assert mat_det(MatPoly(rows)).is_zero(), (n, deg)
        for case, rows in enumerate(_uneven_matrices(rng, kind, n)):
            A = MatPoly(rows)
            assert mat_det(A) == _leibniz_det(A), (n, case)
    assert mat_det(MatPoly.diag([0, 0, 0])).is_zero()
    for case, A in enumerate(_long_cases(SplitMix64(90), kind)):
        assert mat_det(A) == _leibniz_det(A), case


def test_packed_det_refuses_a_truncated_read():
    """Slots that do not pack back to the Bareiss value are an internal
    error, never a wrong polynomial: here one slot too few is read.  With
    its first row times i, det is -2i + 16i x - 6i x^2, so only the
    imaginary parts show the lost top slot."""
    rows = _SLOT_EDGE[0]
    assert matpoly._det_packed(rows, 2, 1) == [-2, 16, -6]
    with pytest.raises(SmithError, match="outgrew"):
        matpoly._det_packed(rows, 1, 1)
    one, i = GaussianRational(1), GaussianRational(0, 1)
    rows = [[[c * s for c in cs] for cs in row] for s, row in zip((i, one), rows)]
    assert matpoly._det_packed(rows, 2, one) == [-2 * i, 16 * i, -6 * i]
    with pytest.raises(SmithError, match="outgrew"):
        matpoly._det_packed(rows, 1, one)


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


def test_plane_digits_examples():
    """Digits of integer matrices, as grids of Poly: the digits past the
    last are zero."""
    A = MatPoly([[X, Poly.one()], [Poly([3]), X + 1]])
    zero = [[Poly.zero()] * 2] * 2
    assert digits_in_p(A, X**2 + 1, 2) == [[list(row) for row in A.entries], zero]

    digits = digits_in_p(MatPoly([[X**2]]), X, 4)
    assert [d[0][0] for d in digits] == [Poly.zero(), Poly.zero(), Poly.one(), Poly.zero()]

    digits = digits_in_p(MatPoly([[X**2 + X + 1]]), X - 1)
    assert [d[0][0] for d in digits] == [Poly([3]), Poly([3]), Poly.one()]

    with pytest.raises(NotMonic):
        _ResidueLane(A, 2 * X, 1)


def test_plane_digits_roundtrip_random():
    rng = SplitMix64(101)
    primes = [X, X - 1, Poly([1, 0, 1]), Poly([1, 1, 1]), Poly([1, 0, 1, 1, 1])]
    for _ in range(30):
        A = random_matrix(rng, 2 + rng.below(2), rng.below(6))
        p = primes[rng.below(len(primes))]
        digits = digits_in_p(A, p)
        rows = [lambda_iso([d[r] for d in digits], p) for r in range(A.rows)]
        assert MatPoly(rows) == A
        s = p.degree
        for d in digits:
            assert all(e.degree < s for row in d for e in row)


def test_lambda_iso_examples():
    assert lambda_iso([[Poly([5])]], X) == [Poly([5])]
    assert lambda_iso([[Poly([1])], [Poly([2])]], X) == [Poly([1, 2])]
    p = X**2 + 1
    assert lambda_iso([[X], [Poly.one()]], p) == [X + p]
    with pytest.raises(DegreeTooHigh):
        lambda_iso([[X**2]], p)


def test_lambda_iso_refuses_no_blocks():
    """No digit block gives a typed error, not a raw IndexError."""
    with pytest.raises(EmptyInput, match="digit block"):
        lambda_iso([], X**2 + 1)


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
            # the p-adic expansion inverts lambda_iso
            column = MatPoly.from_columns([vec])
            back = [[row[0] for row in d] for d in digits_in_p(column, p, k)]
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


def test_gaussian_product_builds_no_integer_chain(monkeypatch):
    """A Gaussian factor sends @ to Poly arithmetic before any scaled
    chain is built; rational factors still take the chain."""
    calls = []
    real = matpoly._integer_chain

    def spy(factors):
        calls.append(factors)
        return real(factors)

    monkeypatch.setattr(matpoly, "_integer_chain", spy)
    i = GaussianRational(0, 1)
    A = MatPoly([[Poly([i, 1]), X], [Poly.one(), Poly([2, Fraction(1, 3)])]])
    B = MatPoly([[X, Poly.one()], [Poly([Fraction(1, 2)]), X + 1]])
    for P, Q in ((A, B), (B, A)):
        C = P @ Q
        assert C[0, 0] == P[0, 0] * Q[0, 0] + P[0, 1] * Q[1, 0]
    assert calls == []
    half = Fraction(1, 2)
    assert B @ B == MatPoly([[X**2 + half, 2 * X + 1], [X + half, (X + 1) ** 2 + half]])
    assert len(calls) == 1


@pytest.mark.parametrize(
    "entries, error",
    [
        ([], EmptyInput),
        ([[]], EmptyInput),
        ([[], []], EmptyInput),
        ([[1], [1, 2]], ShapeMismatch),
        ([[1, 2], []], ShapeMismatch),
    ],
)
def test_empty_and_ragged_matrices_are_typed_errors(entries, error):
    """No empty or ragged MatPoly exists, so mat_det, invert_unimodular and
    smith_with_multipliers never see one: the constructor refuses it."""
    with pytest.raises(error):
        MatPoly(entries)


@pytest.mark.parametrize("build", [MatPoly.identity, MatPoly.diag, MatPoly.from_columns])
def test_empty_constructors_are_typed_errors(build):
    with pytest.raises(EmptyInput):
        build(0 if build is MatPoly.identity else [])
    if build is MatPoly.from_columns:
        with pytest.raises(ShapeMismatch):
            build([[1, 2], [3]])
