from fractions import Fraction

import pytest

from corpus import factored, instance, locals_rpr, pipeline
from smithpoly.errors import (
    DivisibilityFailure,
    FactorSetMismatch,
    NotRegular,
    NotUnimodular,
)
from smithpoly.globalsmith import (
    CombinedMultiplier,
    combine_local,
    compute_E,
    factor_determinant,
    invert_unimodular,
    smith_diagonal,
    smith_with_multipliers,
    triangularize,
)
from smithpoly.localsmith import local_smith, local_smith_over_K
from smithpoly.matpoly import MatPoly, mat_det
from smithpoly.oracle import minors_gcd_smith
from smithpoly.poly import Poly, multi_xgcd
from smithpoly.prng import SplitMix64
from smithpoly.verify import verify_smith

X = Poly.x()


# -- factor_determinant ------------------------------------------------------


def test_factor_determinant_family_one():
    fac = factored(1, 4, "none")
    assert dict(fac.factors) == {X: 6, X - 1: 4}
    assert fac.unit in (Fraction(1), Fraction(-1))


def test_factor_determinant_not_regular():
    A = MatPoly([[X, X], [X, X]])
    with pytest.raises(NotRegular):
        factor_determinant(A)


def test_factor_determinant_unimodular():
    A = MatPoly([[Poly.one(), X], [Poly.zero(), Poly([3])]])
    fac = factor_determinant(A)
    assert fac.factors == () and fac.unit == 3


# -- combine_local -----------------------------------------------------------


def test_combine_single_factor_is_local_v():
    key = (3, 2, "none")
    A = instance(*key)
    locs = list(locals_rpr(*key))
    comb = combine_local(A, locs, factored=factored(*key))
    assert comb.mode == "single"
    assert comb.matrix == locs[0].V


def test_combine_two_linear_factors_formula():
    """For primes l and l-1 with top exponents 1, the whole-matrix splice
    is -(l-1)*V1 + l*V2 (Bezout coefficients of [l-1, l])."""
    A = MatPoly.diag([X, X - 1])
    l1 = local_smith(A, X, 1)
    l2 = local_smith(A, X - 1, 1)
    comb = combine_local(A, [l1, l2], "whole")
    gs, g = multi_xgcd([X - 1, X], [1, 1])
    assert g.is_one() and gs == [Poly([-1]), Poly([1])]
    expected = l1.V.scale(gs[0] * (X - 1)) + l2.V.scale(gs[1] * X)
    assert comb.matrix == expected
    det = mat_det(comb.matrix)
    assert not (det % X).is_zero()
    assert not (det % (X - 1)).is_zero()


@pytest.mark.parametrize("mode", ["whole", "per-column"])
def test_combine_properties_on_corpus_instance(mode):
    key = (1, 4, "revcols")
    A = instance(*key)
    locs = list(locals_rpr(*key))
    comb = combine_local(A, locs, mode, factored=factored(*key))
    assert comb.mode == mode
    # both defining properties, re-checked here independently
    AB = A @ comb.matrix
    n = A.rows
    for i in range(n):
        d = Poly.one()
        for loc in locs:
            d = d * loc.p ** loc.alphas[i]
        for r in range(n):
            assert AB[r, i].divmod(d)[1].is_zero()
    det = mat_det(comb.matrix)
    for loc in locs:
        assert not (det % loc.p).is_zero()


def test_combine_factor_set_mismatch():
    key = (1, 4, "none")
    A = instance(*key)
    locs = list(locals_rpr(*key))
    with pytest.raises(FactorSetMismatch):
        combine_local(A, locs[:1], factored=factored(*key))


# -- triangularize -----------------------------------------------------------


def test_triangularize_already_lower():
    # each column is already reduced modulo its diagonal entry
    B = MatPoly([[Poly.one(), Poly.zero()], [X, X + 1]])
    D = MatPoly.diag([X, X**2])
    V, B1 = triangularize(CombinedMultiplier(matrix=B, mode="whole"), D)
    assert V == MatPoly.identity(2)
    assert B1 == B


def test_triangularize_unit_column_swaps_rows():
    # last column (1; 0): the gcd must land in the last row via a reversal
    B = MatPoly([[X, Poly.one()], [Poly.one(), Poly.zero()]])
    D = MatPoly.diag([Poly.one(), X])
    V, B1 = triangularize(CombinedMultiplier(matrix=B, mode="whole"), D)
    assert B1[0, 1].is_zero() and B1[1, 1].is_one()
    assert V == MatPoly([[Poly.zero(), Poly.one()], [Poly.one(), Poly.zero()]])
    assert mat_det(V).degree == 0


def test_triangularize_column_reversal():
    # the last column (1; l) has degree below deg d_2, so reducing it
    # changes nothing and det(B1) stays a constant multiple of det(B)
    B = MatPoly([[Poly.one(), Poly.one()], [Poly.zero(), X]])
    D = MatPoly.diag([Poly.one(), X**2])
    V, B1 = triangularize(CombinedMultiplier(matrix=B, mode="whole"), D)
    assert mat_det(V).degree == 0
    # processed column (the last) is zero above the diagonal
    assert B1[0, 1].is_zero()
    q, r = mat_det(B1).divmod(mat_det(B))
    assert r.is_zero() and q.degree == 0


def test_triangularize_gives_valid_form():
    key = (5, 2, "none")
    A = instance(*key)
    locs = list(locals_rpr(*key))
    comb = combine_local(A, locs, "per-column", factored=factored(*key))
    D = smith_diagonal(locs, A.rows)
    V, B1 = triangularize(comb, D)
    assert mat_det(V).degree == 0
    n = A.rows
    for i in range(n):
        for r in range(i):
            assert B1[r, i].is_zero()
    E = compute_E(A, V, D)
    assert (A @ V) == (E @ D)
    assert mat_det(E).degree == 0


# -- compute_E / invert_unimodular -------------------------------------------


def test_triangularize_rejects_invalid_multiplier():
    """A column that vanishes modulo its diagonal entry means the input
    was not a valid combined multiplier."""
    from smithpoly.errors import SmithError

    B = MatPoly.diag([X, X])
    D = MatPoly.diag([Poly.one(), X])
    with pytest.raises(SmithError):
        triangularize(CombinedMultiplier(matrix=B, mode="whole"), D)


def test_pipeline_on_random_rational_matrices():
    """Rational coefficients end to end: verified Smith form, exact U,
    agreement with the minors oracle."""
    rng = SplitMix64(1234)
    done = 0
    while done < 5:
        A = MatPoly(
            [
                [
                    Poly([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)])
                    for _ in range(3)
                ]
                for _ in range(3)
            ]
        )
        if mat_det(A).is_zero():
            continue
        r = smith_with_multipliers(A, with_U=True)
        assert verify_smith(A, r.E, r.D, V=r.V).overall
        assert (r.U @ r.E) == MatPoly.identity(3)
        assert r.D == minors_gcd_smith(A)
        done += 1


def test_pipeline_five_by_five_degree_three():
    from conftest import random_matrix

    rng = SplitMix64(777)
    done = 0
    while done < 4:
        A = random_matrix(rng, 5, 3)
        if mat_det(A).is_zero():
            continue
        r = smith_with_multipliers(A)
        assert verify_smith(A, r.E, r.D, V=r.V).overall
        assert r.D == minors_gcd_smith(A)
        done += 1


def test_compute_E_identity_case():
    D = MatPoly.diag([X, X**2])
    assert compute_E(D, MatPoly.identity(2), D) == MatPoly.identity(2)


def test_compute_E_divisibility_failure():
    A = MatPoly.identity(2)
    D = MatPoly.diag([X, Poly.one()])
    with pytest.raises(DivisibilityFailure):
        compute_E(A, MatPoly.identity(2), D)


def test_invert_examples():
    assert invert_unimodular(MatPoly.identity(3)) == MatPoly.identity(3)
    shear = MatPoly([[Poly.one(), X], [Poly.zero(), Poly.one()]])
    inv = invert_unimodular(shear)
    assert inv == MatPoly([[Poly.one(), -X], [Poly.zero(), Poly.one()]])
    with pytest.raises(NotUnimodular):
        invert_unimodular(MatPoly.diag([X, Poly.one()]))
    with pytest.raises(NotUnimodular):
        invert_unimodular(MatPoly([[X, X], [X, X]]))


def test_invert_random_unimodular_products():
    rng = SplitMix64(139)
    from smithpoly.families import _unit_lower, _unit_upper

    for n in (2, 4):
        for _ in range(5):
            E = _unit_lower(n, rng) @ _unit_upper(n, rng)
            U = invert_unimodular(E)
            assert (U @ E) == MatPoly.identity(n)


# -- smith_with_multipliers ---------------------------------------------------


def test_unimodular_input_gives_identity_diagonal():
    A = MatPoly([[Poly.one(), X**2], [Poly.zero(), Poly([5])]])
    r = smith_with_multipliers(A, with_U=True)
    assert r.D == MatPoly.identity(2)
    assert r.V == MatPoly.identity(2)
    assert (r.U @ r.E) == MatPoly.identity(2)
    assert verify_smith(A, r.E, r.D, V=r.V).overall


def test_jordan_block_diagonal():
    A = MatPoly([[X, Poly.one()], [Poly.zero(), X]])
    r = smith_with_multipliers(A)
    assert r.D == MatPoly.diag([Poly.one(), X**2])
    assert r.D == minors_gcd_smith(A)


def test_one_by_one():
    r = smith_with_multipliers(MatPoly([[2 * X]]), with_U=True)
    assert r.D == MatPoly([[X]])
    assert (MatPoly([[2 * X]]) @ r.V) == (r.E @ r.D)
    assert (r.U @ r.E) == MatPoly.identity(1)


def test_family_two_diagonal():
    r = pipeline(2, 2, "none")
    d_last = r.diagonal()[-1]
    assert d_last == (X - 1) * (X - 2)
    assert all(d.is_one() for d in r.diagonal()[:-1])


def test_not_regular_rejected():
    with pytest.raises(NotRegular):
        smith_with_multipliers(MatPoly([[X, X], [X, X]]))


def _by_hand(A, local_fn, mode):
    """The pipeline of smith_with_multipliers, with the local algorithm
    and the splice chosen by the caller."""
    factored_ = factor_determinant(A)
    locs = [local_fn(A, p, e) for p, e in factored_.factors]
    D = smith_diagonal(locs, A.rows)
    comb = combine_local(A, locs, mode, factored=factored_)
    V = comb.matrix if comb.mode == "single" else triangularize(comb, D)[0]
    return D, V, compute_E(A, V, D)


def test_bezout_mode_override_matches_auto():
    """Either splice, triangularized, gives the V the pipeline returns."""
    key = (4, 4, "none")
    A = instance(*key)
    r_auto = pipeline(*key)
    for mode in ("whole", "per-column"):
        assert _by_hand(A, local_smith, mode) == (r_auto.D, r_auto.V, r_auto.E)


def test_all_option_combinations_agree_random():
    """The default result has the oracle diagonal and verifies, and the
    pipeline run by hand with either splice and either local algorithm
    returns the same D, V and E."""
    import itertools

    from conftest import random_matrix

    rng = SplitMix64(99991)
    done = 0
    while done < 5:
        A = random_matrix(rng, 3, 2)
        if mat_det(A).is_zero():
            continue
        done += 1
        r = smith_with_multipliers(A)
        assert r.D == minors_gcd_smith(A)
        assert verify_smith(A, r.E, r.D, V=r.V).overall
        for local_fn, mode in itertools.product(
            (local_smith, local_smith_over_K), ("whole", "per-column")
        ):
            assert _by_hand(A, local_fn, mode) == (r.D, r.V, r.E), (local_fn, mode)


def test_unimodular_sandwich_invariance_small():
    rng = SplitMix64(149)
    from smithpoly.families import _unit_lower, _unit_upper

    base = MatPoly.diag([Poly.one(), X, X**2 * (X - 1)])
    want = [Poly.one(), X, X**2 * (X - 1)]
    for _ in range(5):
        A = _unit_lower(3, rng) @ _unit_upper(3, rng) @ base
        A = A @ _unit_lower(3, rng) @ _unit_upper(3, rng)
        r = smith_with_multipliers(A)
        assert r.diagonal() == want


@pytest.mark.parametrize(
    "option", ["bezout", "triangularize_variant", "local_variant"]
)
def test_bad_option_rejected_before_any_work(option):
    """The route options are gone: smith_with_multipliers refuses them
    rather than ignoring them."""
    with pytest.raises(TypeError, match=option):
        smith_with_multipliers(instance(3, 2, "none"), **{option: "nope"})


def test_unchecked_combine_is_the_checked_one():
    """check=False skips the self-check and nothing else."""
    for key in [(1, 4, "revcols"), (4, 4, "none"), (5, 2, "none")]:
        A = instance(*key)
        locs = list(locals_rpr(*key))
        for mode in ("whole", "per-column"):
            checked = combine_local(A, locs, mode, factored=factored(*key))
            unchecked = combine_local(
                A, locs, mode, factored=factored(*key), check=False
            )
            assert unchecked == checked, (key, mode)
