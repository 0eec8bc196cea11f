import dataclasses
import itertools
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corpus import GROUND_TRUTH, LIGHT, factored, instance, locals_rpr, pipeline
from smithpoly import globalsmith, localsmith
from smithpoly.errors import (
    DivisibilityFailure,
    EmptyInput,
    FactorSetMismatch,
    NotRegular,
    NotSquare,
    NotUnimodular,
    SmithError,
)
from smithpoly.globalsmith import (
    CombinedMultiplier,
    _crt_weights,
    _primitive_columns,
    combine_local,
    compute_E,
    factor_determinant,
    invert_unimodular,
    smith_diagonal,
    smith_with_multipliers,
    triangularize,
)
from smithpoly.families import family_diagonal
from smithpoly.field import GaussianRational
from smithpoly.localsmith import LocalMultiplier, local_smith, local_smith_over_K
from smithpoly.matpoly import MatPoly, mat_det
from smithpoly.oracle import elementary_smith, minors_gcd_smith
from smithpoly.poly import Poly
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


def test_factor_determinant_not_square():
    with pytest.raises(NotSquare):
        factor_determinant(MatPoly([[X, Poly.one()]]))


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


def test_combine_rejects_no_locals_and_an_unknown_mode():
    key = (3, 2, "none")
    A = instance(*key)
    with pytest.raises(EmptyInput):
        combine_local(A, [])
    with pytest.raises(ValueError, match="unknown combine mode: 'nope'"):
        combine_local(A, list(locals_rpr(*key)), "nope")


def test_combine_two_linear_factors_formula():
    """For primes l and l-1 with top exponents 1, the whole-matrix splice
    is -(l-1)*V1 + l*V2: -(l-1) is 1 mod l and 0 mod l-1, and l the
    other way round."""
    A = MatPoly.diag([X, X - 1])
    l1 = local_smith(A, X, 1)
    l2 = local_smith(A, X - 1, 1)
    comb = combine_local(A, [l1, l2], "whole")
    w1, w2 = -(X - 1), X
    assert _crt_weights([X, X - 1], (1, 1)) == [w1, w2]
    expected = l1.V @ MatPoly.diag([w1, w1]) + l2.V @ MatPoly.diag([w2, w2])
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


def test_crt_weights_on_random_prime_powers():
    """w_j = c_j f_j is 1 mod q_j = p_j**e_j and 0 mod every other q_k,
    the weights sum to 1, and deg c_j < deg q_j."""
    rng = SplitMix64(37)
    primes = [X, X - 1, X + 2, Poly([1, 0, 1])]
    for _ in range(50):
        picked = [p for p in primes if rng.below(2)]
        if len(picked) < 2:
            picked = [X, X - 1]
        exps = [1 + rng.below(3) for _ in picked]
        qs = [p**e for p, e in zip(picked, exps)]
        ws = _crt_weights(picked, exps)
        total = Poly.zero()
        for j, (w, q) in enumerate(zip(ws, qs)):
            total = total + w
            assert (w % q).is_one()
            assert all((w % qk).is_zero() for k, qk in enumerate(qs) if k != j)
            # so w = c_j f_j, and deg c_j < deg q_j is a bound on deg w
            assert w.degree < sum(qk.degree for qk in qs)
        assert total.is_one()


def test_crt_weights_reject_repeated_prime():
    with pytest.raises(FactorSetMismatch):
        _crt_weights([X, X], (1, 2))


def test_combine_factor_set_mismatch():
    key = (1, 4, "none")
    A = instance(*key)
    locs = list(locals_rpr(*key))
    with pytest.raises(FactorSetMismatch):
        combine_local(A, locs[:1], factored=factored(*key))


def _with_column(loc, i, change):
    """loc with column i of its V replaced by change(column)."""
    cols = loc.V.columns()
    cols[i] = change(cols[i])
    return dataclasses.replace(loc, V=MatPoly.from_columns(cols))


@pytest.mark.parametrize("mode", ["whole", "per-column"])
@pytest.mark.parametrize("j", [0, 1])
def test_combine_rejects_multiplier_singular_mod_a_prime(mode, j):
    """B agrees with V_j mod p_j, so p_j times the first column of V_j makes
    B singular mod p_j while every column of A B stays divisible."""
    key = (1, 4, "none")
    A = instance(*key)
    locs = list(locals_rpr(*key))
    p = locs[j].p
    locs[j] = _with_column(locs[j], 0, lambda col: [e * p for e in col])
    with pytest.raises(SmithError, match=f"singular mod {re.escape(p.human_text())}$"):
        combine_local(A, locs, mode, factored=factored(*key))


@pytest.mark.parametrize("mode", ["whole", "per-column"])
def test_combine_rejects_column_not_divisible(mode):
    """One added to the top entry of the last column of V at l-1 adds the
    first column of A, not a multiple of (l-1)^2, to that column of A B."""
    key = (1, 4, "none")
    A = instance(*key)
    locs = list(locals_rpr(*key))
    assert locs[0].p == X - 1 and locs[0].alphas[-1] == 2
    assert not all((e % (X - 1) ** 2).is_zero() for e in A.column(0))
    n = A.rows
    locs[0] = _with_column(locs[0], n - 1, lambda col: [col[0] + 1] + col[1:])
    with pytest.raises(DivisibilityFailure, match=f"column {n} "):
        combine_local(A, locs, mode, factored=factored(*key))


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


# -- primitive integer columns of V ---------------------------------------------


def _has_primitive_integer_columns(V):
    for col in V.columns():
        cs = [c for e in col for c in e.coeffs]
        if any(c.denominator != 1 for c in cs) or gcd(*(c.numerator for c in cs)) != 1:
            return False
    return True


def _check_normal_form(key, A, r):
    assert _has_primitive_integer_columns(r.V), key
    assert r.diagonal() == family_diagonal(*key[:2]), key
    assert verify_smith(A, r.E, r.D, V=r.V).overall, key


def test_V_has_primitive_integer_columns_on_the_corpus():
    """Every corpus instance, in both column orders."""
    for key in GROUND_TRUTH:
        _check_normal_form(key, instance(*key), pipeline(*key))


@pytest.mark.parametrize("fam, par", [(1, 6), (2, 3), (4, 4), (6, 4)])
def test_V_has_primitive_integer_columns_in_random_column_orders(fam, par):
    """Three random column orders of one instance: the normal form is
    not fitted to revcols, the only order the with-U workload runs."""
    A = instance(fam, par, "none")
    rng = SplitMix64(1000 * fam + par)
    for _ in range(3):
        perm = list(range(A.cols))
        rng.shuffle(perm)
        B = A.permute_cols(perm)
        _check_normal_form((fam, par, perm), B, smith_with_multipliers(B))


@pytest.mark.parametrize("key", [(1, 4, "revcols"), (5, 2, "none"), (6, 4, "revcols")])
def test_triangularize_ignores_positive_column_scales(key):
    """Column i of the combined multiplier times c_i > 0 scales column i
    of the working matrix by c_i: every quotient stays, only each
    finished row's lead changes, so the primitive V is the same."""
    A = instance(*key)
    locs = list(locals_rpr(*key))
    assert len(locs) > 1
    D = smith_diagonal(locs, A.rows)
    comb = combine_local(A, locs, factored=factored(*key))
    rng = SplitMix64(sum(map(ord, key[2])) + key[1])
    scales = [Fraction(1 + rng.below(60), 1 + rng.below(60)) for _ in range(A.cols)]
    cols = [[e.scale(c) for e in col] for col, c in zip(comb.matrix.columns(), scales)]
    scaled = CombinedMultiplier(matrix=MatPoly.from_columns(cols), mode=comb.mode)
    assert triangularize(scaled, D)[0] == triangularize(comb, D)[0]


def test_primitive_columns_paths():
    """Already primitive: the same object.  A rational column is scaled
    by a positive constant; a Gaussian column and a zero column stay."""
    V = MatPoly([[1, X], [-3, 2 * X + 3]])
    assert _primitive_columns(V) is V
    Z = MatPoly([[0, 2], [0, 3 * X]])
    assert _primitive_columns(Z) is Z
    g = Poly([Fraction(1, 2), GaussianRational(0, 1)])
    G = MatPoly([[g, Fraction(-2, 3), 0, -4], [0, 4 * X, 0, 6 * X]])
    assert _primitive_columns(G) == MatPoly([[g, -1, 0, -2], [0, 6 * X, 0, 3 * X]])


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
    # d = 3 with N_1 = N_2 = 0 before the nonzero N_3: the lift must wait
    # for three zero blocks in a row
    cubic = MatPoly([[Poly.one(), X**3], [Poly.zero(), Poly.one()]])
    assert invert_unimodular(cubic) == MatPoly(
        [[Poly.one(), -(X**3)], [Poly.zero(), Poly.one()]]
    )
    # d = 0
    assert invert_unimodular(MatPoly([[2, 1], [1, 1]])) == MatPoly([[1, -1], [-1, 2]])
    with pytest.raises(NotUnimodular, match="singular"):
        invert_unimodular(MatPoly.diag([X, Poly.one()]))
    with pytest.raises(NotUnimodular, match="singular"):
        invert_unimodular(MatPoly([[X, X], [X, X]]))
    # E(0) invertible, but 1/(1+x) is no polynomial: stopped at the degree cap
    with pytest.raises(NotUnimodular, match="not a polynomial"):
        invert_unimodular(MatPoly.diag([1 + X, Poly.one()]))
    # 1/(2+x) = 1/2 - x/4 + ...: N_1 = -1/2 is no integer
    with pytest.raises(NotUnimodular, match="non-integral"):
        invert_unimodular(MatPoly([[2 + X]]))
    with pytest.raises(NotSquare):
        invert_unimodular(MatPoly([[Poly.one(), X]]))


def _adjugate_over_det(E: MatPoly) -> MatPoly:
    """E^-1 as adj(E) / det(E), every cofactor from mat_det of a minor."""
    n = E.rows
    det = mat_det(E)
    assert det.is_constant() and not det.is_zero()

    def cofactor(i, j):
        if n == 1:
            return Poly.one()
        minor = MatPoly(
            [[E[r, c] for c in range(n) if c != j] for r in range(n) if r != i]
        )
        return mat_det(minor).scale((-1) ** (i + j))

    return MatPoly(
        [[cofactor(j, i).scale(1 / det.coeffs[0]) for j in range(n)] for i in range(n)]
    )


def test_invert_random_unimodular_products():
    """Permuted, row-scaled products of unit lower and unit upper factors:
    U is adj(E) / det(E) and U E = I."""
    rng = SplitMix64(139)
    from smithpoly.families import _unit_lower, _unit_upper

    for n in (1, 2, 3, 4):
        for _ in range(4):
            E = _unit_lower(n, rng) @ _unit_upper(n, rng)
            perm = list(range(n))
            rng.shuffle(perm)
            scales = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
            E = MatPoly(
                [[e.scale(c) for e in E.entries[p]] for p, c in zip(perm, scales)]
            )
            U = invert_unimodular(E)
            assert U == _adjugate_over_det(E)
            assert (U @ E) == MatPoly.identity(n)


@st.composite
def _unimodular(draw):
    """E = S L(x) (Z + x J) U(x): S rational row scales, L and U unit
    lower and upper with entries of degree <= 1, Z a nonsingular diagonal
    constant and J strictly upper.  det E = det S det Z, and E^-1 holds
    (Z^-1 J)^k Z^-1 at x^k, so its denominators can exceed those of
    E(0)^-1 and the lift rescales."""
    from smithpoly.field import GaussianRational as G

    n = draw(st.integers(1, 5))
    gaussian = draw(st.booleans()) and n <= 4
    small = st.integers(-3, 3)
    coeff = st.builds(G, small, small) if gaussian else small
    pivot = coeff.filter(bool) if gaussian else st.sampled_from([1, -1, 2, -2, 3, 4, 6])

    def unit(below):
        return MatPoly(
            [
                [Poly([draw(coeff), draw(coeff)]) if below(i, j) else Poly([int(i == j)])
                 for j in range(n)]
                for i in range(n)
            ]
        )

    middle = MatPoly(
        [
            [Poly([draw(pivot)]) if i == j else Poly([0, draw(coeff)]) if j > i else Poly.zero()
             for j in range(n)]
            for i in range(n)
        ]
    )
    E = unit(lambda i, j: j < i) @ middle @ unit(lambda i, j: j > i)
    scales = [Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9))) for _ in range(n)]
    return MatPoly([[e.scale(c) for e in row] for row, c in zip(E.entries, scales)])


@settings(max_examples=60)
@given(E=_unimodular())
def test_invert_matches_adjugate_over_det(E):
    U = invert_unimodular(E)
    assert U == _adjugate_over_det(E)
    assert (U @ E) == MatPoly.identity(E.rows)


def _gcd_calls(monkeypatch):
    """(first argument, result) of each two-argument gcd invert_unimodular
    takes: gcd(c, content Y) sets delta, then gcd(delta, content T) gives
    h at each step."""
    calls = []

    def recording(*args):
        out = gcd(*args)
        if len(args) == 2:
            calls.append((args[0], out))
        return out

    monkeypatch.setattr(globalsmith, "gcd", recording)
    return calls


def _rescale_factors(calls):
    """f = delta / h of every step whose h is below delta."""
    return [a // h for a, h in calls[1:] if h != a]


def test_invert_rescales_to_the_smallest_denominator(monkeypatch):
    """E = q I - (x + x**2) N, N the 3x3 shift and q = 2**61 - 1 prime:
    E^-1 = sum_k ((x + x**2) N / q)**k / q has denominators q, q**2 and
    q**3, but E(0)^-1 only q, so the lift starts at delta = q and rescales
    by q at k = 1 and at k = 2.  At k = 2 it reads the rescaled M_0 = q I,
    so the slots must have widened by the rescale."""
    calls = _gcd_calls(monkeypatch)
    q = 2**61 - 1
    N = MatPoly([[int(j == i + 1) for j in range(3)] for i in range(3)])
    W = MatPoly([[e * (X + X**2) for e in row] for row in N.entries])
    E = MatPoly.diag([Poly([q])] * 3) - W
    W = MatPoly([[e.scale(Fraction(1, q)) for e in row] for row in W.entries])
    want = MatPoly.identity(3) + W + W @ W
    U = invert_unimodular(E)
    assert U == MatPoly([[e.scale(Fraction(1, q)) for e in row] for row in want.entries])
    assert (U @ E) == MatPoly.identity(3)
    assert _rescale_factors(calls) == [q, q]


def test_invert_gaussian_rescales(monkeypatch):
    """E = (2 + i) I + x N, N the 2x2 shift: E(0)^-1 = (2 - i) / 5 I, but
    E^-1 has -x N / (2 + i)**2 = -x N (3 - 4i) / 25, so the lift rescales
    by 5 to the rational-integer denominator 25 = |det E|**2."""
    from smithpoly.field import GaussianRational as G

    calls = _gcd_calls(monkeypatch)
    a = G(2, 1)
    E = MatPoly([[Poly([a]), X], [Poly.zero(), Poly([a])]])
    U = invert_unimodular(E)
    assert U == MatPoly([[Poly([1 / a]), Poly([0, -1 / (a * a)])], [Poly.zero(), Poly([1 / a])]])
    assert (U @ E) == MatPoly.identity(2)
    assert _rescale_factors(calls) == [5]


def test_invert_rejects_a_late_inexact_quotient(monkeypatch):
    """E = diag(2 + x**2, 2) is not unimodular.  c = 4 but delta = 2, so
    the first inexact quotient, at k = 2, rescales to sigma = 4, which
    divides c; the next, at k = 4, would need sigma = 8."""
    calls = _gcd_calls(monkeypatch)
    with pytest.raises(NotUnimodular, match="non-integral"):
        invert_unimodular(MatPoly.diag([2 + X**2, Poly([2])]))
    assert _rescale_factors(calls) == [2, 2]


def test_invert_rational_rows_with_full_constant_term():
    """Rows with different denominators and a non-triangular E(0)."""
    F = Fraction
    C = MatPoly([[F(1, 2), F(1, 3)], [F(1, 5), F(-2, 7)]])
    E = C @ MatPoly([[Poly.one(), X**2 * F(1, 3)], [Poly.zero(), Poly.one()]])
    E = E @ MatPoly([[Poly.one(), Poly.zero()], [X - F(5, 4), Poly.one()]])
    U = invert_unimodular(E)
    assert (U @ E) == MatPoly.identity(2)
    assert (E @ U) == MatPoly.identity(2)
    assert all(type(c) is Fraction for row in U.entries for e in row for c in e.coeffs)


def test_invert_with_long_adjugate_entries():
    """E(0) = L(0) C with C a product of constant shears by 200-bit and
    larger integers, so E(0)^-1, and with it adj(E'(0)), has entries of
    400 bits; one row has denominators."""
    a, b, c = 2**200 + 3, 3**130 + 1, -(2**201) + 5
    C = MatPoly([[1, a, 0], [0, 1, 0], [0, 0, 1]]) @ MatPoly([[1, 0, 0], [b, 1, 0], [0, c, 1]])
    L = MatPoly(
        [
            [Poly.one(), Poly.zero(), Poly.zero()],
            [X - 2, Poly.one(), Poly.zero()],
            [X**2 + 3, 4 * X - 1, Poly.one()],
        ]
    )
    E = L @ C @ MatPoly([[1, X, 0], [0, 1, X**2 - X], [0, 0, 1]])
    E = MatPoly(
        [[e.scale(Fraction(2, 3)) for e in row] if i == 1 else row for i, row in enumerate(E.entries)]
    )
    U = invert_unimodular(E)
    assert (U @ E) == MatPoly.identity(3)
    assert (E @ U) == MatPoly.identity(3)
    assert U == _adjugate_over_det(E)
    U0 = [abs(e.coeffs[0]) for row in U.entries for e in row if e]
    assert max(v.numerator.bit_length() for v in U0) >= 400


def _spy_slots(monkeypatch, on_pack=None, on_unpack=None):
    """Wrap the pack and unpack that invert_unimodular takes from
    matpoly._slots: on_pack(B) sees each pack, on_unpack(out, B) each
    unpacked row."""
    slots = globalsmith._slots

    def recording(one):
        size, pack, unpack = slots(one)

        def spy_pack(values, B):
            if on_pack:
                on_pack(B)
            return pack(values, B)

        def spy_unpack(v, B, count):
            out = unpack(v, B, count)
            if on_unpack:
                on_unpack(out, B)
            return out

        return size, spy_pack, spy_unpack

    monkeypatch.setattr(globalsmith, "_slots", recording)


def _slot_widths(monkeypatch):
    """The slot widths invert_unimodular packs its rows with, in order."""
    widths = []

    def seen(B):
        if not widths or widths[-1] != B:
            widths.append(B)

    _spy_slots(monkeypatch, on_pack=seen)
    return widths


def test_invert_widens_slots_for_growing_coefficients(monkeypatch):
    """E(0) = I, so N_0 = I has 1-bit entries, but N_1 and N_2 carry a
    and a^2: the slots widen twice and U is still exact."""
    widths = _slot_widths(monkeypatch)
    a = 2**70 + 1
    shears = MatPoly([[1, 0, 0], [a * X, 1, 0], [0, 0, 1]]) @ MatPoly(
        [[1, a * X, 0], [0, 1, 0], [0, 0, 1]]
    )
    E = shears @ MatPoly([[1, 0, 0], [0, 1, X], [0, 0, 1]])
    U = invert_unimodular(E)
    assert (U @ E) == MatPoly.identity(3)
    assert U == _adjugate_over_det(E)
    assert len(widths) == 3 and widths == sorted(widths)


def test_invert_slot_bound_counts_terms():
    """E = I + x M with M = a J, J the strictly upper triangular ones:
    N_k = (-M)^k, and each slot of M N_{k-1} adds up to five products of
    one sign, a few bits more than the largest single product."""
    n, a = 6, 2**64 - 1
    M = MatPoly([[a * X if j > i else Poly.zero() for j in range(n)] for i in range(n)])
    E = MatPoly.identity(n) + M
    want, term = MatPoly.identity(n), MatPoly.identity(n)
    for _ in range(n - 1):
        term = -(term @ M)
        want = want + term
    U = invert_unimodular(E)
    assert U == want
    assert (U @ E) == MatPoly.identity(n)


@pytest.mark.parametrize("kind", ["rational", "gaussian"])
def test_invert_slot_sums_near_the_bound(kind, monkeypatch):
    """E = e P (I + x a M), M the 0/1 pattern 0 -> 1, 2, 3 -> 4, P =
    diag(p_0, ..., p_4) with e and the p_i pairwise coprime and just
    below 2**64.  Content reduction takes e**4 out of adj E(0), so the
    lift runs with delta = e p_0 ... p_4 and X = adj P, whose entries
    (products of four p_j) keep their full 256 bits; N_1 = -a M adj P.
    Slot (0, 4) of X S at k = 2 adds t = 3 products of one sign, each of
    full bit length.  Rational a = 2**64 - 1 fills 3/4 of the slot, so
    the sums overflow without the sign bit.  Gaussian a = (1 + i) a
    doubles each product's imaginary part, 3/8 of a slot four times
    wider, so they overflow without the Gaussian factor 4."""
    from smithpoly.field import GaussianRational as G

    e, a = 2**64 - 1, 2**64 - 1
    ps = [2**64 - 59, 2**64 - 83, 2**64 - 95, 2**64 - 179, 2**64 - 189]
    assert all(gcd(u, v) == 1 for u, v in itertools.combinations(ps + [e], 2))
    if kind == "gaussian":
        a = G(1, 1) * a
    edges = {(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)}
    M = [[int((i, j) in edges) for j in range(5)] for i in range(5)]
    E = MatPoly([[Poly([e * p * (i == j), e * p * a * m]) for j, m in enumerate(row)]
                 for i, (p, row) in enumerate(zip(ps, M))])
    fill = []

    def seen(out, B):
        # each part of a Gaussian slot apart
        parts = [p for s in out for p in ((s.re, s.im) if kind == "gaussian" else (s,))]
        fill.append(max(map(abs, parts)) / 2 ** (B - 1))

    _spy_slots(monkeypatch, on_unpack=seen)
    U = invert_unimodular(E)
    xaM = MatPoly([[Poly([0, a * m]) for m in row] for row in M])
    want = MatPoly.identity(5) - xaM + xaM @ xaM
    assert U == want @ MatPoly.diag([Poly([Fraction(1, e * p)]) for p in ps])
    assert (U @ E) == MatPoly.identity(5)
    assert max(fill) > (0.7 if kind == "rational" else 0.35)


def test_invert_widens_slots_on_the_way_to_the_cap(monkeypatch):
    """1/(1+3x) = sum (-3x)^k: c = 1 and every quotient is exact, but N_k
    grows on every step, so each step widens the slots until the cap at
    k = n d = 3 calls E not unimodular."""
    widths = _slot_widths(monkeypatch)
    E = MatPoly([[1 + 3 * X, 0, 0], [0, 1, 0], [0, 0, 1]])
    E = E @ MatPoly([[1, 0, 0], [2, 1, 0], [-5, 1, 1]])
    with pytest.raises(NotUnimodular, match="not a polynomial"):
        invert_unimodular(E)
    assert len(widths) == 4 and widths == sorted(widths)


def test_invert_gaussian_unimodular_product():
    """Unit lower times unit upper over Q+iQ; E(0) is not triangular."""
    from smithpoly.field import GaussianRational as G

    h = Fraction(3, 2)
    L = MatPoly(
        [
            [Poly.one(), Poly.zero(), Poly.zero()],
            [Poly([G(2), G(1, 2)]), Poly.one(), Poly.zero()],
            [Poly([G(0, -1), 0, 1]), Poly([0, G(h, -1)]), Poly.one()],
        ]
    )
    R = MatPoly(
        [
            [Poly.one(), Poly([G(1, 1), G(0, 1)]), Poly([G(-1), 0, G(1, -1)])],
            [Poly.zero(), Poly.one(), Poly([G(0, h), 1])],
            [Poly.zero(), Poly.zero(), Poly.one()],
        ]
    )
    E = L @ R
    U = invert_unimodular(E)
    assert (U @ E) == MatPoly.identity(3)


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
    V = triangularize(combine_local(A, locs, mode, factored=factored_), D)[0]
    return D, V, compute_E(A, V, D)


def test_bezout_mode_override_matches_pipeline():
    """Either splice, triangularized, gives the V the pipeline returns."""
    key = (4, 4, "none")
    A = instance(*key)
    r = pipeline(*key)
    for mode in ("whole", "per-column"):
        assert _by_hand(A, local_smith, mode) == (r.D, r.V, r.E)


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


_FAULTS = {
    "zeroed": lambda cols, i, p: cols[:i] + [[Poly.zero()] * len(cols[i])] + cols[i + 1 :],
    "swapped": lambda cols, i, p: (
        cols[:i] + [cols[i + 1], cols[i]] + cols[i + 2 :] if i + 1 < len(cols) else None
    ),
    "times p": lambda cols, i, p: cols[:i] + [[e * p for e in cols[i]]] + cols[i + 1 :],
    "plus column 0": lambda cols, i, p: (
        cols[:i] + [[a + b for a, b in zip(cols[i], cols[0])]] + cols[i + 1 :]
    ),
}


def test_corrupted_local_multiplier_is_caught_or_harmless(monkeypatch):
    """The pipeline certifies its answer with compute_E, not with a splice
    self-check: a local multiplier with one faulty column gives a typed
    SmithError or a result that verify_smith accepts with the true D,
    never a raw exception or a wrong answer.  On one prime the faulty V
    is its own splice and is triangularized like any other."""
    one_prime = (3, 2, "none")
    # (1, 4, "none") and (6, 4, "revcols") have several primes
    keys = [LIGHT[0], LIGHT[-1], one_prime]
    # the true forms, computed before _local_multiplier is patched
    truth = {key: (pipeline(*key).D, locals_rpr(*key)) for key in keys}
    outcomes = {"error": 0, "verified": 0}
    for key in keys:
        A, (true_D, locs) = instance(*key), truth[key]
        assert len(locs) == 1 if key == one_prime else len(locs) > 1, key
        for j, loc in enumerate(locs):
            for i in range(A.rows):
                for name, fault in _FAULTS.items():
                    cols = fault(loc.V.columns(), i, loc.p)
                    if cols is None:
                        continue
                    bad = LocalMultiplier(loc.p, MatPoly.from_columns(cols), loc.alphas)
                    by_prime = {l.p: (bad if m == j else l) for m, l in enumerate(locs)}
                    monkeypatch.setattr(globalsmith, "_local_multiplier",
                                        lambda A, p, e: by_prime[p])
                    try:
                        r = smith_with_multipliers(A)
                    except SmithError:
                        outcomes["error"] += 1
                        continue
                    where = (key, j, i, name)
                    assert r.D == true_D, where
                    assert verify_smith(A, r.E, r.D, V=r.V).overall, where
                    outcomes["verified"] += 1
    assert outcomes["error"] > 0 and outcomes["verified"] > 0, outcomes


@pytest.mark.parametrize("key", [(2, 1, "none"), (3, 2, "none"), (3, 4, "revcols")])
def test_one_prime_forms_only_det_A(monkeypatch, key):
    """One prime takes the route of several: its V is triangularized,
    unimodular by construction, so the run forms det A and no det V."""
    assert len(locals_rpr(*key)) == 1
    A, truth, calls, real = instance(*key), pipeline(*key), [], globalsmith.mat_det

    def spy(M):
        calls.append(M)
        return real(M)

    monkeypatch.setattr(globalsmith, "mat_det", spy)
    assert smith_with_multipliers(A) == truth
    assert calls == [A]


# -- rational inputs with a large prime in a coefficient or a minor -------------

Q = 2**127 - 1


def test_pipeline_on_a_large_prime_coefficient():
    """[[l, q], [0, l]] for the prime q = 2**127 - 1: modulo q it is
    diag(l, l), and its Smith form is D = diag(1, l^2)."""
    x = Poly.x()
    A = MatPoly([[x, Poly.const(Q)], [Poly.zero(), x]])
    r = smith_with_multipliers(A, with_U=True)
    assert r.D == MatPoly.diag([Poly.one(), x**2])
    assert verify_smith(A, r.E, r.D, V=r.V).overall and r.U @ r.E == MatPoly.identity(A.rows)


def test_pipeline_on_a_minor_divisible_by_a_large_prime():
    """A constant coefficient of rank 2 over Q and rank 1 modulo q =
    2**127 - 1, with no coefficient divisible by q: the exponents at l are
    (0, 0, 2), not the (0, 1, 1) of the reduction mod q."""
    x, q = Poly.x(), Poly.const(Q)
    A = MatPoly([
        [x**2 - x + 1, x**2 + x + 1, -(x**2) + x],
        [x + 1, 2 * x + q + 1, x**2],
        [-2 * x, -(x**2) + x, x**2],
    ])
    assert localsmith._local_multiplier(A, x, 2).alphas == (0, 0, 2)
    r = smith_with_multipliers(A, with_U=True)
    assert r.D[1, 1] == 1
    assert verify_smith(A, r.E, r.D, V=r.V).overall and r.U @ r.E == MatPoly.identity(A.rows)


# -- the pipeline on random small matrices -------------------------------------

# Entries with coefficients in -2..2, zero about half the time.  A matrix
# has degree <= 2: drawn so, or a product of two of degree <= 1, or the
# square B @ B of one, where every prime of det A is repeated and chains
# longer than one are common.
def _entries(degree):
    return st.one_of(
        st.just(Poly.zero()),
        st.lists(
            st.integers(min_value=-2, max_value=2), min_size=1, max_size=degree + 1
        ).map(Poly),
    )


@st.composite
def _regular_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=3))

    def square(degree):
        return MatPoly([[draw(_entries(degree)) for _ in range(n)] for _ in range(n)])

    kind = draw(st.sampled_from(["degree 2", "product", "square"]))
    if kind == "degree 2":
        A = square(2)
    elif kind == "product":
        A = square(1) @ square(1)
    else:
        B = square(1)
        A = B @ B
    assume(not mat_det(A).is_zero())
    return A


@settings(max_examples=30)
@given(A=_regular_matrices(), with_U=st.booleans())
def test_pipeline_matches_minors_oracle(A, with_U):
    """smith_with_multipliers gives the D of both oracles, the
    determinantal divisors and the elementary reduction U A V = D, a
    certificate verify_smith accepts, and with U the inverse of E."""
    r = smith_with_multipliers(A, with_U=with_U)
    assert r.D == minors_gcd_smith(A)
    U, D, V = elementary_smith(A)
    assert D == r.D
    assert U @ A @ V == D
    assert verify_smith(A, r.E, r.D, V=r.V).overall
    if with_U:
        assert r.U @ r.E == MatPoly.identity(A.rows)
