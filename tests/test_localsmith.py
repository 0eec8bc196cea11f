from fractions import Fraction

import pytest

from conftest import random_matrix
from corpus import factored, instance, locals_over_k, locals_rpr
from smithpoly.errors import (
    MultiplicityMismatch,
    NotIrreducible,
    NotSquare,
    PrimeDoesNotDivideDet,
)
from smithpoly.field import GaussianRational
from smithpoly.localsmith import (
    _ResidueLane,
    local_smith,
    local_smith_over_K,
    local_smith_reference,
    rref_over_residue,
)
from smithpoly.matpoly import MatPoly, expand_in_p, mat_det
from smithpoly.oracle import minors_gcd_smith
from smithpoly.poly import Poly
from smithpoly.prng import SplitMix64
from smithpoly.residue import ResidueField

X = Poly.x()
ALL_LOCAL = [local_smith, local_smith_over_K]


def _check_contract(A, p, res, mu):
    assert (A @ res.V) == (res.E @ res.diagonal())
    assert mat_det(res.V).degree == 0
    assert not (mat_det(res.E) % p).is_zero()
    assert sum(res.alphas) == mu
    assert res.beta == max(res.alphas)
    s = p.degree
    for i, a in enumerate(res.alphas):
        col_deg = max(e.degree for e in res.V.column(i))
        assert col_deg <= max(s * a - 1, 0)
    assert all(
        res.ranks[k] >= res.ranks[k + 1] for k in range(len(res.ranks) - 1)
    )
    assert sum(res.ranks) == mu


# -- rref over the residue field -----------------------------------------


def test_rref_identity():
    rows = [[Poly.one() if i == j else Poly.zero() for j in range(3)] for i in range(3)]
    _, pivots, null = rref_over_residue(rows, X**2 + 1)
    assert pivots == [0, 1, 2] and null == []


def test_rref_zero_matrix():
    z = Poly.zero()
    rows = [[z, z], [z, z]]
    _, pivots, null = rref_over_residue(rows, X**2 + 1)
    assert pivots == []
    assert len(null) == 2
    assert null[0][0] == Poly.one() and null[1][1] == Poly.one()


def test_rref_single_row_kernel():
    p = X**2 + 1
    F = ResidueField(p)
    rows = [[X, Poly.one()]]
    _, pivots, null = rref_over_residue(rows, p)
    assert pivots == [0]
    assert len(null) == 1
    vec = null[0]
    combo = F.mul(rows[0][0], vec[0]) + F.mul(rows[0][1], vec[1])
    assert combo.is_zero()
    # unit in the dependent position, negated coefficient above; this is
    # the (1; -lambda) solution line scaled by lambda
    assert vec[1] == Poly.one()
    assert vec[0] == X
    scaled = [F.mul(e, X) for e in (Poly.one(), -X)]
    assert list(vec) == scaled


def test_rref_reduces_entries_mod_p():
    """Entries are taken mod p: l^2 is -1 mod l^2+1."""
    rref, pivots, _ = rref_over_residue([[X**2, X**3]], X**2 + 1)
    assert pivots == [0] and rref == [[Poly.one(), X]]


# -- worked examples -------------------------------------------------------


@pytest.mark.parametrize("fn", ALL_LOCAL)
def test_already_local_diagonal(fn):
    A = MatPoly.diag([X, X**2])
    res = fn(A, X, 3)
    assert res.alphas == (1, 2) and res.beta == 2
    assert res.V == MatPoly.identity(2)
    assert res.E == MatPoly.identity(2)
    _check_contract(A, X, res, 3)


@pytest.mark.parametrize("fn", ALL_LOCAL)
def test_jordan_block(fn):
    A = MatPoly([[X, Poly.one()], [Poly.zero(), X]])
    res = fn(A, X, 2)
    assert res.alphas == (0, 2) and res.beta == 2
    assert res.diagonal() == MatPoly.diag([Poly.one(), X**2])
    # independent check: gcd of 1x1 minors is 1, det is l^2
    assert minors_gcd_smith(A) == res.diagonal()
    _check_contract(A, X, res, 2)


@pytest.mark.parametrize("fn", ALL_LOCAL)
def test_family_three_single_chain(fn):
    A = instance(3, 3, "none")
    p = X - 1
    res = fn(A, p, 3)
    assert res.alphas == (0,) * 8 + (3,)
    assert res.beta == 3 and res.ranks == (1, 1, 1)
    _check_contract(A, p, res, 3)


@pytest.mark.parametrize("fn", ALL_LOCAL)
def test_quadratic_prime_permuted_diagonal(fn):
    p = X**2 + 1
    A = MatPoly.diag([p, Poly.one()])
    res = fn(A, p, 1)
    assert res.alphas == (0, 1)
    assert res.V.column(0) == [Poly.zero(), Poly.one()]
    assert res.V.column(1) == [Poly.one(), Poly.zero()]
    _check_contract(A, p, res, 1)


def test_reference_on_prime_power_scalar():
    res = local_smith_reference(MatPoly([[X]]), X)
    assert res.alphas == (1,)


@pytest.mark.parametrize("fn", ALL_LOCAL)
def test_errors(fn):
    A = MatPoly.diag([X, X])
    with pytest.raises(NotSquare):
        fn(MatPoly([[0, 0, 0], [0, 0, 0]]), X, 1)
    with pytest.raises(PrimeDoesNotDivideDet):
        fn(A, X, 0)
    with pytest.raises(PrimeDoesNotDivideDet):
        fn(MatPoly.identity(2), X, 1)
    with pytest.raises(MultiplicityMismatch):
        fn(A, X, 5)  # true multiplicity is 2


@pytest.mark.parametrize("fn", ALL_LOCAL)
def test_prime_split_over_gaussians_is_not_irreducible(fn):
    """l^2+1 = (l-i)(l+i): R/pR is not a field.  Both lanes say so, whether
    the split shows at the first round or only at a later one."""
    i = GaussianRational(0, 1)
    p = X**2 + 1
    a, b = X - i, X + i
    with pytest.raises(NotIrreducible, match=r"l\^2\+1 is not irreducible"):
        fn(MatPoly.diag([a, b]), p, 1)
    with pytest.raises(NotIrreducible, match=r"l\^2\+1 is not irreducible"):
        fn(MatPoly.diag([p * a, p**2]), p, 3)


# -- randomized equivalence ------------------------------------------------


def test_reference_agrees_on_random_matrices():
    """Fifty random 3x3 matrices with det divisible by the prime: the
    rotation-based construction and both nullspace routes agree on the
    exponents, and the two nullspace routes agree on V exactly."""
    rng = SplitMix64(131)
    found = 0
    while found < 50:
        A = random_matrix(rng, 3, 2, -4, 4)
        det = mat_det(A)
        if det.is_zero():
            continue
        mu = 0
        rem = det
        while True:
            q, r = rem.divmod(X)
            if not r.is_zero():
                break
            rem, mu = q, mu + 1
        if mu == 0:
            continue
        found += 1
        res = local_smith(A, X, mu)
        resk = local_smith_over_K(A, X, mu)
        ref = local_smith_reference(A, X)
        assert res.alphas == resk.alphas == ref.alphas
        assert res.V == resk.V
        assert res.ranks == resk.ranks == ref.ranks
        _check_contract(A, X, res, mu)
        _check_contract(A, X, ref, mu)


@pytest.mark.parametrize("key", [(1, 4, "none"), (4, 4, "none"), (5, 2, "revcols")])
def test_corpus_variant_agreement(key):
    A = instance(*key)
    for r1, r2 in zip(locals_rpr(*key), locals_over_k(*key)):
        assert r1.alphas == r2.alphas
        assert r1.V == r2.V
        ref = local_smith_reference(A, r1.p)
        assert ref.alphas == r1.alphas


def test_single_factor_local_is_global():
    """When det(A) is a power of one irreducible, the local form already
    satisfies the global contract."""
    key = (3, 2, "none")
    A = instance(*key)
    fac = factored(*key)
    assert len(fac.factors) == 1
    (p, e), = fac.factors
    res = locals_rpr(*key)[0]
    from smithpoly import smith_with_multipliers

    global_res = smith_with_multipliers(A)
    assert global_res.D == res.diagonal()
    _check_contract(A, p, res, e)


def test_quadratic_prime_deep_chain_sandwiched():
    """diag(1, p, p^2) hidden by unimodular sandwiches, p quadratic: all
    three routes find the (0, 1, 2) chain structure, nullspace routes
    with the same V."""
    from smithpoly.families import _unit_lower, _unit_upper

    p = Poly([1, 0, 1])
    rng = SplitMix64(555)
    base = MatPoly.diag([Poly.one(), p, p**2])
    A = _unit_lower(3, rng) @ _unit_upper(3, rng) @ base
    A = A @ _unit_lower(3, rng) @ _unit_upper(3, rng)
    r1 = local_smith(A, p, 3)
    r2 = local_smith_over_K(A, p, 3)
    r3 = local_smith_reference(A, p)
    assert r1.alphas == r2.alphas == r3.alphas == (0, 1, 2)
    assert r1.V == r2.V
    assert r1.ranks == (2, 1)
    _check_contract(A, p, r1, 3)


def test_quadratic_prime_repeated_power():
    from smithpoly.families import _unit_lower, _unit_upper

    p = Poly([1, 0, 1])
    rng = SplitMix64(556)
    base = MatPoly.diag([Poly.one(), p, p])
    A = _unit_lower(3, rng) @ _unit_upper(3, rng) @ base
    A = A @ _unit_lower(3, rng) @ _unit_upper(3, rng)
    r1 = local_smith(A, p, 2)
    r2 = local_smith_over_K(A, p, 2)
    assert r1.alphas == (0, 1, 1) and r1.ranks == (2,)
    assert r1.V == r2.V
    _check_contract(A, p, r1, 2)


def test_distinct_primes_run_concurrently():
    """Local forms at different primes share no state; running them from
    worker threads must reproduce the sequential results exactly."""
    from concurrent.futures import ThreadPoolExecutor

    key = (1, 5, "revcols")
    A = instance(*key)
    factors = factored(*key).factors
    sequential = [local_smith(A, p, e) for p, e in factors]
    with ThreadPoolExecutor(max_workers=len(factors)) as pool:
        parallel = list(pool.map(lambda pe: local_smith(A, pe[0], pe[1]), factors))
    for rs, rp in zip(sequential, parallel):
        assert rs.V == rp.V and rs.alphas == rp.alphas and rs.E == rp.E


def test_base_field_lane_structure():
    """For a 1x1 matrix [l] at a quadratic prime, the base-field tableau is
    the companion matrix of p and the round-1 residuals are the carry of
    multiplication by lambda: l * l = p - 1 carries 1, l * 1 carries 0."""
    from smithpoly.localsmith import _FieldLane

    lane = _FieldLane(MatPoly([[X]]), X**2 + 1, 2)
    assert lane.tableau() == [[0, -1], [1, 0]]
    assert lane.residual([Fraction(0), Fraction(1)], 1) == [1, 0]
    assert lane.residual([Fraction(1), Fraction(0)], 1) == [0, 0]


# -- the expansion cut at mu digits -----------------------------------------

I = GaussianRational(0, 1)
CUT_PRIMES = [X, X**2 + 1, X**4 - 2, X**2 + I]


@pytest.mark.parametrize("fn", ALL_LOCAL)
@pytest.mark.parametrize("p", CUT_PRIMES, ids=lambda p: p.human_text())
def test_single_chain_reads_last_kept_digit(fn, p):
    """One chain of length mu = 4 ends in round mu - 1, which reads digit
    mu - 1, the last one kept.  In the sandwich L diag(1, p^4) R, digit 3
    of A is nonzero, so an expansion cut one digit short would miss it."""
    scalar = MatPoly([[p**4]])
    res = fn(scalar, p, 4)
    assert res.alphas == (4,)
    _check_contract(scalar, p, res, 4)
    one, zero = Poly.one(), Poly.zero()
    L = MatPoly([[one, zero], [p**3, one]])
    R = MatPoly([[one, p**3], [zero, one]])
    A = L @ MatPoly.diag([one, p**4]) @ R
    assert not expand_in_p(A, p).blocks[3].is_zero()
    res = fn(A, p, 4)
    assert res.alphas == (0, 4)
    _check_contract(A, p, res, 4)


@pytest.mark.parametrize("p", CUT_PRIMES, ids=lambda p: p.human_text())
def test_cut_expansion_is_a_prefix(p):
    A = MatPoly([[p**5 + X, p**2 * (X + 1)], [Poly.one(), p**3 - p]])
    full = expand_in_p(A, p).blocks
    for count in range(1, len(full) + 2):
        assert expand_in_p(A, p, count).blocks == full[:count]
    assert len(_ResidueLane(A, p, 2).digits) == 2


def test_gaussian_prime_local_form():
    i = GaussianRational(0, 1)
    p = X - i
    A = MatPoly.diag([p, p * p])
    res = local_smith(A, p, 3)
    resk = local_smith_over_K(A, p, 3)
    assert res.alphas == resk.alphas == (1, 2)
    assert res.V == resk.V
    _check_contract(A, p, res, 3)
