from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_matrix
from corpus import (
    GROUND_TRUTH,
    chains_exact,
    chains_over_k,
    factored,
    instance,
    locals_over_k,
    locals_rpr,
)
from smithpoly import localsmith
from smithpoly.errors import (
    MultiplicityMismatch,
    NotIrreducible,
    NotSquare,
    PrimeDoesNotDivideDet,
    SmithError,
)
from smithpoly.field import GaussianRational
from smithpoly.localsmith import (
    _BaseFieldLane,
    _ResidueLane,
    _local_chains,
    local_smith,
    local_smith_over_K,
    local_smith_reference,
    rref_over_residue,
)
from smithpoly.matpoly import MatPoly, mat_det
from smithpoly.oracle import minors_gcd_smith
from smithpoly.poly import Poly
from smithpoly.prng import SplitMix64
from smithpoly.residue import BASE_FIELD, INTEGER_ROWS, ResidueField, _IntRow

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


@pytest.mark.parametrize("A", [MatPoly([[1]]), MatPoly.identity(3), MatPoly.diag([X + 1, X - 2])])
def test_reference_rejects_prime_not_dividing_det(A):
    """Like both lanes: no all-zero exponents when p does not divide det A."""
    with pytest.raises(PrimeDoesNotDivideDet):
        local_smith_reference(A, X)


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
def test_last_round_overshooting_mu(fn):
    """diag(l^2, l^2) at l has multiplicity 4; a caller's mu = 3 is met by
    the last round with two chains of exponent 2, and the message names
    both sums."""
    with pytest.raises(MultiplicityMismatch, match="^accepted exponents sum to 4, expected 3$"):
        fn(MatPoly.diag([X**2, X**2]), X, 3)


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
    for r1, r2, exact, k in zip(locals_rpr(*key), locals_over_k(*key), chains_exact(*key),
                                chains_over_k(*key)):
        assert r1.alphas == r2.alphas
        assert r1.V == r2.V
        assert exact.alphas == r1.alphas and exact.V == r1.V
        # the base-field lane's chains against the residue lane's
        assert k.alphas == exact.alphas and _typed(k.V) == _typed(exact.V)
        ref = local_smith_reference(A, r1.p)
        assert ref.alphas == r1.alphas


@pytest.mark.parametrize("key", GROUND_TRUTH, ids=str)
def test_exact_lanes_agree_at_every_corpus_prime(key):
    """The residue lane and the K lane's own chains give the same alphas
    and the same typed V at every prime of the corpus, the quartic one
    included: both read A's digits from one expansion (_plane_digits)."""
    for exact, k in zip(chains_exact(*key), chains_over_k(*key), strict=True):
        assert k.alphas == exact.alphas and _typed(k.V) == _typed(exact.V)


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
    multiplication by lambda: l * l = p - 1 carries 1, l * 1 carries 0.
    Chains and residuals are integer rows over one denominator."""
    lane = _BaseFieldLane(MatPoly([[X]]), X**2 + 1, 2)
    assert lane.tableau() == [[0, -1], [1, 0]]
    for chain, carry in (([0, 3], [3, 0]), ([1, 0], [0, 0])):
        for den in (1, 5):
            res = lane.residual(INTEGER_ROWS.row([Fraction(v, den) for v in chain]), 1)
            assert type(res) is _IntRow and res == carry and res.den == (den if any(carry) else 1)


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
    assert any(e for row in _ResidueLane(A, p, 4).digits[3] for e in row)
    res = fn(A, p, 4)
    assert res.alphas == (0, 4)
    _check_contract(A, p, res, 4)


@pytest.mark.parametrize("p", CUT_PRIMES, ids=lambda p: p.human_text())
def test_cut_expansion_is_a_prefix(p):
    """The residue lane keeps exactly mu digits, the first mu of the
    expansion, zero digits past the last."""
    A = MatPoly([[p**5 + X, p**2 * (X + 1)], [Poly.one(), p**3 - p]])
    full = _ResidueLane(A, p, 8).digits
    assert any(e for row in full[5] for e in row)
    assert not any(e for row in full[6] for e in row)
    for mu in range(1, len(full) + 1):
        assert _ResidueLane(A, p, mu).digits == full[:mu]


def test_gaussian_prime_local_form():
    i = GaussianRational(0, 1)
    p = X - i
    A = MatPoly.diag([p, p * p])
    res = local_smith(A, p, 3)
    resk = local_smith_over_K(A, p, 3)
    assert res.alphas == resk.alphas == (1, 2)
    assert res.V == resk.V
    _check_contract(A, p, res, 3)


# -- the K lane on integer rows against the residue lane ------------------

# rational primes of degree 1-3
SANDWICH_PRIMES = [
    X - Fraction(1, 3),
    X + 2,
    X**2 + 1,
    X**2 - 2,
    X**2 + X + Fraction(1, 2),
    X**3 - 2,
    X**3 + X + 1,
]


def _typed(M):
    """M's coefficients with their types, so Fraction(1) != 1 here."""
    return [[[(type(c), c) for c in e.coeffs] for e in row] for row in M.entries]


def _sandwich(rng, n, p, exps, bits):
    """L diag(p**e) R with unit triangular L and R whose entries have
    rational coefficients of about `bits` bits."""

    def entry():
        return Poly([
            Fraction(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2 ** (bits // 2) + 1))
            for _ in range(2)
        ])

    one, zero = Poly.one(), Poly.zero()
    L = MatPoly([[one if i == j else entry() if i > j else zero for j in range(n)] for i in range(n)])
    R = MatPoly([[one if i == j else entry() if i < j else zero for j in range(n)] for i in range(n)])
    return L @ MatPoly.diag([p**e for e in exps]) @ R


@settings(max_examples=30)
@given(
    n=st.integers(min_value=2, max_value=3),
    p=st.sampled_from(SANDWICH_PRIMES),
    bits=st.sampled_from([4, 40, 90, 256]),
    exps=st.lists(st.integers(min_value=0, max_value=2), min_size=3, max_size=3),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_K_lane_matches_residue_lane(n, p, bits, exps, seed):
    """On rational sandwiches the K lane on integer rows gives the residue
    lane's exponents and V, coefficient types included, at any coefficient
    size."""
    exps = sorted(exps[:n])
    exps[-1] = max(exps[-1], 1)
    A = _sandwich(SplitMix64(seed), n, p, exps, bits)
    mu = sum(exps)
    k = _local_chains(A, p, mu, _BaseFieldLane)
    residue = _local_chains(A, p, mu, _ResidueLane)
    assert k.alphas == residue.alphas == tuple(exps)
    assert _typed(k.V) == _typed(residue.V)


def _outcome(A, p, mu, lane):
    """The exponents and typed V of a lane's chains, or its error class."""
    try:
        loc = _local_chains(A, p, mu, lane)
    except SmithError as exc:
        return type(exc)
    return loc.alphas, _typed(loc.V)


@settings(max_examples=60)
@given(
    n=st.integers(min_value=2, max_value=3),
    p=st.sampled_from(SANDWICH_PRIMES),
    cofactor=st.sampled_from([None, *SANDWICH_PRIMES]),
    exps=st.lists(st.integers(min_value=0, max_value=2), min_size=3, max_size=3),
    shift=st.integers(min_value=-3, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_lanes_fail_alike(n, p, cofactor, exps, shift, seed):
    """On rational sandwiches at a reducible prime p * cofactor, or at p
    with a wrong multiplicity, the K lane and the residue lane raise the
    same SmithError subclass, or give the same form."""
    exps = sorted(exps[:n])
    A = _sandwich(SplitMix64(seed), n, p, exps, 8)
    mu = max(sum(exps) + shift, 1)
    if cofactor is None:
        assume(mu != sum(exps))
    else:
        p = p * cofactor
    assert _outcome(A, p, mu, _BaseFieldLane) == _outcome(A, p, mu, _ResidueLane)


@settings(max_examples=30)
@given(
    n=st.integers(min_value=2, max_value=3),
    p=st.sampled_from(SANDWICH_PRIMES),
    exps=st.lists(st.integers(min_value=0, max_value=2), min_size=3, max_size=3),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_row_scaling_leaves_the_base_field_lane_alone(n, p, exps, seed):
    """Scaling the rows of A by nonzero constants S scales the rows of the
    lane's tableau and nothing else: S A has the exponents and V of A,
    coefficient types included, and E becomes S E.  This is what lets the
    lane run on A's rows scaled to integers."""
    exps = sorted(exps[:n])
    exps[-1] = max(exps[-1], 1)
    rng = SplitMix64(seed)
    A = _sandwich(rng, n, p, exps, 12)
    S = MatPoly.diag([
        Fraction(rng.randint(1, 2**20) * (-1) ** rng.randint(0, 1), rng.randint(1, 2**20))
        for _ in range(n)
    ])
    base = local_smith_over_K(A, p, sum(exps))
    scaled = local_smith_over_K(S @ A, p, sum(exps))
    assert scaled.alphas == base.alphas
    assert _typed(scaled.V) == _typed(base.V)
    assert scaled.E == S @ base.E


def _bits(M):
    return max(
        (max(abs(c.numerator).bit_length(), c.denominator.bit_length())
         for row in M.entries for e in row for c in e.coeffs),
        default=0,
    )


# sandwiches L diag(p**e) R at monic primes that are not integral, so
# that the rows of the lane's maps G_t hold Fractions
FRACTIONAL = [
    (X - Fraction(1, 2), (0, 1, 3)),
    (Poly([Fraction(1, 3), Fraction(-1, 2), 1]), (1, 1, 2)),
]


@pytest.mark.parametrize("key", GROUND_TRUTH + FRACTIONAL)
def test_integer_rows_are_the_fraction_lane(monkeypatch, key):
    """At every prime of the corpus, and at primes with Fraction
    coefficients, the base-field lane on integer rows gives the exponents
    and V, coefficient types included, of the same lane on lists of
    Fractions (BASE_FIELD)."""
    if isinstance(key[0], Poly):
        p, exps = key
        A, factors = _sandwich(SplitMix64(11), len(exps), p, list(exps), 12), [(p, sum(exps))]
    else:
        A, factors = instance(*key), factored(*key).factors
    for p, mu in factors:
        assert _BaseFieldLane(A, p, mu).F is INTEGER_ROWS
        ints = _local_chains(A, p, mu, _BaseFieldLane)
        with monkeypatch.context() as m:
            m.setattr(localsmith, "INTEGER_ROWS", BASE_FIELD)
            assert _BaseFieldLane(A, p, mu).F is BASE_FIELD
            fractions = _local_chains(A, p, mu, _BaseFieldLane)
        assert ints.alphas == fractions.alphas
        assert _typed(ints.V) == _typed(fractions.V)


def _spy_lanes(monkeypatch):
    """The scalars of every lane built: its field for a base-field lane,
    "residue" for a residue lane."""
    built = []
    base, residue = localsmith._BaseFieldLane, localsmith._ResidueLane

    def spy_base(A, p, mu):
        lane = base(A, p, mu)
        built.append(lane.F)
        return lane

    def spy_residue(A, p, mu):
        built.append("residue")
        return residue(A, p, mu)

    monkeypatch.setattr(localsmith, "_BaseFieldLane", spy_base)
    monkeypatch.setattr(localsmith, "_ResidueLane", spy_residue)
    return built


def _corpus_prime(key=(1, 4, "none")):
    p, mu = factored(*key).factors[0]
    return instance(*key), p, mu


# (A, p, mu) makers, and whether A and p are rational
ROUTES = {
    "gaussian": (lambda: (MatPoly([[X - I, Poly.one()], [Poly.zero(), X + 1]]), X - I, 1), False),
    "gaussian-prime": (
        lambda: (MatPoly([[X**2 + 1, Poly.one()], [Poly.zero(), X + 1]]), X - I, 1), False
    ),
    "sandwich": (lambda: (_sandwich(SplitMix64(3), 2, X**2 + 1, [1, 2], 40), X**2 + 1, 3), True),
    "corpus": (_corpus_prime, True),
}


@pytest.mark.parametrize("fn", ALL_LOCAL)
@pytest.mark.parametrize("route", ROUTES)
def test_each_entry_point_runs_its_lane(monkeypatch, fn, route):
    """On rational A and p both local forms run the base-field lane on
    integer rows.  Otherwise local_smith runs the residue lane, after the
    base-field lane it builds to decide has chosen K's scalars, and
    local_smith_over_K the base-field lane on K's scalars.  Every lane
    gives the residue lane's form."""
    make, rational = ROUTES[route]
    A, p, mu = make()
    truth = _local_chains(A, p, mu, _ResidueLane)
    built = _spy_lanes(monkeypatch)
    res = fn(A, p, mu)
    if rational:
        assert built == [INTEGER_ROWS]
    else:
        assert built == ([BASE_FIELD, "residue"] if fn is local_smith else [BASE_FIELD])
    assert res.alphas == truth.alphas and res.V == truth.V
    _check_contract(A, p, res, mu)


Q = 2**127 - 1


@pytest.mark.parametrize("fn", ALL_LOCAL)
@pytest.mark.parametrize(
    "A, p, mu",
    [
        (MatPoly([[X, Poly.const(Fraction(1, Q))], [Poly.zero(), X]]), X, 2),
        (MatPoly([[X, Poly.const(Fraction(3, 2 * Q))], [Poly.one(), X]]), X**2 - Fraction(3, 2 * Q), 1),
        (MatPoly.diag([X - Fraction(1, Q), X - Fraction(1, Q)]), X - Fraction(1, Q), 2),
    ],
    ids=["in A", "in A and p", "in p"],
)
def test_denominator_with_a_large_prime(fn, A, p, mu):
    """A denominator of 2**127 - 1 in A, in p or in both: the integer rows
    carry it and give the residue lane's V."""
    res = fn(A, p, mu)
    assert _typed(res.V) == _typed(_local_chains(A, p, mu, _ResidueLane).V)
    _check_contract(A, p, res, mu)


def test_coefficient_divisible_by_a_large_prime():
    """[[l, q], [0, l]] for the prime q = 2**127 - 1: modulo q it is
    diag(l, l), exponents (1, 1), but over Q they are (0, 2)."""
    A = MatPoly([[X, Poly.const(Q)], [Poly.zero(), X]])
    for fn in ALL_LOCAL:
        res = fn(A, X, 2)
        assert res.alphas == (0, 2) and res.diagonal() == MatPoly.diag([Poly.one(), X**2])
        _check_contract(A, X, res, 2)


def _minor_divisible_by(q):
    """A 3x3 matrix whose constant coefficient [[1, 1, 0], [1, 1 + q, 0],
    [0, 0, 0]] has rank 2 over Q and rank 1 mod q, with no coefficient
    divisible by q: modulo q its exponents at l are (0, 1, 1), over Q
    (0, 0, 2)."""
    q = Poly.const(q)
    return MatPoly([
        [X**2 - X + 1, X**2 + X + 1, -(X**2) + X],
        [X + 1, 2 * X + q + 1, X**2],
        [-2 * X, -(X**2) + X, X**2],
    ])


@pytest.mark.parametrize("q", [Q, 1048571])
def test_minor_divisible_by_a_prime(q):
    A = _minor_divisible_by(q)
    truth = _local_chains(A, X, 2, _ResidueLane)
    assert truth.alphas == (0, 0, 2)
    for fn in ALL_LOCAL:
        res = fn(A, X, 2)
        assert res.alphas == (0, 0, 2) and _typed(res.V) == _typed(truth.V)
        _check_contract(A, X, res, 2)


def test_large_coefficients_stay_exact():
    """A V with 150-bit-plus coefficients comes out of both local forms
    as the residue lane's."""
    p = X - Fraction(1, 3)
    A = _sandwich(SplitMix64(7), 3, p, [0, 0, 2], 60)
    truth = _local_chains(A, p, 2, _ResidueLane)
    assert _bits(truth.V) > 150
    for fn in ALL_LOCAL:
        res = fn(A, p, 2)
        assert res.alphas == truth.alphas and _typed(res.V) == _typed(truth.V)
        _check_contract(A, p, res, 2)
