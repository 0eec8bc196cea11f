from fractions import Fraction

import pytest

from conftest import random_poly
from smithpoly.errors import NotRegular, UnsupportedField
from smithpoly.factorization import _select_prime, factor_over_rationals
from smithpoly.field import GaussianRational
from smithpoly.poly import Poly, _int_primitive, poly_gcd
from smithpoly.prng import SplitMix64

X = Poly.x()


def test_difference_of_squares():
    fac = factor_over_rationals(X**2 - 1)
    assert fac.unit == 1
    assert fac.factors == ((X - 1, 1), (X + 1, 1))


def test_family_one_determinant_shape():
    f = X**6 * (X - 1) ** 4
    fac = factor_over_rationals(f)
    assert dict(fac.factors) == {X: 6, X - 1: 4}
    assert fac.expand() == f


def test_quartic_irreducible():
    f = Poly([1, 0, 1, 1, 1])  # l^4+l^3+l^2+1
    fac = factor_over_rationals(f)
    assert fac.factors == ((f, 1),)


def test_unit_and_rational_coefficients():
    f = Poly([Fraction(3, 2)]) * (X**2 + 1) * (X - Fraction(1, 3)) ** 2
    fac = factor_over_rationals(f)
    assert fac.unit == Fraction(3, 2)
    assert fac.expand() == f
    for p, _ in fac.factors:
        assert p.is_monic()


def test_gaussian_rejected():
    i = GaussianRational(0, 1)
    with pytest.raises(UnsupportedField, match="local_smith"):
        factor_over_rationals(Poly([i, 1]))


def test_gaussian_with_zero_imaginary_parts_rejected():
    """Factors over Q are not factors over Q(i): l^2+1 splits there."""
    G = GaussianRational
    for f in (Poly([G(0), G(-1), G(1)]), Poly([G(1), G(0), G(1)])):
        with pytest.raises(UnsupportedField, match="local_smith"):
            factor_over_rationals(f)


def test_linear_factors_come_from_recombination():
    """Every linear factor is one modular factor that recombination finds;
    l-1, ..., l-12 collide mod 3, 5, 7 and 11, so the prime is 13."""
    twelve = Poly.one()
    for k in range(1, 13):
        twelve = twelve * (X - k)
    assert _select_prime(_int_primitive(twelve)) == 13
    # no prime below 41 keeps forty distinct roots apart: 41 passes trial
    # division by the small primes and is proved prime by Miller-Rabin
    forty = Poly.one()
    for k in range(1, 41):
        forty = forty * (X - k)
    assert _select_prime(_int_primitive(forty)) == 41
    mixed = (2 * X - 1) * (3 * X + 2) * (X - Fraction(7, 11)) * (X**2 + 1) ** 2
    cases = [
        (twelve, 1, {X - k: 1 for k in range(1, 13)}),
        (
            mixed,
            6,
            {
                X - Fraction(1, 2): 1,
                X + Fraction(2, 3): 1,
                X - Fraction(7, 11): 1,
                X**2 + 1: 2,
            },
        ),
    ]
    for f, unit, want in cases:
        fac = factor_over_rationals(f)
        assert fac.unit == unit and dict(fac.factors) == want
        assert fac.expand() == f
        for p, _ in fac.factors:
            assert factor_over_rationals(p).factors == ((p, 1),)


def test_zero_rejected():
    """The zero polynomial is NotRegular, as in factor_determinant: a
    typed SmithError, not a plain ValueError."""
    with pytest.raises(NotRegular):
        factor_over_rationals(Poly.zero())


def test_constant_poly():
    fac = factor_over_rationals(Poly([Fraction(5, 7)]))
    assert fac.unit == Fraction(5, 7) and fac.factors == ()


def _irreducible_by_roots(p: Poly) -> bool:
    """Cheap check backing the emitted factors: no small rational root and
    no proper divisor among re-factored random splits."""
    if p.degree <= 1:
        return True
    for num in range(-6, 7):
        for den in range(1, 4):
            if p.eval(Fraction(num, den)) == 0:
                return False
    return True


def test_roundtrip_random_products():
    """Multiplying the factorization back must reproduce the input, and
    every emitted factor must be monic and pass the irreducibility probes."""
    rng = SplitMix64(61)
    pool = [
        X,
        X - 1,
        X + 2,
        X - Fraction(1, 2),
        Poly([1, 0, 1]),
        Poly([1, 1, 1]),
        Poly([2, 0, 0, 1]),
        Poly([1, 0, 1, 1, 1]),
    ]
    for _ in range(25):
        f = Poly([Fraction(rng.randint(-3, 3) or 1)])
        for p in pool:
            e = rng.below(3)
            if e:
                f = f * p**e
        if f.is_constant():
            continue
        fac = factor_over_rationals(f)
        assert fac.expand() == f
        for p, e in fac.factors:
            assert p.is_monic() and e >= 1
            assert _irreducible_by_roots(p)
            # factoring an emitted factor must not split it further
            refac = factor_over_rationals(p)
            assert refac.factors == ((p, 1),)


def test_random_dense_polys_roundtrip():
    rng = SplitMix64(67)
    for _ in range(40):
        f = random_poly(rng, 2 + rng.below(7))
        if f.is_zero():
            continue
        fac = factor_over_rationals(f)
        assert fac.expand() == f
        # pairwise distinct monic factors
        seen = set()
        for p, _ in fac.factors:
            assert p not in seen
            seen.add(p)


def test_squarefree_exponents_recovered():
    f = (X - 3) ** 5 * (X**2 + X + 1) ** 2 * (X + 7)
    fac = factor_over_rationals(f)
    assert dict(fac.factors) == {X - 3: 5, Poly([1, 1, 1]): 2, X + 7: 1}


def test_factors_pairwise_coprime_random():
    rng = SplitMix64(71)
    for _ in range(20):
        f = random_poly(rng, 6)
        if f.is_zero():
            continue
        fac = factor_over_rationals(f)
        ps = [p for p, _ in fac.factors]
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                assert poly_gcd(ps[i], ps[j]).is_one()
