from fractions import Fraction

import pytest

from conftest import random_poly
from smithpoly.errors import (
    DegreeZero,
    DimensionMismatch,
    NotIrreducible,
    NotMonic,
    PrimeMismatch,
)
from smithpoly.field import GaussianRational
from smithpoly.poly import Poly, parse_poly
from smithpoly.prng import SplitMix64
from smithpoly.residue import (
    ResidueElt,
    companion_of,
    encode,
    residue_div,
    residue_mul,
    residue_one,
)

X = Poly.x()


def test_companion_rejects_bad_inputs():
    with pytest.raises(NotMonic):
        companion_of(2 * X + 1)
    with pytest.raises(DegreeZero):
        companion_of(Poly.one())


def test_mul_examples():
    S = companion_of(X**2 + 1)
    lam = encode(X, S)
    assert residue_mul(lam, lam, S).coeffs == (Fraction(-1), Fraction(0))
    x = encode(Poly([2, 3]), S)
    assert residue_mul(x, residue_one(S), S) == x
    zero = encode(Poly.zero(), S)
    assert residue_mul(x, zero, S) == zero


def test_div_examples():
    S = companion_of(X**2 + 1)
    lam = encode(X, S)
    one = residue_one(S)
    assert residue_div(one, lam, S).coeffs == (Fraction(0), Fraction(-1))
    x = encode(Poly([5, -2]), S)
    assert residue_div(x, x, S) == one
    zero = encode(Poly.zero(), S)
    assert residue_div(zero, x, S) == zero
    with pytest.raises(ZeroDivisionError):
        residue_div(x, zero, S)


def test_div_by_zero_divisor():
    """l^2-1 = (l-1)(l+1): l-1 is a nonzero zero divisor of R/pR, and
    dividing by it says p is not irreducible."""
    S = companion_of(X**2 - 1)
    with pytest.raises(NotIrreducible, match="zero divisors"):
        residue_div(residue_one(S), encode(X - 1, S), S)


def test_dimension_and_prime_guards():
    S2 = companion_of(X**2 + 1)
    S2b = companion_of(X**2 + 2)
    x = encode(X, S2)
    y = encode(X, S2b)
    with pytest.raises(PrimeMismatch):
        residue_mul(x, y, S2)
    short = ResidueElt((Fraction(1),), S2)
    with pytest.raises(DimensionMismatch):
        residue_mul(x, short, S2)


def test_multiplication_by_lambda_is_companion_action():
    """Multiplying by the class of lambda acts as the companion matrix."""
    rng = SplitMix64(3)
    for ptxt in ("l^2+1", "l^3+2*l+3", "l^4+l^3+l^2+1"):
        p = parse_poly(ptxt)
        S = companion_of(p)
        s = S.s
        # subdiagonal ones, last column the negated low-order coefficients
        companion = [
            [Fraction(int(j == i - 1)) for j in range(s - 1)] + [-p.coeffs[i]]
            for i in range(s)
        ]
        lam = encode(X, S)
        for _ in range(50):
            x = encode(random_poly(rng, s - 1), S)
            by_mul = residue_mul(x, lam, S)
            by_mat = tuple(
                sum((row[j] * x.coeffs[j] for j in range(s)), Fraction(0))
                for row in companion
            )
            assert by_mul.coeffs == by_mat


@pytest.mark.parametrize(
    "ptxt", ["l", "l-1", "l^2+1", "l^2+l+1", "l^3+2*l+3", "l^4+l^3+l^2+1"]
)
def test_homomorphism_against_multiply_then_rem(ptxt):
    """Residue products must agree with multiply-in-R then rem."""
    p = parse_poly(ptxt)
    S = companion_of(p)
    rng = SplitMix64(hash(ptxt) & 0xFFFF)
    for _ in range(100):
        a = random_poly(rng, S.s - 1)
        b = random_poly(rng, S.s - 1)
        lhs = residue_mul(encode(a, S), encode(b, S), S)
        assert lhs == encode((a * b) % p, S)


@pytest.mark.parametrize("ptxt", ["l-2", "l^2+1", "l^4+l^3+l^2+1"])
def test_inverses_random(ptxt):
    p = parse_poly(ptxt)
    S = companion_of(p)
    one = residue_one(S)
    rng = SplitMix64(1 + S.s)
    count = 0
    while count < 100:
        x = encode(random_poly(rng, S.s - 1), S)
        if x.is_zero():
            continue
        assert residue_mul(x, one / x, S) == one
        count += 1


def test_gaussian_base_field():
    i = GaussianRational(0, 1)
    p = Poly([i, 1]) * Poly([1, 1])  # (l+i)(l+1), monic deg 2 over Q+iQ
    S = companion_of(p)
    rng = SplitMix64(9)
    for _ in range(30):
        a = Poly([GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2)])
        b = Poly([GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2)])
        assert residue_mul(encode(a, S), encode(b, S), S) == encode((a * b) % p, S)
