import zlib
from fractions import Fraction

import pytest

from conftest import companion_product, random_poly
from smithpoly.errors import DegreeZero, NotIrreducible, NotMonic
from smithpoly.field import GaussianRational
from smithpoly.poly import Poly, parse_poly
from smithpoly.prng import SplitMix64
from smithpoly.residue import ResidueField

X = Poly.x()


def test_companion_rejects_bad_inputs():
    with pytest.raises(NotMonic):
        ResidueField(2 * X + 1)
    with pytest.raises(DegreeZero):
        ResidueField(Poly.one())


def test_mul_examples():
    F = ResidueField(X**2 + 1)
    assert F.mul(X, X) == Poly([-1])
    x = Poly([2, 3])
    assert F.mul(x, F.one) == x
    assert F.mul(x, F.zero) == F.zero


def test_div_examples():
    F = ResidueField(X**2 + 1)
    assert F.inv(X) == -X
    x = Poly([5, -2])
    assert F.mul(x, F.inv(x)) == F.one
    assert F.mul(F.zero, F.inv(x)) == F.zero
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero)


def test_div_by_zero_divisor():
    """l^2-1 = (l-1)(l+1): l-1 is a nonzero zero divisor of R/pR, and
    inverting it says p is not irreducible."""
    F = ResidueField(X**2 - 1)
    with pytest.raises(NotIrreducible, match="zero divisors"):
        F.inv(X - 1)


def test_multiplication_by_lambda_is_companion_action():
    """Multiplying by the class of lambda acts as the companion matrix."""
    rng = SplitMix64(3)
    for ptxt in ("l^2+1", "l^3+2*l+3", "l^4+l^3+l^2+1"):
        p = parse_poly(ptxt)
        F = ResidueField(p)
        s = p.degree
        # subdiagonal ones, last column the negated low-order coefficients
        companion = [
            [Fraction(int(j == i - 1)) for j in range(s - 1)] + [-p.coeffs[i]]
            for i in range(s)
        ]
        for _ in range(50):
            x = random_poly(rng, s - 1)
            xs = list(x.coeffs) + [Fraction(0)] * (s - len(x.coeffs))
            by_mat = Poly(
                [sum((row[j] * xs[j] for j in range(s)), Fraction(0)) for row in companion]
            )
            assert F.mul(x, X) == by_mat


@pytest.mark.parametrize(
    "ptxt", ["l", "l-1", "l^2+1", "l^2+l+1", "l^3+2*l+3", "l^4+l^3+l^2+1"]
)
def test_homomorphism_against_multiply_then_rem(ptxt):
    """Residue products must agree with the product in R reduced mod p,
    taken here as the companion-matrix action of a on b."""
    p = parse_poly(ptxt)
    F = ResidueField(p)
    rng = SplitMix64(zlib.crc32(ptxt.encode()) & 0xFFFF)
    for _ in range(100):
        a = random_poly(rng, p.degree - 1)
        b = random_poly(rng, p.degree - 1)
        assert F.mul(a, b) == Poly(companion_product(a, b, p))


@pytest.mark.parametrize("ptxt", ["l-2", "l^2+1", "l^4+l^3+l^2+1"])
def test_inverses_random(ptxt):
    p = parse_poly(ptxt)
    F = ResidueField(p)
    rng = SplitMix64(1 + p.degree)
    count = 0
    while count < 100:
        x = random_poly(rng, p.degree - 1)
        if x.is_zero():
            continue
        u = F.inv(x)
        assert u.degree < p.degree
        assert F.mul(x, u) == F.one
        count += 1


def test_gaussian_base_field():
    i = GaussianRational(0, 1)
    p = Poly([i, 1]) * Poly([1, 1])  # (l+i)(l+1), monic deg 2 over Q+iQ
    F = ResidueField(p)
    rng = SplitMix64(9)
    for _ in range(30):
        a = Poly([GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2)])
        b = Poly([GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2)])
        assert F.mul(a, b) == Poly(companion_product(a, b, p))
