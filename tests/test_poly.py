import tracemalloc
from fractions import Fraction

import pytest

from conftest import random_poly
from smithpoly.errors import TooLarge
from smithpoly.field import GaussianRational
from smithpoly.poly import MAX_DEGREE, Poly, parse_poly, poly_gcd, poly_xgcd
from smithpoly.prng import SplitMix64

X = Poly.x()


def test_divmod_examples():
    q, r = (X**2 + 1).divmod(X - 1)
    assert q * (X - 1) + r == X**2 + 1
    assert q == X + 1 and r == Poly([2])
    p = X**3 + 2 * X + 5
    assert p.divmod(p) == (Poly.one(), Poly.zero())
    assert Poly.zero().divmod(p) == (Poly.zero(), Poly.zero())
    with pytest.raises(ZeroDivisionError):
        p.divmod(Poly.zero())


def test_subtraction_from_a_scalar():
    assert 1 - X == Poly([1, -1])


def test_divmod_roundtrip_random():
    rng = SplitMix64(17)
    for _ in range(300):
        f = random_poly(rng, rng.below(9))
        p = random_poly(rng, rng.below(6))
        if p.is_zero():
            continue
        q, r = f.divmod(p)
        assert q * p + r == f
        assert r.degree < p.degree


def test_mul_fraction_and_gaussian_coeffs():
    f = Poly([Fraction(1, 2), Fraction(-2, 3)])
    g = Poly([Fraction(3), Fraction(1, 5)])
    assert f * g == Poly([Fraction(3, 2), Fraction(-19, 10), Fraction(-2, 15)])
    i = GaussianRational(0, 1)
    h = Poly([i, 1]) * Poly([-i, 1])
    assert h == Poly([1, 0, 1])


def test_xgcd_bezout_random():
    rng = SplitMix64(29)
    for _ in range(200):
        a = random_poly(rng, rng.below(8))
        b = random_poly(rng, rng.below(8))
        g, u, v = poly_xgcd(a, b)
        assert u * a + v * b == g
        if not g.is_zero():
            assert g.is_monic()
            assert (a % g).is_zero() and (b % g).is_zero()


def test_gcd_lcm_random():
    rng = SplitMix64(41)
    for _ in range(100):
        common = random_poly(rng, rng.below(3))
        a = random_poly(rng, rng.below(5)) * common
        b = random_poly(rng, rng.below(5)) * common
        g = poly_gcd(a, b)
        if a.is_zero() and b.is_zero():
            assert g.is_zero()
            continue
        assert (a % g).is_zero() and (b % g).is_zero()
        if not common.is_zero() and not a.is_zero() and not b.is_zero():
            assert (g % common.monic()).is_zero()


def test_gcd_gaussian_coeffs():
    i = GaussianRational(0, 1)
    a = Poly([i, 1]) * Poly([1, 1])
    b = Poly([i, 1]) * Poly([2, 1])
    assert poly_gcd(a, b) == Poly([i, 1])


@pytest.mark.parametrize(
    "text,expected",
    [
        ("2 0 1", Poly([2, 0, 1])),
        ("l^2+2", Poly([2, 0, 1])),
        ("0", Poly.zero()),
        ("-7/3", Poly([Fraction(-7, 3)])),
        ("l", X),
        ("-l^3+l", Poly([0, 1, 0, -1])),
        ("3*l^2-2*l+1", Poly([1, -2, 3])),
        ("1 -1/2", Poly([1, Fraction(-1, 2)])),
        ("l^4+l^3+l^2+1", Poly([1, 0, 1, 1, 1])),
    ],
)
def test_parse_poly(text, expected):
    assert parse_poly(text) == expected


@pytest.mark.parametrize(
    "text", ["l^1000000000", f"2*l^{MAX_DEGREE + 1}+l", "l^" + "9" * 5000, "l^00100001"]
)
def test_exponent_cap_refuses_before_allocating(text):
    """An exponent over the cap is refused as it is read: no coefficient
    list is built, and a digit string too long for int() is no
    ValueError."""
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            parse_poly(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_exponent_cap_admits_its_bound():
    assert parse_poly(f"l^{MAX_DEGREE}+1").degree == MAX_DEGREE
    assert parse_poly("l^007") == X**7


def test_poly_text_roundtrip():
    rng = SplitMix64(43)
    for _ in range(100):
        f = random_poly(rng, rng.below(7))
        assert parse_poly(f.coeff_text()) == f
        assert parse_poly(f.human_text()) == f


@pytest.mark.parametrize("text", ["1" * 5000, "l + 1/" + "1" * 5000, "(1+" + "1" * 5000 + "i) l"])
def test_overlong_coefficient_is_too_large(text):
    """A coefficient over Python's int string conversion limit is
    TooLarge, not a raw ValueError."""
    with pytest.raises(TooLarge, match="limit"):
        parse_poly(text)
