from fractions import Fraction

import pytest

from smithpoly.errors import ParseError
from smithpoly.field import GaussianRational, format_scalar, parse_scalar
from smithpoly.prng import SplitMix64


def test_add_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    a = Fraction(-7, 3)
    assert a + Fraction(0) == a
    z = GaussianRational(1, 2) + GaussianRational(0, -2)
    assert z == GaussianRational(1, 0)
    assert z == 1


def test_mul_inv_examples():
    assert 1 / Fraction(3, 4) == Fraction(4, 3)
    assert 1 / Fraction(1) == 1
    i = GaussianRational(0, 1)
    assert 1 / i == GaussianRational(0, -1)
    with pytest.raises(ZeroDivisionError):
        1 / Fraction(0)
    with pytest.raises(ZeroDivisionError):
        1 / GaussianRational(0, 0)


def _random_scalar(rng, gaussian):
    num = rng.randint(-50, 50)
    den = rng.randint(1, 20)
    if not gaussian:
        return Fraction(num, den)
    return GaussianRational(
        Fraction(num, den), Fraction(rng.randint(-50, 50), rng.randint(1, 20))
    )


@pytest.mark.parametrize("gaussian", [False, True])
def test_field_axioms_random(gaussian):
    """Associativity, inverses, distributivity by exact equality."""
    rng = SplitMix64(11)
    for _ in range(200):
        a = _random_scalar(rng, gaussian)
        b = _random_scalar(rng, gaussian)
        c = _random_scalar(rng, gaussian)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        if a:
            assert a * (1 / a) == 1


def test_gaussian_interop_with_rationals():
    i = GaussianRational(0, 1)
    assert 1 + i == GaussianRational(1, 1)
    assert Fraction(1, 2) * i == GaussianRational(0, Fraction(1, 2))
    assert 1 / i == -i
    assert (2 - i) - 2 == -i


@pytest.mark.parametrize(
    "text",
    ["-7/3", "42", "0", "1/2", "-1", "3+4i", "-1/2-3/7i", "i", "-i", "2i", "5+i"],
)
def test_parse_format_roundtrip(text):
    v = parse_scalar(text)
    assert parse_scalar(format_scalar(v)) == v


def test_roundtrip_random():
    rng = SplitMix64(5)
    for _ in range(300):
        v = _random_scalar(rng, gaussian=bool(rng.below(2)))
        assert parse_scalar(format_scalar(v)) == v


@pytest.mark.parametrize("bad", ["", "1/", "1//2", "x", "1+2", "2/-3", "1.5"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ParseError):
        parse_scalar(bad)


def test_canonical_form():
    # Fraction keeps lowest terms with positive denominator, which is the
    # canonical form the textual format relies on
    v = parse_scalar("-6/4")
    assert v.numerator == -3 and v.denominator == 2
    g = parse_scalar("2/4+6/4i")
    assert g.re == Fraction(1, 2) and g.im == Fraction(3, 2)
