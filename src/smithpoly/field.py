"""Exact scalar arithmetic for the base fields Q and Q+iQ.

Rationals are plain ``fractions.Fraction`` values: arbitrary precision,
always in lowest terms with a positive denominator, so exact equality is
a valid oracle everywhere.  ``GaussianRational`` layers a+bi on top with
the same canonical-form guarantees and interoperates with int/Fraction
through the reflected operators, which keeps the polynomial and matrix
layers field-generic.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError

Rational = Fraction

_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class GaussianRational:
    """Element a + b*i with rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other, 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


def parse_scalar(text: str):
    """Parse the textual scalar syntax: `-7/3`, `42`, or Gaussian `a+bi`.

    Returns a Fraction for plain rationals, a GaussianRational otherwise.
    """
    t = text.strip().replace(" ", "")
    if not t:
        raise ParseError("empty scalar")
    if "i" not in t:
        if not _RAT_RE.match(t):
            raise ParseError(f"bad rational scalar: {text!r}")
        return Fraction(t)
    # Gaussian: a+bi where a, b are rationals; also accept bare `bi`, `i`, `-i`.
    m = re.match(
        r"^(?P<re>[+-]?\d+(?:/\d+)?)?(?P<im>[+-](?:\d+(?:/\d+)?)?)?i$", t
    )
    if not m:
        raise ParseError(f"bad Gaussian scalar: {text!r}")
    re_part = m.group("re")
    im_part = m.group("im")
    if im_part is None:
        # Form was `bi` with the real part regex having eaten the coefficient,
        # or a bare `i`.
        im_part = re_part if re_part is not None else "+"
        re_part = "0"
    elif re_part is None:
        re_part = "0"
    if im_part in ("+", "-"):
        im_part += "1"
    return GaussianRational(Fraction(re_part), Fraction(im_part))


def format_scalar(a) -> str:
    """Canonical textual form; round-trips exactly through parse_scalar."""
    if isinstance(a, GaussianRational):
        if a.im == 0:
            return str(a.re)
        im = str(a.im)
        if not im.startswith("-"):
            im = "+" + im
        return f"{a.re}{im}i"
    return str(Fraction(a))
