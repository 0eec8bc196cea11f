"""Dense univariate polynomials over an exact field (Q or Q+iQ).

Coefficients are ascending, with no trailing zeros; the zero polynomial
has none and degree -1.

A rational polynomial is held in its integer form (nums, den): den > 0
is the lcm of the coefficient denominators and nums[k] = den * c_k, so
gcd(den, *nums) == 1.  The form is canonical, so ``==`` compares it
directly, and every rational producer (the constructor, _from_ints and
the arithmetic here, and the integer kernels of matpoly and
globalsmith) stores it after one gcd and builds no Fraction.  ``coeffs``,
the tuple of Fraction coefficients, is built from the integer form on
its first read (_view) and then stored.  A polynomial with a Gaussian
coefficient keeps a coefficient tuple and has no integer form.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from math import gcd, lcm

from .errors import ParseError, TooLarge
from .field import GaussianRational, format_scalar, parse_scalar


def _coerce(c):
    if isinstance(c, (Fraction, GaussianRational)):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"unsupported coefficient type: {type(c).__name__}")


class Poly:
    # _nums and _den: the integer form, None for Gaussian coefficients;
    # _len: the number of coefficients; coeffs: unset until first read
    # on an integer form (__getattr__)
    __slots__ = ("coeffs", "_nums", "_den", "_len")

    def __new__(cls, coeffs=()):
        cs = list(coeffs)
        if all(type(c) is int for c in cs):
            return _form(tuple(_strip(cs)), 1)
        cs = _strip([_coerce(c) for c in cs])
        if not all(isinstance(c, Fraction) for c in cs):
            return _form(None, None, tuple(cs))
        den = lcm(*[c.denominator for c in cs])
        return _form(tuple(c.numerator * (den // c.denominator) for c in cs), den, tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __getattr__(self, name):
        # reached only for an unset slot: coeffs of an integer form not read yet
        if name != "coeffs":
            raise AttributeError(name)
        view = _view(self._nums, self._den)
        _SET_COEFFS(self, view)
        return view

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _ZERO

    @staticmethod
    def one() -> "Poly":
        return _ONE

    @staticmethod
    def x() -> "Poly":
        return _X

    @staticmethod
    def const(c) -> "Poly":
        return Poly((c,))

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial mapped to -1."""
        return self._len - 1

    def is_zero(self) -> bool:
        return not self._len

    def is_one(self) -> bool:
        return self == _ONE

    def is_constant(self) -> bool:
        return self._len <= 1

    def is_monic(self) -> bool:
        if self._nums is not None:
            return bool(self._len) and self._nums[-1] == self._den
        return bool(self._len) and self.coeffs[-1] == 1

    def lc(self):
        """Leading coefficient (0 for the zero polynomial)."""
        if not self._len:
            return Fraction(0)
        if self._nums is not None:
            return Fraction(self._nums[-1], self._den)
        return self.coeffs[-1]

    def __bool__(self):
        return bool(self._len)

    def __eq__(self, other):
        if isinstance(other, Poly):
            if self._nums is not None and other._nums is not None:
                return self._den == other._den and self._nums == other._nums
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self == Poly((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        if self._nums is not None and other._nums is not None:
            return _int_sum(self, other, 1)
        return Poly(_list_sum(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        if self._nums is not None:
            return _form(tuple([-c for c in self._nums]), self._den)
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        if self._nums is not None and other._nums is not None:
            return _int_sum(self, other, -1)
        return Poly(_list_sum(self.coeffs, other.coeffs, operator.sub))

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        if not self._len or not other._len:
            return _ZERO
        if self._nums is not None and other._nums is not None:
            # _int_mul's outer loop runs over its first factor: the shorter one
            a, b = (self, other) if self._len <= other._len else (other, self)
            return _from_ints(_int_mul(a._nums, b._nums), self._den * other._den)
        a, b = self.coeffs, other.coeffs
        if len(a) == 1:
            return other.scale(a[0])
        if len(b) == 1:
            return self.scale(b[0])
        return Poly(_int_mul(a, b))

    __rmul__ = __mul__

    def scale(self, c):
        c = _coerce(c)
        if not c:
            return _ZERO
        if self._nums is not None and isinstance(c, Fraction):
            n = c.numerator
            return _from_ints([a * n for a in self._nums], self._den * c.denominator)
        return Poly([a * c for a in self.coeffs])

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def divmod(self, other: "Poly"):
        """Exact quotient and remainder: self = q*other + r, deg r < deg other.

        Integer forms divide on integers by pseudo-division
        (_pseudo_divmod), whatever the divisor's leading coefficient: its
        scale s goes into the denominators of q and r.  Gaussian
        coefficients run the same kernel (_int_divmod) on the divisor
        made monic, and q is scaled back by the inverse of the divisor's
        leading coefficient."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self._len < other._len:
            return _ZERO, self
        a, b = self._nums, other._nums
        if a is not None and b is not None:
            q, r, s = _pseudo_divmod(a, b)
            sb = other._den
            if sb != 1:
                q = [c * sb for c in q]
            return _from_ints(q, self._den * s), _from_ints(r, self._den * s)
        inv = 1 / other.coeffs[-1]
        q, r = _int_divmod(self.coeffs, [c * inv for c in other.coeffs])
        # `c and`: an unset coefficient stays the int 0, read as Fraction(0)
        # as in the long division over the field, not a Gaussian zero
        return Poly([c and c * inv for c in q]), Poly(r)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def monic(self) -> "Poly":
        if not self._len or self.is_monic():
            return self
        if self._nums is not None:
            return _from_ints(list(self._nums), self._nums[-1])
        return self.scale(1 / self.coeffs[-1])

    def derivative(self) -> "Poly":
        if self._nums is not None:
            return _from_ints([i * c for i, c in enumerate(self._nums)][1:], self._den)
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- textual forms ---------------------------------------------------

    def coeff_text(self) -> str:
        """Space-separated ascending coefficients, e.g. `2 0 1` = 2 + l^2."""
        if self.is_zero():
            return "0"
        return " ".join(format_scalar(c) for c in self.coeffs)

    def human_text(self) -> str:
        """Human form in the variable `l`, e.g. `l^2+2`."""
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            cs = format_scalar(c)
            if k == 0:
                term = cs if "+" not in cs[1:] and "i" not in cs else f"({cs})"
            else:
                var = "l" if k == 1 else f"l^{k}"
                if cs == "1":
                    term = var
                elif cs == "-1":
                    term = f"-{var}"
                elif "i" in cs or "+" in cs[1:]:
                    term = f"({cs})*{var}"
                else:
                    term = f"{cs}*{var}"
            if parts and not term.startswith("-"):
                parts.append("+")
            parts.append(term)
        return "".join(parts)

    def __repr__(self):
        return f"Poly[{self.human_text()}]"


_SET_COEFFS = Poly.coeffs.__set__
_SET_NUMS = Poly._nums.__set__
_SET_DEN = Poly._den.__set__
_SET_LEN = Poly._len.__set__
_NEW = object.__new__


def _form(nums, den, coeffs=None) -> Poly:
    """The Poly with the integer form (nums, den), which must be
    canonical, or with nums = den = None and Gaussian coeffs; coeffs, if
    given, is its coefficient tuple."""
    out = _NEW(Poly)
    _SET_NUMS(out, nums)
    _SET_DEN(out, den)
    _SET_LEN(out, len(coeffs if nums is None else nums))
    if coeffs is not None:
        _SET_COEFFS(out, coeffs)
    return out


def _view(nums, den) -> tuple:
    """The Fraction coefficients nums[k] / den, each in lowest terms after
    one gcd.  Fraction's slots are written directly: Fraction(n, d) would
    take the gcd and check its operands again."""
    out = []
    for n in nums:
        f = _NEW(Fraction)
        if den == 1:
            f._numerator, f._denominator = n, 1
        else:
            g = gcd(n, den)
            f._numerator, f._denominator = n // g, den // g
        out.append(f)
    return tuple(out)


def _as_poly(v):
    if isinstance(v, Poly):
        return v
    if isinstance(v, (int, Fraction, GaussianRational)):
        return Poly((v,))
    return None


def _from_ints(ints, den=1) -> "Poly":
    """The Poly with coefficients ints[k] / den, den a nonzero int, in its
    integer form: ints is stripped in place, and ints and den are divided
    by gcd(den, *ints), signed so that den > 0.  No Fraction is built."""
    _strip(ints)
    if den != 1:
        g = gcd(den, *ints)
        if den < 0:
            g = -g
        if g != 1:
            ints = [c // g for c in ints]
            den //= g
    return _form(tuple(ints), den)


def _int_sum(a: Poly, b: Poly, sign: int) -> Poly:
    """a + sign * b for integer forms, over the lcm of their dens."""
    da, db = a._den, b._den
    den = da if da == db else lcm(da, db)
    fa, fb = den // da, sign * (den // db)
    x = [c * fa for c in a._nums] if fa != 1 else list(a._nums)
    y = [c * fb for c in b._nums] if fb != 1 else list(b._nums)
    if len(x) < len(y):
        x, y = y, x
    x[: len(y)] = map(operator.add, x, y)
    return _from_ints(x, den)


def _int_divmod(a, b):
    """Quotient and remainder of coefficient lists (ascending) when every
    quotient coefficient is an integer, else (None, None).  A divisor
    with leading coefficient +-1 always divides, over any ring: the
    Gaussian branch of Poly.divmod passes a monic divisor over Q(i)."""
    a = list(a)
    db = len(b) - 1
    if len(a) - 1 < db:
        return [], _strip(a)
    lc, low = b[-1], b[:db]
    unit = lc in (1, -1)
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if not c:
            continue
        if unit:
            f = c * lc
        else:
            f, rem = divmod(c, lc)
            if rem:
                return None, None
        q[i - db] = f
        a[i - db : i] = [x - f * y for x, y in zip(a[i - db : i], low)]
    return q, _strip(a[:db])


def _pseudo_divmod(a, b):
    """(q, r, s) with s a = q b + r for integer coefficient lists, deg r <
    deg b: pseudo-division (Knuth, TAOCP Vol. 2, 4.6.1, Algorithm R).
    s = lc(b)**(deg a - deg b + 1), or 1 where lc(b) is +-1 or deg a <
    deg b, so every quotient coefficient of s a is an integer and
    _int_divmod divides it."""
    lc = b[-1]
    s = 1 if lc in (1, -1) or len(a) < len(b) else lc ** (len(a) - len(b) + 1)
    q, r = _int_divmod([c * s for c in a] if s != 1 else a, b)
    return q, r, s


def _list_sum(a, b, op=operator.add) -> list:
    """op(a_k, b_k) for ascending coefficient lists over any ring (a + b,
    or a - b for op = operator.sub), the shorter one padded with 0, and
    stripped."""
    out = list(a) + [0] * (len(b) - len(a))
    out[: len(b)] = map(op, out, b)
    return _strip(out)


def _strip(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _int_mul(a, b) -> list:
    """a*b for nonempty coefficient sequences (ascending) over any ring."""
    acc = [0] * (len(a) + len(b) - 1)
    lb = len(b)
    for i, ai in enumerate(a):
        if ai:
            acc[i : i + lb] = [x + ai * y for x, y in zip(acc[i : i + lb], b)]
    return acc


def _pack(ints, B: int) -> int:
    """sum_k ints[k] * 2**(B*k): one B-bit two's-complement slot per value,
    which _unpack reads back while every value lies in [-2**(B-1),
    2**(B-1))."""
    v = 0
    for a in reversed(ints):
        v = (v << B) + a
    return v


def _unpack(v: int, B: int, count: int) -> list:
    """The first `count` slots of _pack(_, B), each read in [-2**(B-1),
    2**(B-1)); a negative slot borrows one from the slot above."""
    mask, half = (1 << B) - 1, 1 << (B - 1)
    out = []
    for _ in range(count):
        s = v & mask
        v >>= B
        if s >= half:
            s -= mask + 1
            v += 1
        out.append(s)
    return out


def _pack_gaussian(values, B: int) -> GaussianRational:
    """Gaussian integers (GaussianRational with integer parts) in B-bit
    slots: one GaussianRational whose parts are _pack of the real parts
    and of the imaginary parts, the polynomial with coefficients `values`
    at x = 2**B."""
    return GaussianRational(
        _pack([v.re.numerator for v in values], B),
        _pack([v.im.numerator for v in values], B),
    )


def _unpack_gaussian(v: GaussianRational, B: int, count: int) -> list:
    """The first `count` slots of _pack_gaussian(_, B), both parts read
    as _unpack reads them."""
    parts = _unpack(v.re.numerator, B, count), _unpack(v.im.numerator, B, count)
    return list(map(GaussianRational, *parts))


_ZERO = _form((), 1)
_ONE = _form((1,), 1)
_X = _form((0, 1), 1)


# -- GCDs ----------------------------------------------------------------


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd (0 when both inputs are 0).

    Rational inputs go through a primitive pseudo-remainder sequence over
    the integers to keep coefficient growth polynomial; other fields fall
    back to the monic Euclidean algorithm.
    """
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    ia = _int_primitive(a)
    ib = _int_primitive(b)
    if ia is not None and ib is not None:
        return _int_gcd_prs(ia, ib)
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def _int_primitive(f: Poly):
    """Primitive integer coefficient list for a rational poly, else None."""
    return None if f._nums is None else _content_free(list(f._nums))


def _content_free(ints: list) -> list:
    """An integer list divided by the gcd of its entries."""
    g = gcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


def _int_gcd_prs(a: list, b: list) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    while True:
        r = _pseudo_divmod(a, b)[1]
        if not r:
            break
        a, b = b, _content_free(r)
    return _from_ints(b, b[-1])


def poly_xgcd(a: Poly, b: Poly):
    """Extended Euclid: (g, u, v) with u*a + v*b = g, g monic (or 0)."""
    old_r, r = a, b
    old_u, u = _ONE, _ZERO
    old_v, v = _ZERO, _ONE
    while not r.is_zero():
        q, rem = old_r.divmod(r)
        old_r, r = r, rem
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r.is_zero():
        return _ZERO, _ZERO, _ZERO
    c = old_r.lc()
    if c == 1:
        return old_r, old_u, old_v
    ci = 1 / c
    return old_r.scale(ci), old_u.scale(ci), old_v.scale(ci)


# -- parsing ---------------------------------------------------------------

# a human-form exponent above this is refused (TooLarge) before the
# coefficient list is built
MAX_DEGREE = 10**5

_TERM_RE = re.compile(
    r"(?P<sign>[+-]?)\s*"
    r"(?:(?P<coef>\(\s*[^)]*\s*\)|\d+(?:/\d+)?|i)\s*\*?\s*)?"
    r"(?:(?P<var>l)(?:\^(?P<exp>\d+))?)?"
)


def parse_poly(text: str) -> Poly:
    """Parse either coefficient-list form (`2 0 1`) or human form (`l^2+2`)."""
    t = text.strip()
    if not t:
        raise ParseError("empty polynomial")
    if "l" not in t and "(" not in t and "^" not in t and "*" not in t:
        parts = t.split()
        if all(_looks_like_scalar(p) for p in parts):
            return Poly([parse_scalar(p) for p in parts])
    return _parse_human(t)


def _looks_like_scalar(tok: str) -> bool:
    try:
        parse_scalar(tok)
        return True
    except ParseError:
        return False


def _parse_human(t: str) -> Poly:
    t = t.replace(" ", "")
    if not t:
        raise ParseError("empty polynomial")
    pos = 0
    coeffs: dict[int, object] = {}
    while pos < len(t):
        m = _TERM_RE.match(t, pos)
        if not m or m.end() == pos:
            raise ParseError(f"bad polynomial syntax near {t[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        coef_txt = m.group("coef")
        var = m.group("var")
        exp_txt = m.group("exp")
        if coef_txt is None and var is None:
            raise ParseError(f"bad polynomial syntax near {t[pos:]!r}")
        if coef_txt is None:
            coef = Fraction(1)
        elif coef_txt.startswith("("):
            coef = parse_scalar(coef_txt[1:-1])
        else:
            coef = parse_scalar(coef_txt)
        k = 0
        if var is not None:
            k = _exponent(exp_txt) if exp_txt is not None else 1
        coeffs[k] = coeffs.get(k, Fraction(0)) + sign * coef
        pos = m.end()
    top = max(coeffs)
    return Poly([coeffs.get(k, Fraction(0)) for k in range(top + 1)])


def _exponent(digits: str) -> int:
    # the length test first: int() refuses a string of over 4300 digits
    if len(digits.lstrip("0")) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
        raise TooLarge(f"exponent {digits[:20]} is above the cap {MAX_DEGREE}")
    return int(digits)
