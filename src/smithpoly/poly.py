"""Dense univariate polynomials over an exact field (Q or Q+iQ).

Coefficients are stored ascending; the representation is canonical (no
trailing zeros), so ``==`` on Poly is exact mathematical equality.  The
zero polynomial has an empty coefficient tuple and degree -1.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd as _igcd, lcm

from .errors import ParseError
from .field import GaussianRational, format_scalar, parse_scalar


def _coerce(c):
    if isinstance(c, (Fraction, GaussianRational)):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"unsupported coefficient type: {type(c).__name__}")


class Poly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

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
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 1

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def lc(self):
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly):
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
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = [x - y for x, y in zip(a, b)]
        if len(a) > len(b):
            out.extend(a[len(b) :])
        else:
            out.extend(-y for y in b[len(a) :])
        return Poly(out)

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
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _ZERO
        if len(a) == 1:
            return other.scale(a[0])
        if len(b) == 1:
            return self.scale(b[0])
        fast = _int_convolve(a, b)
        if fast is not None:
            return fast
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] + ai * bj
        return Poly(out)

    __rmul__ = __mul__

    def scale(self, c):
        c = _coerce(c)
        if not c:
            return _ZERO
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

        Rational operands divide on integers (_int_divmod) when the divisor,
        its denominators cleared, has leading coefficient +-1, as every
        monic integer p does; other divisors and Gaussian coefficients take
        the field loop."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        b = other.coeffs
        db = len(b) - 1
        if len(self.coeffs) - 1 < db:
            return _ZERO, self
        ib = _cleared(b)
        ia = _cleared(self.coeffs) if ib and ib[0][-1] in (1, -1) else None
        if ia is not None:
            (a, da), (b, sb) = ia, ib
            q, r = _int_divmod(a, b)
            return _from_ints([c * sb for c in q], da), _from_ints(r, da)
        a = list(self.coeffs)
        inv_lc = 1 / b[-1]
        q = [Fraction(0)] * (len(a) - db)
        for i in range(len(a) - 1, db - 1, -1):
            c = a[i]
            if not c:
                continue
            f = c * inv_lc
            q[i - db] = f
            a[i] = c - c  # exact zero of the right type
            for j in range(db):
                a[i - db + j] = a[i - db + j] - f * b[j]
        return Poly(q), Poly(a[:db])

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
        if self.is_zero():
            return self
        c = self.coeffs[-1]
        if c == 1:
            return self
        return self.scale(1 / c)

    def derivative(self) -> "Poly":
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


def _as_poly(v):
    if isinstance(v, Poly):
        return v
    if isinstance(v, (int, Fraction, GaussianRational)):
        return Poly((v,))
    return None


def _cleared(coeffs):
    """(ints, m): the coefficients times m, the lcm of their denominators,
    as ints; None unless every coefficient is a Fraction."""
    if not all(isinstance(c, Fraction) for c in coeffs):
        return None
    m = lcm(*[c.denominator for c in coeffs])
    if m == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (m // c.denominator) for c in coeffs], m


def _from_ints(ints, den=1) -> "Poly":
    """The Poly with Fraction coefficients ints[k] / den; strips ints in place."""
    _strip(ints)
    out = Poly.__new__(Poly)
    object.__setattr__(
        out,
        "coeffs",
        tuple(map(Fraction, ints) if den == 1 else (Fraction(c, den) for c in ints)),
    )
    return out


def _int_divmod(a, b):
    """Quotient and remainder of integer coefficient lists (ascending) when
    every quotient coefficient is an integer, else (None, None).  A divisor
    with leading coefficient +-1 always divides."""
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


def _strip(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _int_convolve(a, b):
    """Fast path: rational-only convolution through integers.

    Clears denominators per operand, convolves with machine/bignum ints,
    then restores a single common denominator.  Returns None when either
    operand has a non-rational coefficient.
    """
    ca, cb = _cleared(a), _cleared(b)
    if ca is None or cb is None:
        return None
    (ia, da), (ib, db) = ca, cb
    return _from_ints(_int_mul(ia, ib), da * db)


def _int_mul(a: list, b: list, acc=None) -> list:
    """acc + a*b for integer coefficient lists (ascending), a and b
    nonempty; acc (a new list by default) is extended and updated in place."""
    n = len(a) + len(b) - 1
    if acc is None:
        acc = [0] * n
    elif len(acc) < n:
        acc.extend([0] * (n - len(acc)))
    lb = len(b)
    for i, ai in enumerate(a):
        if ai:
            acc[i : i + lb] = [x + ai * y for x, y in zip(acc[i : i + lb], b)]
    return acc


_ZERO = Poly.__new__(Poly)
object.__setattr__(_ZERO, "coeffs", ())
_ONE = Poly.__new__(Poly)
object.__setattr__(_ONE, "coeffs", (Fraction(1),))
_X = Poly.__new__(Poly)
object.__setattr__(_X, "coeffs", (Fraction(0), Fraction(1)))


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
    cleared = _cleared(f.coeffs)
    return None if cleared is None else _content_free(cleared[0])


def _content_free(ints: list) -> list:
    """An integer list divided by the gcd of its entries."""
    g = _igcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


def _int_gcd_prs(a: list, b: list) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    while True:
        r = _int_pseudo_rem(a, b)
        if not r:
            break
        a, b = b, _content_free(r)
    lc = b[-1]
    return Poly([Fraction(c, lc) for c in b])


def _int_pseudo_rem(a: list, b: list) -> list:
    a = list(a)
    db = len(b) - 1
    lcb = b[-1]
    while len(a) - 1 >= db:
        lca = a[-1]
        if lcb != 1:
            a = [c * lcb for c in a]
        shift = len(a) - 1 - db
        for j in range(db + 1):
            a[shift + j] -= lca * b[j]
        while a and a[-1] == 0:
            a.pop()
        if not a:
            break
    return a


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
            k = int(exp_txt) if exp_txt is not None else 1
        coeffs[k] = coeffs.get(k, Fraction(0)) + sign * coef
        pos = m.end()
    top = max(coeffs)
    return Poly([coeffs.get(k, Fraction(0)) for k in range(top + 1)])
