"""Irreducible factorization over the rationals.

The pipeline is squarefree decomposition (Yun), then Zassenhaus on each
squarefree part: reduce modulo a small odd prime, split with
distinct-degree / equal-degree factorization, Hensel lift, and recombine
factor subsets with exact trial division.  Linear factors need no search
of their own: each is one modular factor, found among the subsets of
size one.  Degrees at the scale this package targets (a few dozen) are
well within reach of this classical route.

Coefficients must be rational.  A Q+iQ polynomial is refused even when
every imaginary part is zero, since factors over Q are not factors over
Q(i).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd as _igcd, isqrt

from .errors import UnsupportedField
from .field import GaussianRational
from .poly import Poly, _int_divmod, _int_mul, _int_primitive, _strip, poly_gcd
from .prng import SplitMix64


@dataclass(frozen=True)
class FactoredPoly:
    """unit * prod(p**e) == the factored polynomial, p monic irreducible."""

    unit: Fraction
    factors: tuple  # of (Poly, int), canonical order

    def expand(self) -> Poly:
        out = Poly.const(self.unit)
        for p, e in self.factors:
            out = out * p**e
        return out

    def __iter__(self):
        return iter(self.factors)

    def __len__(self):
        return len(self.factors)


def _factor_sort_key(p: Poly):
    return (p.degree, tuple(p.coeffs))


def factor_over_rationals(f: Poly) -> FactoredPoly:
    """Factor a nonzero polynomial over Q into monic irreducibles."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if any(isinstance(c, GaussianRational) for c in f.coeffs):
        raise UnsupportedField(
            "factorization over Q+iQ is not provided; compute a local form "
            "at a monic irreducible p with local_smith or `smith local --prime`"
        )
    unit = Fraction(f.lc())
    work = f.monic()
    found: dict[Poly, int] = {}

    # powers of lambda first
    k = 0
    while k <= work.degree and not work.coeffs[k]:
        k += 1
    if k:
        found[Poly.x()] = k
        work = Poly(work.coeffs[k:])

    for part, mult in _squarefree(work):
        for irr in _factor_squarefree(part):
            found[irr] = found.get(irr, 0) + mult

    factors = tuple(sorted(found.items(), key=lambda it: _factor_sort_key(it[0])))
    return FactoredPoly(unit=unit, factors=factors)


def _squarefree(f: Poly):
    """Yun's algorithm; yields (monic squarefree part, multiplicity)."""
    if f.degree < 1:
        return
    df = f.derivative()
    a = poly_gcd(f, df)
    if a.is_constant():
        yield f, 1
        return
    b = f.exact_div(a)
    c = df.exact_div(a)
    d = c - b.derivative()
    i = 1
    while not b.is_constant():
        a_i = poly_gcd(b, d)
        if a_i.degree >= 1:
            yield a_i.monic(), i
        b = b.exact_div(a_i)
        c = d.exact_div(a_i)
        d = c - b.derivative()
        i += 1


def _factor_squarefree(f: Poly) -> list[Poly]:
    """Monic irreducible factors of a monic squarefree polynomial."""
    if f.degree < 1:
        return []
    return [h.monic() for h in _zassenhaus(_int_primitive(f))]


# -- arithmetic in GF(p), ascending int lists -------------------------------


def _gf_from_int(f: list[int], p: int) -> list[int]:
    return _strip([c % p for c in f])


def _gf_sub(a, b, p):
    return _gf_from_int(_z_sub(a, b), p)


def _gf_mul(a, b, p):
    return _gf_from_int(_z_mul(a, b), p)


def _gf_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError
    a = list(a)
    db = len(b) - 1
    if len(a) - 1 < db:
        return [], _strip(a)
    inv = pow(b[-1], p - 2, p)
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] % p
        if not c:
            continue
        f = (c * inv) % p
        q[i - db] = f
        for j in range(db + 1):
            a[i - db + j] = (a[i - db + j] - f * b[j]) % p
    return _strip(q), _strip(a[:db])


def _gf_monic(a, p):
    if not a or a[-1] == 1:
        return list(a)
    inv = pow(a[-1], p - 2, p)
    return [(c * inv) % p for c in a]


def _gf_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _gf_divmod(a, b, p)[1]
    return _gf_monic(a, p)


def _gf_pow_mod(a, n, m, p):
    result = [1]
    base = _gf_divmod(a, m, p)[1]
    while n:
        if n & 1:
            result = _gf_divmod(_gf_mul(result, base, p), m, p)[1]
        n >>= 1
        if n:
            base = _gf_divmod(_gf_mul(base, base, p), m, p)[1]
    return result


def _gf_deriv(a, p):
    return _strip([(i * c) % p for i, c in enumerate(a)][1:])


def _gf_is_squarefree(a, p):
    d = _gf_deriv(a, p)
    if not d:
        return False
    return len(_gf_gcd(a, d, p)) == 1


def _gf_distinct_degree(f, p):
    """[(product of irreducibles of degree d, d), ...] for monic squarefree f."""
    out = []
    h = [0, 1]
    v = list(f)
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = _gf_pow_mod(h, p, v, p)
        g = _gf_gcd(_gf_sub(h, [0, 1], p), v, p)
        if len(g) > 1:
            out.append((g, d))
            v = _gf_divmod(v, g, p)[0]
            h = _gf_divmod(h, v, p)[1]
    if len(v) > 1:
        out.append((v, len(v) - 1))
    return out


def _gf_equal_degree(f, d, p, rng: SplitMix64):
    """Cantor-Zassenhaus split of a product of degree-d irreducibles (p odd)."""
    n = len(f) - 1
    if n == d:
        return [f]
    exponent = (p**d - 1) // 2
    while True:
        a = [rng.below(p) for _ in range(n)]
        a = _strip(a)
        if len(a) < 2:
            continue
        g = _gf_gcd(a, f, p)
        if len(g) > 1:
            h = g
        else:
            t = _gf_pow_mod(a, exponent, f, p)
            h = _gf_gcd(_gf_sub(t, [1], p), f, p)
            if len(h) <= 1 or len(h) == len(f):
                continue
        left = _gf_equal_degree(h, d, p, rng)
        right = _gf_equal_degree(_gf_divmod(f, h, p)[0], d, p, rng)
        return left + right


def _gf_factor_squarefree(f, p, seed):
    f = _gf_monic(f, p)
    out = []
    for g, d in _gf_distinct_degree(f, p):
        rng = SplitMix64(seed ^ (d * 0x9E3779B97F4A7C15))
        out.extend(_gf_equal_degree(g, d, p, rng))
    out.sort(key=lambda h: (len(h), h))
    return out


# -- Hensel lifting ---------------------------------------------------------


def _z_mul(a, b):
    return _strip(_int_mul(a, b)) if a and b else []


def _z_add(a, b):
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] += c
    return _strip(out)


def _z_sub(a, b):
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _strip(out)


def _z_trunc(a, m):
    """Coefficients reduced to the symmetric range (-m/2, m/2]."""
    out = []
    half = m // 2
    for c in a:
        c %= m
        if c > half:
            c -= m
        out.append(c)
    return _strip(out)


def _hensel_step(m, f, g, h, s, t):
    """Quadratic lift: from f=gh, sg+th=1 (mod m) to the same mod m**2.

    Requires h monic and deg f = deg g + deg h.
    """
    M = m * m
    e = _z_trunc(_z_sub(f, _z_mul(g, h)), M)
    q, r = _int_divmod(_z_mul(s, e), h)
    q = _z_trunc(q, M)
    r = _z_trunc(r, M)
    u = _z_add(_z_mul(t, e), _z_mul(q, g))
    G = _z_trunc(_z_add(g, u), M)
    H = _z_trunc(_z_add(h, r), M)
    u = _z_add(_z_mul(s, G), _z_mul(t, H))
    b = _z_trunc(_z_sub(u, [1]), M)
    c, d = _int_divmod(_z_mul(s, b), H)
    c = _z_trunc(c, M)
    d = _z_trunc(d, M)
    u = _z_add(_z_mul(t, b), _z_mul(c, G))
    S = _z_trunc(_z_sub(s, d), M)
    T = _z_trunc(_z_sub(t, u), M)
    return G, H, S, T


def _gf_xgcd(a, b, p):
    old_r, r = list(a), list(b)
    old_s, s = [1], []
    old_t, t = [], [1]
    while r:
        q, rem = _gf_divmod(old_r, r, p)
        old_r, r = r, rem
        old_s, s = s, _gf_sub(old_s, _gf_mul(q, s, p), p)
        old_t, t = t, _gf_sub(old_t, _gf_mul(q, t, p), p)
    if not old_r:
        return [], [], []
    inv = pow(old_r[-1], p - 2, p)
    scale = lambda v: _strip([(c * inv) % p for c in v])
    return scale(old_r), scale(old_s), scale(old_t)


def _hensel_lift(p, f, factors_mod_p, l):
    """Lift monic pairwise-coprime factors of f mod p to factors mod p**l."""
    r = len(factors_mod_p)
    lc = f[-1]
    pl = p**l
    if r == 1:
        inv = pow(lc % pl, -1, pl)
        return [_z_trunc([c * inv for c in f], pl)]
    k = r // 2
    d = max(1, (l - 1).bit_length())
    g = [lc % p]
    for fi in factors_mod_p[:k]:
        g = _gf_mul(g, fi, p)
    h = list(factors_mod_p[k])
    for fi in factors_mod_p[k + 1 :]:
        h = _gf_mul(h, fi, p)
    _, s, t = _gf_xgcd(g, h, p)
    g = _z_trunc(g, p)
    h = _z_trunc(h, p)
    s = _z_trunc(s, p)
    t = _z_trunc(t, p)
    m = p
    for _ in range(d):
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m = m * m
    return _hensel_lift(p, g, factors_mod_p[:k], l) + _hensel_lift(
        p, h, factors_mod_p[k:], l
    )


# -- Zassenhaus -------------------------------------------------------------


def _z_primitive(a):
    g = 0
    for c in a:
        g = _igcd(g, c)
    if g > 1:
        a = [c // g for c in a]
    if a and a[-1] < 0:
        a = [-c for c in a]
    return a


def _select_prime(ints):
    p = 3
    while True:
        if ints[-1] % p != 0:
            fp = _gf_from_int(ints, p)
            if len(fp) == len(ints) and _gf_is_squarefree(fp, p):
                return p
        p += 2
        while not _is_prime(p):
            p += 2


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _zassenhaus(ints: list[int]) -> list[Poly]:
    """Irreducible factors (as Polys) of a primitive squarefree integer
    polynomial of degree >= 1."""
    n = len(ints) - 1
    if n == 1:
        return [Poly(ints)]
    A = max(abs(c) for c in ints)
    b = ints[-1]
    B = (isqrt(n + 1) + 1) * (1 << n) * A * abs(b)
    p = _select_prime(ints)
    l = 1
    pl = p
    while pl <= 2 * B:
        pl *= p
        l += 1
    modular = _gf_factor_squarefree(_gf_from_int(ints, p), p, seed=p)
    if len(modular) == 1:
        return [Poly(ints)]
    lifted = _hensel_lift(p, ints, modular, l)

    remaining = list(range(len(lifted)))
    factors: list[Poly] = []
    f = list(ints)
    s = 1
    while 2 * s <= len(remaining):
        found = None
        for subset in combinations(remaining, s):
            g = [b]
            for i in subset:
                g = _z_trunc(_z_mul(g, lifted[i]), pl)
            cand = _z_primitive(g)
            # quick test on the constant coefficient before exact division
            if f[0] != 0 and cand[0] != 0 and f[0] % cand[0] != 0:
                continue
            q, r = _int_divmod(f, cand)
            if q is not None and not r:
                found = (subset, cand, q)
                break
        if found is None:
            s += 1
            continue
        subset, cand, q = found
        factors.append(Poly(cand))
        f = q
        b = f[-1]
        remaining = [i for i in remaining if i not in subset]
    if len(f) > 1:
        factors.append(Poly(_z_primitive(f)))
    return factors
