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
from math import isqrt
from operator import sub

from .errors import NotRegular, UnsupportedField
from .field import GaussianRational
from .gfpoly import (
    gf_divmod,
    gf_from_int,
    gf_gcd,
    gf_is_squarefree,
    gf_monic,
    gf_mul,
    gf_pow_mod,
    gf_sub,
    gf_xgcd,
    is_prime,
)
from .poly import (
    Poly,
    _content_free,
    _int_divmod,
    _int_mul,
    _int_primitive,
    _list_sum,
    _strip,
    poly_gcd,
)
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


def _factor_sort_key(p: Poly):
    return (p.degree, tuple(p.coeffs))


def factor_over_rationals(f: Poly) -> FactoredPoly:
    """Factor a nonzero polynomial over Q into monic irreducibles; the
    zero polynomial is NotRegular, as in factor_determinant."""
    if f.is_zero():
        raise NotRegular("cannot factor the zero polynomial")
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


# -- factoring in GF(p) (helpers in gfpoly) --------------------------------


def _gf_distinct_degree(f, p):
    """[(product of irreducibles of degree d, d), ...] for monic squarefree f."""
    out = []
    h = [0, 1]
    v = list(f)
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = gf_pow_mod(h, p, v, p)
        g = gf_gcd(gf_sub(h, [0, 1], p), v, p)
        if len(g) > 1:
            out.append((g, d))
            v = gf_divmod(v, g, p)[0]
            h = gf_divmod(h, v, p)[1]
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
        g = gf_gcd(a, f, p)
        if len(g) > 1:
            h = g
        else:
            t = gf_pow_mod(a, exponent, f, p)
            h = gf_gcd(gf_sub(t, [1], p), f, p)
            if len(h) <= 1 or len(h) == len(f):
                continue
        left = _gf_equal_degree(h, d, p, rng)
        right = _gf_equal_degree(gf_divmod(f, h, p)[0], d, p, rng)
        return left + right


def _gf_factor_squarefree(f, p, seed):
    f = gf_monic(f, p)
    out = []
    for g, d in _gf_distinct_degree(f, p):
        rng = SplitMix64(seed ^ (d * 0x9E3779B97F4A7C15))
        out.extend(_gf_equal_degree(g, d, p, rng))
    out.sort(key=lambda h: (len(h), h))
    return out


# -- Hensel lifting ---------------------------------------------------------


def _z_mul(a, b):
    return _strip(_int_mul(a, b)) if a and b else []


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
    e = _z_trunc(_list_sum(f, _z_mul(g, h), sub), M)
    q, r = _int_divmod(_z_mul(s, e), h)
    q = _z_trunc(q, M)
    r = _z_trunc(r, M)
    u = _list_sum(_z_mul(t, e), _z_mul(q, g))
    G = _z_trunc(_list_sum(g, u), M)
    H = _z_trunc(_list_sum(h, r), M)
    u = _list_sum(_z_mul(s, G), _z_mul(t, H))
    b = _z_trunc(_list_sum(u, [1], sub), M)
    c, d = _int_divmod(_z_mul(s, b), H)
    c = _z_trunc(c, M)
    d = _z_trunc(d, M)
    u = _list_sum(_z_mul(t, b), _z_mul(c, G))
    S = _z_trunc(_list_sum(s, d, sub), M)
    T = _z_trunc(_list_sum(t, u, sub), M)
    return G, H, S, T


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
        g = gf_mul(g, fi, p)
    h = list(factors_mod_p[k])
    for fi in factors_mod_p[k + 1 :]:
        h = gf_mul(h, fi, p)
    _, s, t = gf_xgcd(g, h, p)
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
    a = _content_free(a)
    if a and a[-1] < 0:
        a = [-c for c in a]
    return a


def _select_prime(ints):
    p = 3
    while True:
        if ints[-1] % p != 0:
            fp = gf_from_int(ints, p)
            if len(fp) == len(ints) and gf_is_squarefree(fp, p):
                return p
        p += 2
        while not is_prime(p):
            p += 2


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
    modular = _gf_factor_squarefree(gf_from_int(ints, p), p, seed=p)
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
