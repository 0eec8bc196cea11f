import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from hypothesis import settings

from smithpoly.localsmith import _ResidueLane
from smithpoly.matpoly import MatPoly, _integer_rows
from smithpoly.poly import Poly
from smithpoly.prng import SplitMix64

# every property test replays the same examples and keeps none between
# runs; each one sets its own max_examples
settings.register_profile("exact", deadline=None, derandomize=True, database=None)
settings.load_profile("exact")


def random_poly(rng: SplitMix64, deg: int, lo: int = -5, hi: int = 5) -> Poly:
    return Poly([rng.randint(lo, hi) for _ in range(deg + 1)])


def random_matrix(rng: SplitMix64, n: int, deg: int, lo: int = -5, hi: int = 5):
    return MatPoly(
        [[random_poly(rng, deg, lo, hi) for _ in range(n)] for _ in range(n)]
    )


def digits_in_p(A: MatPoly, p: Poly, count: int | None = None) -> list:
    """The first `count` digits of A in powers of p (by default as many as
    the highest degree needs), from localsmith._plane_digits over K as the
    residue lane keeps them: grids of Poly of degree < deg p, of A's rows
    scaled to integers (integer_scaled) when A is rational."""
    if count is None:
        count = max(A.max_degree(), 0) // p.degree + 1
    return _ResidueLane(A, p, count).digits


def integer_scaled(A: MatPoly) -> MatPoly:
    """A rational A with each row times the lcm of its denominators
    (matpoly._integer_rows); a Gaussian A as it is."""
    one, scales, _ = _integer_rows(A.entries)
    if type(one) is not int:
        return A
    return MatPoly([[e.scale(m) for e in row] for row, m in zip(A.entries, scales)])


@lru_cache(maxsize=None)
def companion_powers(p: Poly) -> tuple:
    """C^0, ..., C^(s-1) for the companion matrix C of monic p of degree s:
    the action of the basis elements 1, l, ..., l^(s-1) of R/pR."""
    s = p.degree
    # subdiagonal ones, last column the negated low-order coefficients
    C = [
        [Fraction(int(j == i - 1)) for j in range(s - 1)] + [-p.coeffs[i]]
        for i in range(s)
    ]
    powers = [[[Fraction(int(i == j)) for j in range(s)] for i in range(s)]]
    while len(powers) < s:
        last = powers[-1]
        powers.append(
            [
                [sum((crow[m] * last[m][j] for m in range(s)), Fraction(0)) for j in range(s)]
                for crow in C
            ]
        )
    return tuple(powers)


def companion_product(a: Poly, b: Poly, p: Poly) -> tuple:
    """Coefficients of a * b in R/pR (deg a, deg b < deg p) as the action
    sum_i a_i C^i applied to b; it never divides by p, so it is a
    reference for residue products."""
    s = p.degree
    bs = list(b.coeffs) + [Fraction(0)] * (s - len(b.coeffs))
    out = [Fraction(0)] * s
    for ai, power in zip(a.coeffs, companion_powers(p)):
        for r, row in enumerate(power):
            out[r] = out[r] + ai * sum((x * y for x, y in zip(row, bs)), Fraction(0))
    return tuple(out)
