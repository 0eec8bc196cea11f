"""Reproducible test-matrix generation.

Each family starts from a known diagonal D and hides it by sandwiching
between products L*Z of unit lower/upper triangular matrices whose
off-diagonal entries are lambda - i for random integers i in [-10, 10],
optionally followed by a permutation.  The PRNG is the documented
splitmix generator, so a (family, param, seed, permutation) tuple pins
the matrix bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadFamilyParam
from .matpoly import MatPoly
from .poly import Poly
from .prng import SplitMix64

PERMUTATIONS = ("none", "revcols", "randrows")

_L = Poly.x()


@dataclass(frozen=True)
class FamilySpec:
    family: int
    param: int
    seed: int
    permutation: str = "none"

    def __post_init__(self):
        if self.permutation not in PERMUTATIONS:
            raise BadFamilyParam(f"unknown permutation {self.permutation!r}")


def family_diagonal(family: int, param: int) -> list:
    """The constructed diagonal for a family at its size parameter."""
    one = Poly.one()
    lam = _L
    if family == 1:
        n = param
        if n < 4:
            raise BadFamilyParam("family 1 needs n >= 4")
        tail = [
            lam,
            lam * (lam - 1),
            lam**2 * (lam - 1),
            lam**2 * (lam - 1) ** 2,
        ]
        return [one] * (n - 4) + tail
    if family == 2:
        l = param
        if l < 1:
            raise BadFamilyParam("family 2 needs l >= 1")
        prod = one
        for j in range(1, l + 1):
            prod = prod * (lam - j)
        return [one] * 8 + [prod]
    if family == 3:
        k = param
        if k < 1:
            raise BadFamilyParam("family 3 needs k >= 1")
        return [one] * 8 + [(lam - 1) ** k]
    if family == 4:
        n = param
        if n < 4:
            raise BadFamilyParam("family 4 needs n >= 4")
        p1 = Poly([1, 1, 1])
        p2 = Poly([1, 0, 1, 1, 1])
        tail = [p1, p1 * p2, p1**2 * p2, p1**2 * p2**2]
        return [one] * (n - 4) + tail
    if family == 5:
        k = param
        if k < 2:
            raise BadFamilyParam("family 5 needs k >= 2")
        prod = one
        for j in range(1, k + 1):
            prod = prod * Poly([j, 0, 1])
        return [one] * 6 + [prod, prod**2, prod**k]
    if family == 6:
        n = param
        if n < 3:
            raise BadFamilyParam("family 6 needs n >= 3")
        diag = [one, one]
        for i in range(3, n + 1):
            d = one
            for j in range(1, i - 1):
                d = d * Poly([j, 0, 1]) ** (i - 1 - j)
            diag.append(d)
        return diag
    raise BadFamilyParam(f"unknown family {family}")


def gen_test_matrix(spec: FamilySpec) -> MatPoly:
    diag = family_diagonal(spec.family, spec.param)
    n = len(diag)
    rng = SplitMix64(spec.seed)
    D = MatPoly.diag(diag)
    A = _unit_lower(n, rng) @ _unit_upper(n, rng) @ D
    A = A @ _unit_lower(n, rng) @ _unit_upper(n, rng)
    if spec.permutation == "revcols":
        A = A.permute_cols(list(range(n - 1, -1, -1)))
    elif spec.permutation == "randrows":
        perm = list(range(n))
        rng.shuffle(perm)
        A = A.permute_rows(perm)
    return A


def _off_diag_entry(rng: SplitMix64) -> Poly:
    return _L - rng.randint(-10, 10)


def _unit_triangular(n: int, rng: SplitMix64, below: bool) -> MatPoly:
    """I plus _off_diag_entry(rng) at each entry below the diagonal (or
    above it), drawn in row-major order."""
    return MatPoly([
        [
            Poly.one() if i == j else _off_diag_entry(rng) if (j < i) == below else Poly.zero()
            for j in range(n)
        ]
        for i in range(n)
    ])


def _unit_lower(n: int, rng: SplitMix64) -> MatPoly:
    return _unit_triangular(n, rng, below=True)


def _unit_upper(n: int, rng: SplitMix64) -> MatPoly:
    return _unit_triangular(n, rng, below=False)
