"""Bit-identity of the pipeline's outputs on a fixed set of instances.

One sha256 covers D, V, E and U of `smith_with_multipliers` and the
exponents, V and E of both local lanes at every prime, with every
coefficient written by `repr`, so a changed value or a changed coefficient
type (Fraction or GaussianRational) changes the hash.  A kernel swap that
is meant to leave the outputs alone must leave this hash alone; a change
that means to alter an output updates GOLDEN and says why.
"""

import hashlib
from fractions import Fraction

from smithpoly import (
    FamilySpec,
    MatPoly,
    Poly,
    factor_determinant,
    gen_test_matrix,
    local_smith,
    local_smith_over_K,
    smith_with_multipliers,
)
from smithpoly.field import GaussianRational

# (family, param, permutation, seed, with_U).  Seeds 2024061300 + k are the
# benchmark's instances k at its default seed; 20240811 is the test corpus.
INSTANCES = [
    (3, 4, "none", 2024061300, False),  # large-n, one prime
    (1, 8, "none", 2024061302, False),  # large-n, two primes
    (4, 4, "none", 2024061302, False),  # many-primes, a quartic prime
    (6, 4, "none", 2024061306, False),  # many-primes
    (1, 6, "revcols", 2024061300, True),  # with-U
    (6, 4, "revcols", 2024061307, True),  # with-U
    (2, 3, "revcols", 20240811, True),
    (5, 2, "none", 20240811, False),
]

GOLDEN = "921d0430d0485046da961a3b39ba167fb791c9ccd6ae46a16a0f8898656da4fc"


def _text(M: MatPoly) -> str:
    return ";".join(",".join(repr(e.coeffs) for e in row) for row in M.entries)


def _gaussian_cases():
    """Q+iQ matrices L diag(q, q^2 r) R with a prime q, linear over Q(i) or
    rational and irreducible there: the local lanes on Gaussian entries."""
    i = GaussianRational(0, 1)
    x = Poly.x()
    L = MatPoly([[1, 0], [x + Poly.const(i / 2), 1]])
    R = MatPoly([[1, x - Poly.const(Fraction(1, 3))], [0, 1]])
    for q in (Poly([-i, 1]), Poly([2, 0, 1])):
        yield L @ MatPoly.diag([q, q * q * Poly([1, 1])]) @ R, q, 3


def _local_text(loc) -> str:
    return f"{loc.alphas}|{_text(loc.V)}|{_text(loc.E)}"


def digest() -> str:
    h = hashlib.sha256()
    for fam, par, perm, seed, with_U in INSTANCES:
        A = gen_test_matrix(FamilySpec(family=fam, param=par, seed=seed, permutation=perm))
        r = smith_with_multipliers(A, with_U=with_U)
        for M in (r.D, r.V, r.E) + ((r.U,) if with_U else ()):
            h.update(_text(M).encode() + b"\n")
        for p, mu in factor_determinant(A).factors:
            for lane in (local_smith, local_smith_over_K):
                h.update(_local_text(lane(A, p, mu)).encode() + b"\n")
    for A, q, mu in _gaussian_cases():
        for lane in (local_smith, local_smith_over_K):
            h.update(_local_text(lane(A, q, mu)).encode() + b"\n")
    return h.hexdigest()


def test_outputs_are_bit_identical():
    assert digest() == GOLDEN
