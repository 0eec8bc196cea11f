"""Shared corpus of generated instances, cached so the expensive parts
(determinant, factorization, local forms) run once across test modules."""

from functools import lru_cache

from smithpoly import (
    FamilySpec,
    factor_determinant,
    gen_test_matrix,
    local_smith,
    local_smith_over_K,
    smith_with_multipliers,
)
from smithpoly.localsmith import _BaseFieldLane, _local_chains, _ResidueLane

SEED = 20240811

# every family at the small parameters, both column orders
GROUND_TRUTH = [
    (fam, par, perm)
    for fam, pars in [
        (1, (4, 5, 6)),
        (2, (1, 2, 3, 4)),
        (3, (1, 2, 3, 4)),
        (4, (4, 5)),
        (5, (2, 3)),
        (6, (3, 4)),
    ]
    for par in pars
    for perm in ("none", "revcols")
]

# moderate-cost representatives used for the heavier cross-variant checks
LIGHT = [
    (1, 4, "none"),
    (1, 5, "revcols"),
    (2, 2, "none"),
    (2, 3, "revcols"),
    (3, 3, "none"),
    (4, 4, "revcols"),
    (5, 2, "none"),
    (6, 4, "revcols"),
]

CORPUS_PRIMES_TEXT = ("l", "l-1", "l^2+1", "l^2+2", "l^2+l+1", "l^4+l^3+l^2+1")


@lru_cache(maxsize=None)
def instance(fam, par, perm):
    return gen_test_matrix(
        FamilySpec(family=fam, param=par, seed=SEED, permutation=perm)
    )


@lru_cache(maxsize=None)
def factored(fam, par, perm):
    return factor_determinant(instance(fam, par, perm))


@lru_cache(maxsize=None)
def locals_rpr(fam, par, perm):
    A = instance(fam, par, perm)
    return tuple(local_smith(A, p, e) for p, e in factored(fam, par, perm).factors)


@lru_cache(maxsize=None)
def locals_over_k(fam, par, perm):
    A = instance(fam, par, perm)
    return tuple(
        local_smith_over_K(A, p, e) for p, e in factored(fam, par, perm).factors
    )


@lru_cache(maxsize=None)
def chains_exact(fam, par, perm):
    """The residue lane's chains at every prime."""
    A = instance(fam, par, perm)
    return tuple(
        _local_chains(A, p, e, _ResidueLane) for p, e in factored(fam, par, perm).factors
    )


@lru_cache(maxsize=None)
def chains_over_k(fam, par, perm):
    """The base-field lane's chains at every prime, on integer rows over Q:
    on rational input both local forms and the pipeline take these."""
    A = instance(fam, par, perm)
    return tuple(
        _local_chains(A, p, e, _BaseFieldLane) for p, e in factored(fam, par, perm).factors
    )


@lru_cache(maxsize=None)
def pipeline(fam, par, perm):
    return smith_with_multipliers(instance(fam, par, perm))
