"""The benchmark's workloads.

Each workload is a list of generator instances ``(family, param,
permutation)`` and the options passed to ``smith_with_multipliers``.
Instance ``k`` of a workload is generated with seed ``100 * seed + k``, so
one ``--seed`` fixes every matrix and distinct seeds give distinct
matrices.
Why each instance is there is recorded in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 20240613


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple  # of (family, param, permutation)
    with_U: bool


WORKLOADS = {
    w.name: w
    for w in (
        # the determinant dominates solve_s; one or two primes, short chains
        Workload(
            "large-n",
            ((3, 4, "none"), (3, 5, "none"), (1, 8, "none"), (1, 8, "none")),
            with_U=False,
        ),
        # local forms and the Bezout combination: many primes, long chains
        Workload(
            "many-primes",
            ((6, 5, "none"), (2, 4, "none")) + ((4, 4, "none"),) * 4 + ((6, 4, "none"),),
            with_U=False,
        ),
        # invert_unimodular dominates solve_s; V and E carry large coefficients.
        # Many small instances: their sum varies less with the seed
        Workload(
            "with-U",
            ((1, 6, "revcols"),) * 6 + ((4, 4, "revcols"), (6, 4, "revcols")),
            with_U=True,
        ),
    )
}
