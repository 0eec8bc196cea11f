"""Bit-identity of the two oracles' outputs on a fixed set of instances.

One sha256 covers U, D and V of `elementary_smith` and the exponents, V
and E of `local_smith_reference` at every prime, with every coefficient
written by `repr`, so a changed value or a changed coefficient type
changes the hash.  A rewrite of the oracles' loops that keeps their pivot
rules and the order of their operations must leave this hash alone.
Families 2, 3 and 5 are left out: the oracles take minutes on them.
"""

import hashlib

from smithpoly import (
    FamilySpec,
    MatPoly,
    elementary_smith,
    factor_determinant,
    gen_test_matrix,
    local_smith_reference,
)

# (family, param, seed); 20240811 is the test corpus seed
INSTANCES = [
    (1, 4, 20240811),
    (1, 5, 20240811),
    (1, 6, 20240811),
    (4, 4, 20240811),
    (6, 3, 20240811),
    (6, 4, 20240811),
]

GOLDEN = "f09417c733481ce0410e72935c703873dfb7acbc572c22da47940055cc584a57"


def _text(M: MatPoly) -> str:
    return ";".join(",".join(repr(e.coeffs) for e in row) for row in M.entries)


def digest() -> str:
    h = hashlib.sha256()
    for fam, par, seed in INSTANCES:
        A = gen_test_matrix(FamilySpec(family=fam, param=par, seed=seed))
        for M in elementary_smith(A):
            h.update(_text(M).encode() + b"\n")
        for p, _ in factor_determinant(A).factors:
            loc = local_smith_reference(A, p)
            h.update(f"{loc.alphas}|{_text(loc.V)}|{_text(loc.E)}".encode() + b"\n")
    return h.hexdigest()


def test_oracle_outputs_are_bit_identical():
    assert digest() == GOLDEN
