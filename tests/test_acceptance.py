"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  All tolerances are exact (zero) except where a runtime
budget is stated explicitly.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time
import zlib

import pytest

from conftest import companion_product, random_matrix
from corpus import (
    GROUND_TRUTH,
    chains_exact,
    chains_over_k,
    factored,
    instance,
    locals_over_k,
    locals_rpr,
    pipeline,
)
from smithpoly.families import FamilySpec, family_diagonal, gen_test_matrix
from smithpoly.globalsmith import (
    combine_local,
    compute_E,
    smith_diagonal,
    smith_with_multipliers,
    triangularize,
)
from smithpoly.matpoly import MatPoly, mat_det
from smithpoly.oracle import elementary_smith, minors_gcd_smith
from smithpoly.poly import Poly, parse_poly
from smithpoly.prng import SplitMix64
from smithpoly.residue import ResidueField
from smithpoly.verify import verify_smith

X = Poly.x()

INSTANCE_TIME_LIMIT = 120.0


def _report(name, ok=True):
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {name}", flush=True)
    assert ok, name


def test_family_ground_truth():
    """Computed monic D equals the constructed family diagonal exactly,
    each instance within the per-instance time budget."""
    for fam, par, perm in GROUND_TRUTH:
        A = instance(fam, par, perm)
        t0 = time.perf_counter()
        result = smith_with_multipliers(A)
        elapsed = time.perf_counter() - t0
        assert elapsed < INSTANCE_TIME_LIMIT, (fam, par, perm, elapsed)
        assert result.diagonal() == family_diagonal(fam, par), (fam, par, perm)
        assert all(d.is_monic() for d in result.diagonal())
    _report("family ground truth (families 1-6, both column orders)")


def test_exactness_suite():
    """A*V = E*D; det(V), det(E) constant nonzero; divisibility chain;
    det(A) = const * prod(d_i) -- all exact."""
    for key in GROUND_TRUTH:
        A = instance(*key)
        r = pipeline(*key)
        assert (A @ r.V) == (r.E @ r.D), key
        assert mat_det(r.V).degree == 0, key
        assert mat_det(r.E).degree == 0, key
        diag = r.diagonal()
        prod = Poly.one()
        for i, d in enumerate(diag):
            if i:
                assert d.divmod(diag[i - 1])[1].is_zero(), key
            prod = prod * d
        q, rem = mat_det(A).divmod(prod)
        assert rem.is_zero() and q.degree == 0, key
    _report("exactness suite on every corpus instance")


def test_local_invariants():
    """Sum of exponents equals the multiplicity, det E avoids p, column
    degrees bounded, rank ladder nonincreasing and summing to mu, and
    det V a nonzero constant in both lanes (the one-prime route of the
    pipeline returns the local V unchecked)."""
    for key in GROUND_TRUTH:
        A = instance(*key)
        for loc in locals_over_k(*key):
            assert mat_det(loc.V).degree == 0, key
        for loc in locals_rpr(*key):
            assert mat_det(loc.V).degree == 0, key
            mu = dict(factored(*key).factors)[loc.p]
            assert sum(loc.alphas) == mu, key
            assert not (mat_det(loc.E) % loc.p).is_zero(), key
            s = loc.p.degree
            for i, a in enumerate(loc.alphas):
                col_deg = max(e.degree for e in loc.V.column(i))
                assert col_deg <= max(s * a - 1, 0), key
            assert all(
                loc.ranks[k] >= loc.ranks[k + 1]
                for k in range(len(loc.ranks) - 1)
            ), key
            assert sum(loc.ranks) == mu, key
            assert (A @ loc.V) == (loc.E @ loc.diagonal()), key
    _report("local invariants on every local run")


def test_oracle_equivalence():
    """Pipeline D equals both independent oracles on >= 100 seeded random
    regular instances (3x3 and 4x4, degree <= 2, coefficients in [-5, 5]),
    and verify_smith accepts its V and E."""
    t0 = time.perf_counter()
    rng = SplitMix64(424242)
    done = 0
    target = 120
    while done < target:
        n = 3 if done % 2 == 0 else 4
        A = random_matrix(rng, n, 2, -5, 5)
        if mat_det(A).is_zero():
            continue
        r = smith_with_multipliers(A)
        assert r.D == minors_gcd_smith(A)
        assert r.D == elementary_smith(A)[1]
        assert verify_smith(A, r.E, r.D, V=r.V).overall
        done += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 600, elapsed
    _report(f"oracle equivalence on {done} random instances ({elapsed:.0f}s)")


def test_variant_agreement_local_algorithms():
    """The residue-field algorithm and the base-field variant produce the
    same V matrix and exponent sequence on the full corpus.  Both public
    variants run the base-field lane on rational input, so the residue
    lane's own chains are compared with them too."""
    for key in GROUND_TRUTH:
        for r1, r2 in zip(locals_rpr(*key), locals_over_k(*key)):
            assert r1.p == r2.p
            assert r1.alphas == r2.alphas, key
            assert r1.V == r2.V, key
            assert r1.ranks == r2.ranks, key
        for r1, ex, k in zip(locals_rpr(*key), chains_exact(*key), chains_over_k(*key)):
            assert ex.alphas == k.alphas == r1.alphas, key
            assert ex.V == k.V == r1.V, key
    _report("variant agreement: residue-field vs base-field local forms")


def test_variant_agreement_global_routes():
    """Whole-matrix and per-column splicing, each triangularized, give the
    identical V, the pipeline's, and it makes a valid Smith form.  One
    local multiplier is its own splice in either mode."""
    for key in GROUND_TRUTH:
        A = instance(*key)
        locs = list(locals_rpr(*key))
        D = smith_diagonal(locs, A.rows)
        assert D == pipeline(*key).D, key
        V_whole, V_cols = (
            triangularize(combine_local(A, locs, mode, factored=factored(*key)), D)[0]
            for mode in ("whole", "per-column")
        )
        assert V_whole == V_cols == pipeline(*key).V, key
        E = compute_E(A, V_whole, D)
        assert (A @ V_whole) == (E @ D), key
        assert mat_det(V_whole).degree == 0, key
        assert mat_det(E).degree == 0, key
    _report("variant agreement: whole-matrix vs per-column splicing give one V")


def test_combined_multiplier_properties():
    """Column i of A times the spliced multiplier is divisible by d_i, and
    its determinant avoids every prime factor."""
    for key in GROUND_TRUTH:
        A = instance(*key)
        locs = list(locals_rpr(*key))
        if len(locs) == 1:
            modes = ("whole",)
        else:
            modes = ("whole", "per-column")
        for mode in modes:
            comb = combine_local(A, locs, mode, factored=factored(*key))
            AB = A @ comb.matrix
            n = A.rows
            for i in range(n):
                d = Poly.one()
                for loc in locs:
                    d = d * loc.p ** loc.alphas[i]
                for r_ in range(n):
                    assert AB[r_, i].divmod(d)[1].is_zero(), (key, mode)
            det = mat_det(comb.matrix)
            for loc in locs:
                assert not (det % loc.p).is_zero(), (key, mode)
    _report("combined multiplier properties (both splicing modes)")


def test_invariance_under_permutations_and_sandwiches():
    """D is unchanged by row/column permutations and by 20 random
    unimodular unit-triangular sandwiches."""
    from smithpoly.families import _unit_lower, _unit_upper

    base_spec = FamilySpec(family=1, param=4, seed=77, permutation="none")
    A = gen_test_matrix(base_spec)
    D_ref = smith_with_multipliers(A).D

    for perm in ("revcols", "randrows"):
        B = gen_test_matrix(
            FamilySpec(family=1, param=4, seed=77, permutation=perm)
        )
        assert smith_with_multipliers(B).D == D_ref, perm

    n = A.rows
    rng = SplitMix64(31337)
    perm_rows = list(range(n))
    rng.shuffle(perm_rows)
    assert smith_with_multipliers(A.permute_rows(perm_rows)).D == D_ref
    perm_cols = list(range(n))
    rng.shuffle(perm_cols)
    assert smith_with_multipliers(A.permute_cols(perm_cols)).D == D_ref

    small = MatPoly.diag([Poly.one(), X, X * (X - 1) ** 2])
    D_small = smith_with_multipliers(small).D
    for _ in range(20):
        S = _unit_lower(3, rng) @ _unit_upper(3, rng)
        T = _unit_lower(3, rng) @ _unit_upper(3, rng)
        assert smith_with_multipliers(S @ small @ T).D == D_small
    _report("D invariance under permutations and 20 unimodular sandwiches")


def test_u_correctness():
    """U * E = I exactly wherever the inverse is requested."""
    requested = [
        (1, 4, "none"),
        (1, 6, "revcols"),
        (2, 3, "none"),
        (3, 4, "revcols"),
        (4, 4, "none"),
        (5, 2, "revcols"),
        (6, 4, "none"),
        (5, 3, "revcols"),
    ]
    for fam, par, perm in requested:
        A = instance(fam, par, perm)
        r = smith_with_multipliers(A, with_U=True)
        assert r.U is not None
        assert (r.U @ r.E) == MatPoly.identity(A.rows), (fam, par, perm)
    _report(f"U correctness on {len(requested)} instances with --with-U")


@pytest.mark.parametrize(
    "ptxt", ["l", "l-1", "l-2", "l^2+1", "l^2+2", "l^2+l+1", "l^4+l^3+l^2+1"]
)
def test_residue_field_algebra(ptxt):
    """Products agree with the companion-matrix action and quotients
    multiply back, on 1000 random pairs per corpus prime (degrees 1, 2
    and 4 included)."""
    p = parse_poly(ptxt)
    F = ResidueField(p)
    s = p.degree
    rng = SplitMix64(0xF00D ^ zlib.crc32(ptxt.encode()) & 0xFFFF)
    pairs = 0
    while pairs < 1000:
        a = Poly([rng.randint(-9, 9) for _ in range(s)])
        b = Poly([rng.randint(-9, 9) for _ in range(s)])
        assert F.mul(a, b) == Poly(companion_product(a, b, p))
        if not b.is_zero():
            q = F.mul(a, F.inv(b))
            assert F.mul(q, b) == a
        pairs += 1
    _report(f"residue-field algebra at {ptxt} (1000 pairs)")
