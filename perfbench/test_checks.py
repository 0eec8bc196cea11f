"""Self-test of the benchmark's independent checks (each accepts a correct
result and rejects a corrupted one), of its ledger and of the scaling of
times by the calibration probe.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from harness import REFERENCE_S, Ledger, Rounds, load_program  # noqa: E402

sp = load_program()
FAMILY, PARAM, SEED = 1, 5, 7


@pytest.fixture(scope="module")
def case():
    A = sp.gen_test_matrix(sp.FamilySpec(FAMILY, PARAM, SEED, "revcols"))
    r = sp.smith_with_multipliers(A, with_U=True)
    return A, r, checks.family_diagonal(FAMILY, PARAM)


def replace_entry(M, i, j, poly):
    rows = [list(row) for row in M.entries]
    rows[i][j] = poly
    return sp.MatPoly(rows)


def bump_coefficient(M):
    """M with one coefficient of one nonzero entry changed by 1."""
    for i in range(M.rows):
        for j in range(M.cols):
            cs = list(M[i, j].coeffs)
            if cs:
                cs[0] += 1
                return replace_entry(M, i, j, sp.Poly(cs))
    raise AssertionError("zero matrix")


def scale_column(M, j, f):
    return sp.MatPoly([[e * f if c == j else e for c, e in enumerate(row)]
                       for row in M.entries])


L_PLUS_1 = sp.Poly([1, 1])


def test_correct_result_is_accepted(case):
    A, r, diag = case
    assert checks.check_smith(A, r.D, r.V, r.E, diag, U=r.U) == []


def test_changed_coefficient_of_V_is_rejected(case):
    A, r, diag = case
    assert checks.check_product(A, bump_coefficient(r.V), r.E, diag)
    assert checks.check_smith(A, r.D, bump_coefficient(r.V), r.E, diag, U=r.U)


def test_changed_coefficient_of_E_is_rejected(case):
    A, r, diag = case
    assert checks.check_product(A, r.V, bump_coefficient(r.E), diag)


def test_swapped_rows_of_U_are_rejected(case):
    A, r, diag = case
    U = sp.MatPoly([r.U.entries[1], r.U.entries[0], *r.U.entries[2:]])
    assert checks.check_inverse(U, r.E)
    assert checks.check_smith(A, r.D, r.V, r.E, diag, U=U)


def test_diagonal_entry_times_l_plus_1_is_rejected(case):
    A, r, diag = case
    n = r.D.rows
    D = replace_entry(r.D, n - 1, n - 1, r.D[n - 1, n - 1] * L_PLUS_1)
    assert checks.check_diagonal(D, diag)
    assert checks.check_smith(A, D, r.V, r.E, diag)
    # the same corruption applied to the expected diagonal: the product
    # identity alone still catches it
    wrong = diag[:-1] + [checks.pmul(diag[-1], [1, 1])]
    assert checks.check_product(A, r.V, r.E, wrong)


def test_non_unimodular_multipliers_are_rejected(case):
    A, r, diag = case
    assert checks.check_unimodular(scale_column(r.V, 0, L_PLUS_1), "V")
    assert checks.check_unimodular(scale_column(r.E, 0, sp.Poly([2])), "E") == []
    assert checks.check_unimodular(scale_column(r.E, 0, L_PLUS_1), "E")
    singular = scale_column(r.V, 0, sp.Poly([0]))
    assert checks.check_unimodular(singular, "V")


def test_local_forms(case):
    A, _, diag = case
    for p in checks.family_primes(FAMILY, PARAM):
        P = sp.Poly(p)
        mu = sum(checks.local_exponents(diag, p))
        for fn in (sp.local_smith, sp.local_smith_over_K):
            loc = fn(A, P, mu)
            assert checks.check_local(A, p, loc.alphas, loc.V, loc.E, diag) == []
            wrong = tuple(loc.alphas[:-2]) + (loc.alphas[-2] + 1, loc.alphas[-1] - 1)
            assert checks.check_local(A, p, wrong, loc.V, loc.E, diag)
            assert checks.check_local(A, p, loc.alphas, bump_coefficient(loc.V),
                                      loc.E, diag)
            assert checks.check_local(A, p, loc.alphas, loc.V,
                                      bump_coefficient(loc.E), diag)


@pytest.mark.parametrize("family,param", [(1, 6), (2, 4), (3, 3), (4, 5), (5, 3), (6, 6)])
def test_family_diagonals_match_the_generator(family, param):
    ours = checks.family_diagonal(family, param)
    theirs = sp.family_diagonal(family, param)
    assert [list(d.coeffs) for d in theirs] == ours
    for d in ours:
        rest = d
        for p in checks.family_primes(family, param):
            rest = checks.pdivmod_monic(rest, checks.ppow(p, checks.multiplicity(d, p)))[0]
        assert rest == [1]


def test_scalar_det():
    assert checks.scalar_det([[Fraction(1, 2), 3], [4, 5]]) == Fraction(-19, 2)
    assert checks.scalar_det([[0, 1, 0], [1, 0, 0], [0, 0, 7]]) == -7
    assert checks.scalar_det([[1, 2], [2, 4]]) == 0


def test_ledger_counts_a_wrong_output_as_failed():
    led = Ledger()
    for _ in range(3):
        led.output("op", 1, lambda out: ["wrong"], lambda a, b: a == b)
    led.output("op", 2, lambda out: ["wrong"], lambda a, b: a == b)
    led.output("ok", 1, lambda out: [], lambda a, b: a == b)
    led.error("boom", ValueError("x"))
    led.finish()
    assert (led.attempted, led.failed, led.correct) == (6, 5, False)


def test_scaled_times_cancel_a_uniform_slowdown():
    # (wall time, probe) per round; the probe at REFERENCE_S means full speed
    rounds = [(0.30, 1.0), (0.45, 1.5), (0.33, 0.9)]
    fast, slow = Rounds(), Rounds()
    for t, c in rounds:
        fast.add("solve_s", "a", t, c * REFERENCE_S)
        slow.add("solve_s", "a", 1.5 * t, 1.5 * c * REFERENCE_S)
        slow.add("solve_s", "b", 0.2, REFERENCE_S)
    assert fast.scaled("solve_s") == pytest.approx(0.30)
    assert slow.scaled("solve_s") == pytest.approx(0.30 + 0.2)
    assert fast.total("solve_s") == pytest.approx(0.33)
