import pytest

from corpus import instance
from smithpoly.errors import BadFamilyParam, ShapeMismatch
from smithpoly.families import FamilySpec, family_diagonal, gen_test_matrix
from smithpoly.matpoly import MatPoly, mat_det
from smithpoly.poly import Poly
from smithpoly.verify import verify_smith

X = Poly.x()


def test_family_diagonals_match_definitions():
    assert family_diagonal(1, 4) == [
        X,
        X * (X - 1),
        X**2 * (X - 1),
        X**2 * (X - 1) ** 2,
    ]
    assert family_diagonal(2, 2)[-1] == (X - 1) * (X - 2)
    assert family_diagonal(3, 4)[-1] == (X - 1) ** 4
    p1 = Poly([1, 1, 1])
    p2 = Poly([1, 0, 1, 1, 1])
    assert family_diagonal(4, 4) == [p1, p1 * p2, p1**2 * p2, p1**2 * p2**2]
    q1, q2 = Poly([1, 0, 1]), Poly([2, 0, 1])
    prod = q1 * q2
    assert family_diagonal(5, 2) == [Poly.one()] * 6 + [prod, prod**2, prod**2]
    assert family_diagonal(6, 4) == [
        Poly.one(),
        Poly.one(),
        q1,
        q1**2 * q2,
    ]


def test_divisibility_chains_in_all_families():
    for fam, par in [(1, 5), (2, 3), (3, 2), (4, 5), (5, 3), (6, 5)]:
        diag = family_diagonal(fam, par)
        for i in range(1, len(diag)):
            assert diag[i].divmod(diag[i - 1])[1].is_zero()


def test_bad_params():
    for fam, par in [(1, 3), (2, 0), (3, 0), (4, 2), (5, 1), (6, 2), (9, 3)]:
        with pytest.raises(BadFamilyParam):
            family_diagonal(fam, par)
    with pytest.raises(BadFamilyParam):
        FamilySpec(family=1, param=4, seed=0, permutation="mirror")


def test_generator_deterministic():
    spec = FamilySpec(family=1, param=4, seed=987654321, permutation="randrows")
    assert gen_test_matrix(spec) == gen_test_matrix(spec)
    other = FamilySpec(family=1, param=4, seed=987654322, permutation="randrows")
    assert gen_test_matrix(other) != gen_test_matrix(spec)


@pytest.mark.parametrize("perm", ["none", "revcols", "randrows"])
def test_generator_det_is_diagonal_product(perm):
    spec = FamilySpec(family=1, param=4, seed=13, permutation=perm)
    A = gen_test_matrix(spec)
    det = mat_det(A)
    expected = X**6 * (X - 1) ** 4
    assert det in (expected, -expected)


def test_entry_degree_bound_family_one():
    # diagonal degree 4 plus two degree-2 sandwich products per side
    A = instance(1, 5, "none")
    assert A.max_degree() <= 8


def test_verify_smith_passes_on_pipeline_output():
    from corpus import pipeline

    r = pipeline(1, 4, "none")
    rep = verify_smith(instance(1, 4, "none"), r.E, r.D, V=r.V)
    assert rep.overall
    assert all(ok for _, ok, _ in rep.checks)


def test_verify_smith_flags_broken_chain():
    A = instance(1, 4, "none")
    from corpus import pipeline

    r = pipeline(1, 4, "none")
    # swap the diagonal so divisibility breaks
    n = A.rows
    swapped = MatPoly.diag([r.D[n - 1, n - 1]] + [r.D[i, i] for i in range(1, n - 1)] + [r.D[0, 0]])
    rep = verify_smith(A, r.E, swapped, V=r.V)
    assert not rep.overall
    failed = {name for name, ok, _ in rep.checks if not ok}
    assert "divisibility chain" in failed


def test_verify_smith_flags_scaled_column():
    A = instance(1, 4, "none")
    from corpus import pipeline

    r = pipeline(1, 4, "none")
    cols = r.V.columns()
    cols[-1] = [e * X for e in cols[-1]]
    V_bad = MatPoly.from_columns(cols)
    rep = verify_smith(A, r.E, r.D, V=V_bad)
    assert not rep.overall
    failed = {name for name, ok, _ in rep.checks if not ok}
    assert "unimodular V" in failed


def test_verify_smith_shape_guard():
    A = instance(1, 4, "none")
    with pytest.raises(ShapeMismatch):
        verify_smith(A, A, A)  # neither F nor V
    with pytest.raises(ShapeMismatch):
        verify_smith(A, MatPoly.identity(3), A, V=A)


def test_verify_with_F_direction():
    from smithpoly.globalsmith import invert_unimodular
    from corpus import pipeline

    r = pipeline(6, 3, "none")
    F = invert_unimodular(r.V)
    rep = verify_smith(instance(6, 3, "none"), r.E, r.D, F=F)
    assert rep.overall
    rep = verify_smith(instance(6, 3, "none"), r.E, r.D, F=_bumped(F, 1, 0))
    assert rep.checks == (
        ("product identity A = E*D*F", False, "first difference at entry (1,1)"),
        ("D diagonal", True, ""),
        ("monic diagonal", True, ""),
        ("divisibility chain", True, ""),
        ("unimodular E", True, "det E = 1"),
        ("unimodular F", True, "det = 1"),
        ("determinant product", True, ""),
    )


def _bumped(M, i, j):
    """M with 1 added to the constant coefficient of entry (i + 1, j + 1)."""
    rows = [list(row) for row in M.entries]
    rows[i][j] = rows[i][j] + 1
    return MatPoly(rows)


def _swapped_first_columns(M):
    cols = M.columns()
    return MatPoly.from_columns([cols[1], cols[0], *cols[2:]])


_CORRUPTED = {
    # E(2,3) + 1: column 3 of E D moves by d_3 in row 2 only
    "E": (
        lambda r: (_bumped(r.E, 1, 2), r.D, r.V),
        (
            ("product identity A*V = E*D", False, "first difference at entry (2,3)"),
            ("D diagonal", True, ""),
            ("monic diagonal", True, ""),
            ("divisibility chain", True, ""),
            (
                "unimodular E",
                False,
                "det E = -2700*l^16-6750*l^15+645300*l^14+2747250*l^13-54831060*l^12"
                "-266226480*l^11+2063362410*l^10+7314538140*l^9-36632527560*l^8"
                "-12717612090*l^7+135339707250*l^6-54983714760*l^5-146139358680*l^4"
                "+116498661210*l^3+11502244620*l^2-21962021130*l-3609900",
            ),
            ("unimodular V", True, "det = 113400"),
            ("determinant product", True, ""),
        ),
    ),
    # V(3,2) + 1: column 2 of A V moves by column 3 of A
    "V": (
        lambda r: (r.E, r.D, _bumped(r.V, 2, 1)),
        (
            ("product identity A*V = E*D", False, "first difference at entry (1,2)"),
            ("D diagonal", True, ""),
            ("monic diagonal", True, ""),
            ("divisibility chain", True, ""),
            ("unimodular E", True, "det E = 113400"),
            ("unimodular V", False, "det = -6930*l^2+120330"),
            ("determinant product", True, ""),
        ),
    ),
    # d_4 + 1
    "D": (
        lambda r: (r.E, _bumped(r.D, 3, 3), r.V),
        (
            ("product identity A*V = E*D", False, "first difference at entry (1,4)"),
            ("D diagonal", True, ""),
            ("monic diagonal", True, ""),
            ("divisibility chain", False, "d_3 does not divide d_4"),
            ("unimodular E", True, "det E = 113400"),
            ("unimodular V", True, "det = 113400"),
            ("determinant product", False, "det(A) is not a constant multiple of prod(d_i)"),
        ),
    ),
    "V columns swapped": (
        lambda r: (r.E, r.D, _swapped_first_columns(r.V)),
        (
            ("product identity A*V = E*D", False, "first difference at entry (1,1)"),
            ("D diagonal", True, ""),
            ("monic diagonal", True, ""),
            ("divisibility chain", True, ""),
            ("unimodular E", True, "det E = 113400"),
            ("unimodular V", True, "det = -113400"),
            ("determinant product", True, ""),
        ),
    ),
}


@pytest.mark.parametrize("case", list(_CORRUPTED))
def test_verify_smith_failure_witnesses(case):
    """Every check of a corrupted result of (1, 4, "revcols"), in order,
    with its verdict and witness."""
    from corpus import pipeline

    corrupt, checks = _CORRUPTED[case]
    E, D, V = corrupt(pipeline(1, 4, "revcols"))
    assert verify_smith(instance(1, 4, "revcols"), E, D, V=V).checks == checks


def _det_E_cases():
    from corpus import pipeline
    from smithpoly.globalsmith import invert_unimodular

    r = pipeline(1, 4, "none")
    yield instance(1, 4, "none"), r.E, r.D, {"V": r.V}
    r = pipeline(6, 3, "none")
    yield instance(6, 3, "none"), r.E, r.D, {"F": invert_unimodular(r.V)}
    E, I = MatPoly.diag([X, 1]), MatPoly.identity(2)
    yield E, E, I, {"V": I}  # identity holds, E not unimodular
    yield E, E, I, {"F": I}
    yield E, MatPoly.diag([X * X, 1]), I, {"V": I}  # identity fails
    yield MatPoly.diag([X, 0]), MatPoly.diag([X, 5]), MatPoly.diag([1, 0]), {"V": I}


@pytest.mark.parametrize("case", range(6))
def test_verify_smith_det_E_witness_matches_mat_det(case):
    """det E comes from det A and det V (or det F) when the product
    identity holds; the check reads as if det E had been computed."""
    A, E, D, side = list(_det_E_cases())[case]
    rep = verify_smith(A, E, D, **side)
    det_e = mat_det(E)
    assert ("unimodular E", det_e.degree == 0, f"det E = {det_e.human_text()}") in rep.checks


def test_verify_smith_witness_of_an_unwritable_determinant():
    """A correct result whose constant det E passes Python's int string
    limit verifies; the witness gives the determinant's bit length, and
    a failing one its degree too."""
    big, I = 10**5000 + 1, MatPoly.identity(2)
    rep = verify_smith(MatPoly.diag([big, X]), MatPoly.diag([big, 1]), MatPoly.diag([1, X]), V=I)
    assert rep.overall
    assert ("unimodular E", True, "det E = <constant, 16610 bits>") in rep.checks
    rep = verify_smith(MatPoly.diag([big, X]), MatPoly.diag([big * X, 1]), I, V=I)
    assert ("unimodular E", False, "det E = <degree 1, 16610 bits>") in rep.checks
    assert not rep.overall and rep.lines()
