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
