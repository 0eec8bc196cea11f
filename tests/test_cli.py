import json

import pytest

from smithpoly.cli import main
from smithpoly.matio import read_matpoly_file, write_matpoly_file
from smithpoly.matpoly import MatPoly
from smithpoly.poly import Poly

X = Poly.x()


def run(*argv):
    return main(list(argv))


def test_gen_compute_verify_roundtrip(tmp_path, capsys):
    a = tmp_path / "A.mp"
    out = tmp_path / "out"
    assert run("gen", "--family", "1", "--param", "4", "--seed", "7",
               "--permute", "revcols", "--out", str(a)) == 0
    assert run("compute", str(a), "--out", str(out), "--with-U") == 0
    for name in ("D", "V", "E", "U"):
        assert (out / f"{name}.mp").exists()
    code = run("verify", "--A", str(a), "--E", str(out / "E.mp"),
               "--D", str(out / "D.mp"), "--V", str(out / "V.mp"))
    assert code == 0
    captured = capsys.readouterr()
    assert "OVERALL pass" in captured.out

    U = read_matpoly_file(out / "U.mp")
    E = read_matpoly_file(out / "E.mp")
    assert (U @ E) == MatPoly.identity(4)


def test_verify_failure_exit_code(tmp_path, capsys):
    a = tmp_path / "A.mp"
    out = tmp_path / "out"
    run("gen", "--family", "6", "--param", "3", "--seed", "3", "--out", str(a))
    run("compute", str(a), "--out", str(out))
    # corrupt D: replace with the identity
    write_matpoly_file(out / "D.mp", MatPoly.identity(3))
    code = run("verify", "--A", str(a), "--E", str(out / "E.mp"),
               "--D", str(out / "D.mp"), "--V", str(out / "V.mp"))
    assert code == 3
    assert "OVERALL FAIL" in capsys.readouterr().out


def test_compute_json_output(tmp_path):
    a = tmp_path / "A.json"
    out = tmp_path / "out"
    run("gen", "--family", "6", "--param", "3", "--seed", "5", "--json",
        "--out", str(a))
    doc = json.loads(a.read_text())
    assert doc["rows"] == 3 and doc["over"] == "Q"
    assert run("compute", str(a), "--json", "--out", str(out)) == 0
    d_doc = json.loads((out / "D.json").read_text())
    assert d_doc["rows"] == 3


def test_local_command(tmp_path, capsys):
    a = tmp_path / "A.mp"
    run("gen", "--family", "3", "--param", "2", "--seed", "11", "--out", str(a))
    assert run("local", str(a), "--prime", "l-1", "--variant", "k") == 0
    out = capsys.readouterr().out
    assert "exponents: 0 0 0 0 0 0 0 0 2" in out


def test_local_prime_not_dividing(tmp_path):
    a = tmp_path / "A.mp"
    run("gen", "--family", "3", "--param", "2", "--seed", "11", "--out", str(a))
    assert run("local", str(a), "--prime", "l-9") == 5


@pytest.mark.parametrize("variant", ["rpr", "k"])
@pytest.mark.parametrize(
    "diagonal", [[X**2 - 1, Poly.one()], [X - 1, X + 1]], ids=["square", "split"]
)
def test_local_rejects_reducible_prime(tmp_path, capsys, diagonal, variant):
    """l^2-1 = (l-1)(l+1): R/pR is not a field, so the local form is refused
    with the bad-arguments exit code rather than answered or crashed."""
    a = tmp_path / "A.mp"
    write_matpoly_file(a, MatPoly.diag(diagonal))
    assert run("local", str(a), "--prime", "l^2-1", "--variant", variant) == 5
    assert "not an irreducible polynomial" in capsys.readouterr().err


def test_local_rejects_constant_prime(tmp_path, capsys):
    a = tmp_path / "A.mp"
    write_matpoly_file(a, MatPoly.diag([X, X]))
    assert run("local", str(a), "--prime", "2") == 5
    assert run("local", str(a), "--prime", "0") == 5
    capsys.readouterr()


@pytest.mark.parametrize("variant, code", [("rpr", 5), ("k", 5)])
def test_local_rejects_prime_split_over_gaussians(tmp_path, capsys, variant, code):
    """l^2+1 is irreducible over Q but splits as (l-i)(l+i) over Q(i).
    The residue lane meets a zero divisor, the base-field lane a kernel
    that splits a supercolumn; both exit with the bad-arguments code."""
    from smithpoly.field import GaussianRational

    i = GaussianRational(0, 1)
    a = tmp_path / "A.mp"
    write_matpoly_file(a, MatPoly.diag([Poly([-i, 1]), Poly([i, 1])]))
    assert run("local", str(a), "--prime", "l^2+1", "--variant", variant) == code
    err = capsys.readouterr().err
    assert "l^2+1 is not irreducible" in err
    assert ("zero divisors" if variant == "rpr" else "supercolumn splits") in err


@pytest.mark.parametrize("variant", ["rpr", "k"])
def test_local_rejects_prime_split_with_singular_E(tmp_path, capsys, variant):
    """On diag(l^2+1, (l^2+1)(l-i)) at l^2+1 every chain round looks
    consistent, yet E = diag(1, l-i) is singular at l = i, a root of p.
    The E mod p check refuses it with the bad-arguments exit code."""
    from smithpoly.field import GaussianRational

    p = X**2 + 1
    a = tmp_path / "A.mp"
    write_matpoly_file(a, MatPoly.diag([p, p * Poly([-GaussianRational(0, 1), 1])]))
    assert run("local", str(a), "--prime", "l^2+1", "--variant", variant) == 5
    captured = capsys.readouterr()
    assert "l^2+1 is not irreducible" in captured.err
    assert "exponents" not in captured.out


def test_factor_det_output(tmp_path, capsys):
    a = tmp_path / "A.mp"
    run("gen", "--family", "1", "--param", "4", "--seed", "1", "--out", str(a))
    assert run("factor-det", str(a)) == 0
    out = capsys.readouterr().out
    assert "factor l 6" in out
    assert "factor l-1 4" in out


def test_not_regular_exit_code(tmp_path):
    a = tmp_path / "A.mp"
    bad = MatPoly([[X, X], [X, X]])
    write_matpoly_file(a, bad)
    assert run("compute", str(a)) == 2
    assert run("factor-det", str(a)) == 2


def test_parse_error_exit_code(tmp_path):
    f = tmp_path / "junk.mp"
    f.write_text("this is not a matrix\n")
    assert run("compute", str(f)) == 4
    assert run("compute", str(tmp_path / "missing.mp")) == 4


def test_bad_arguments_exit_code(tmp_path, capsys):
    assert run("gen", "--family", "1", "--param", "2", "--seed", "0") == 5
    with pytest.raises(SystemExit) as exc:
        run("gen", "--family", "7", "--param", "3", "--seed", "0")
    assert exc.value.code == 5
    capsys.readouterr()


def test_local_accepts_coefficient_form_prime(tmp_path, capsys):
    a = tmp_path / "A.mp"
    run("gen", "--family", "6", "--param", "3", "--seed", "4", "--out", str(a))
    capsys.readouterr()
    assert run("local", str(a), "--prime", "1 0 1") == 0  # l^2+1
    assert "exponents: 0 0 1" in capsys.readouterr().out


def test_local_on_gaussian_matrix(tmp_path, capsys):
    """Arithmetic-level Q+iQ support: a user-supplied linear prime over
    Q(i) drives the local form even though factoring is Q-only."""
    from smithpoly.field import GaussianRational

    i = GaussianRational(0, 1)
    p = Poly([-i, 1])  # l - i
    A = MatPoly.diag([p, p * p * Poly([1, 1])])
    a = tmp_path / "A.mp"
    write_matpoly_file(a, A)
    assert a.read_text().startswith("matpoly 2 2 over Q+iQ")
    assert run("local", str(a), "--prime", "-i 1") == 0
    out = capsys.readouterr().out
    assert "exponents: 1 2" in out
    # the Q-only factoring front end refuses this matrix
    assert run("factor-det", str(a)) == 1


def test_stdout_emission(tmp_path, capsys):
    a = tmp_path / "A.mp"
    run("gen", "--family", "6", "--param", "3", "--seed", "2", "--out", str(a))
    capsys.readouterr()
    assert run("compute", str(a)) == 0
    out = capsys.readouterr().out
    assert "# D" in out and "# V" in out and "# E" in out
