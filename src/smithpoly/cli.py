"""Command-line interface.

Exit codes: 0 success, 1 any other library error, 2 not regular,
3 verification failure, 4 parse error, a matrix file over the size cap
(matio.MAX_ENTRIES entries), a --prime exponent over poly.MAX_DEGREE or
a coefficient over Python's int string conversion limit (4,300 digits by
default), 5 bad arguments.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import (
    BadFamilyParam,
    NotIrreducible,
    NotRegular,
    ParseError,
    PrimeDoesNotDivideDet,
    ShapeMismatch,
    SmithError,
    TooLarge,
)
from .factorization import factor_over_rationals
from .families import PERMUTATIONS, FamilySpec, gen_test_matrix
from .field import GaussianRational, format_scalar
from .globalsmith import factor_determinant, smith_with_multipliers
from .localsmith import invertible_mod_p, local_smith, local_smith_over_K
from .matio import (
    read_matpoly_file,
    write_matpoly_file,
    write_matpoly_json,
    write_matpoly_text,
)
from .matpoly import MatPoly, mat_det
from .poly import Poly, parse_poly, poly_gcd
from .verify import verify_smith

EXIT_OK = 0
EXIT_NOT_REGULAR = 2
EXIT_VERIFY_FAILED = 3
EXIT_PARSE_ERROR = 4
EXIT_BAD_ARGS = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_ARGS)


def _build_parser() -> _Parser:
    parser = _Parser(prog="smith", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="Smith form with multipliers")
    p.add_argument("file")
    p.add_argument("--with-U", action="store_true", dest="with_u")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)

    p = sub.add_parser("local", help="local Smith form at one prime")
    p.add_argument("file")
    p.add_argument("--prime", required=True)
    p.add_argument("--variant", choices=["rpr", "k"], default="rpr")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)

    p = sub.add_parser("factor-det", help="factor the determinant")
    p.add_argument("file")

    p = sub.add_parser("gen", help="generate a test matrix")
    p.add_argument("--family", type=int, required=True, choices=range(1, 7))
    p.add_argument("--param", type=int, required=True)
    p.add_argument("--seed", type=_u64, required=True)
    p.add_argument("--permute", choices=PERMUTATIONS, default="none")
    p.add_argument("--out", default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="verify a claimed Smith form")
    p.add_argument("--A", required=True, dest="a_file")
    p.add_argument("--E", required=True, dest="e_file")
    p.add_argument("--D", required=True, dest="d_file")
    p.add_argument("--F", dest="f_file", default=None)
    p.add_argument("--V", dest="v_file", default=None)
    return parser


def _u64(text: str) -> int:
    v = int(text)
    if not (0 <= v < 1 << 64):
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return v


def _emit(name: str, A: MatPoly, out_dir, as_json: bool):
    if out_dir is None:
        print(f"# {name}")
        text = write_matpoly_json(A) if as_json else write_matpoly_text(A)
        sys.stdout.write(text)
    else:
        suffix = "json" if as_json else "mp"
        write_matpoly_file(os.path.join(out_dir, f"{name}.{suffix}"), A, as_json)


def _cmd_compute(args) -> int:
    A = read_matpoly_file(args.file)
    result = smith_with_multipliers(A, with_U=args.with_u)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    for name, M in (("D", result.D), ("V", result.V), ("E", result.E)):
        _emit(name, M, args.out, args.json)
    if result.U is not None:
        _emit("U", result.U, args.out, args.json)
    return EXIT_OK


def _cmd_local(args) -> int:
    A = read_matpoly_file(args.file)
    p = parse_poly(args.prime).monic()
    _check_irreducible(p, args.prime)
    det = mat_det(A)
    if det.is_zero():
        raise NotRegular("det(A) is identically zero")
    mu = 0
    rem = det
    while True:
        q, r = rem.divmod(p)
        if not r.is_zero():
            break
        rem = q
        mu += 1
    if mu == 0:
        raise PrimeDoesNotDivideDet(f"{args.prime} does not divide det(A)")
    fn = local_smith if args.variant == "rpr" else local_smith_over_K
    result = fn(A, p, mu)
    if not invertible_mod_p(result.E, p):
        # a local form at an irreducible p has E invertible mod p; a
        # singular one means R/pR is not a field: p splits over the base field
        raise NotIrreducible(
            f"{p.human_text()} is not irreducible: E is singular mod p"
        )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    print(f"prime: {p.human_text()}")
    print(f"exponents: {' '.join(str(a) for a in result.alphas)}")
    print(f"ranks: {' '.join(str(r) for r in result.ranks)}")
    print(f"max chain length: {result.beta}")
    for name, M in (("D", result.diagonal()), ("V", result.V), ("E", result.E)):
        _emit(name, M, args.out, args.json)
    return EXIT_OK


def _check_irreducible(p: Poly, text: str):
    """Residue arithmetic needs R/pR to be a field.  Over Q+iQ there is no
    factoring, so a squarefree p is the most that can be checked there."""
    if p.degree < 1:
        ok = False
    elif any(isinstance(c, GaussianRational) for c in p.coeffs):
        ok = poly_gcd(p, p.derivative()).is_one()
    else:
        ok = factor_over_rationals(p).factors == ((p, 1),)
    if not ok:
        raise NotIrreducible(f"{text} is not an irreducible polynomial")


def _cmd_factor_det(args) -> int:
    fact = factor_determinant(read_matpoly_file(args.file))
    print(f"unit {format_scalar(fact.unit)}")
    for p, e in fact.factors:
        print(f"factor {p.human_text()} {e}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    spec = FamilySpec(
        family=args.family, param=args.param, seed=args.seed,
        permutation=args.permute,
    )
    A = gen_test_matrix(spec)
    if args.out:
        write_matpoly_file(args.out, A, args.json)
    else:
        text = write_matpoly_json(A) if args.json else write_matpoly_text(A)
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if (args.f_file is None) == (args.v_file is None):
        raise ShapeMismatch("provide exactly one of --F and --V")
    A = read_matpoly_file(args.a_file)
    E = read_matpoly_file(args.e_file)
    D = read_matpoly_file(args.d_file)
    F = read_matpoly_file(args.f_file) if args.f_file else None
    V = read_matpoly_file(args.v_file) if args.v_file else None
    report = verify_smith(A, E, D, F=F, V=V)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.overall else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "compute": _cmd_compute,
        "local": _cmd_local,
        "factor-det": _cmd_factor_det,
        "gen": _cmd_gen,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ParseError, TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except NotRegular as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_REGULAR
    except ShapeMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (BadFamilyParam, NotIrreducible, PrimeDoesNotDivideDet) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except SmithError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
