"""The matrix-polynomial file format and its JSON mirror.

Text form::

    matpoly <rows> <cols> over Q
    entry <i> <j>: <c0> <c1> ... <cd>

Indices are 1-based, coefficients ascending in the scalar syntax, missing
entries are zero, and an entry may appear at most once.  A matrix with
more than MAX_ENTRIES entries is refused (TooLarge) before anything is
allocated.  Canonical output lists nonzero entries in row-major
order with trailing zero coefficients omitted, so write-then-read is the
identity on canonical matrices.
"""

from __future__ import annotations

import json

from .errors import ParseError, TooLarge
from .field import GaussianRational, format_scalar, parse_scalar
from .matpoly import MatPoly
from .poly import Poly

_FIELD_TOKENS = {"Q": "Q", "Q+iQ": "Q+iQ", "Qi": "Q+iQ", "Q(i)": "Q+iQ"}

# rows * cols above this is refused before the grid is allocated
MAX_ENTRIES = 10**6


def field_of(A: MatPoly) -> str:
    for row in A.entries:
        for e in row:
            for c in e.coeffs:
                if isinstance(c, GaussianRational) and c.im != 0:
                    return "Q+iQ"
    return "Q"


def write_matpoly_text(A: MatPoly) -> str:
    lines = [f"matpoly {A.rows} {A.cols} over {field_of(A)}"]
    for i in range(A.rows):
        for j in range(A.cols):
            e = A[i, j]
            if e.is_zero():
                continue
            coeffs = " ".join(format_scalar(c) for c in e.coeffs)
            lines.append(f"entry {i + 1} {j + 1}: {coeffs}")
    return "\n".join(lines) + "\n"


def read_matpoly_text(text: str) -> MatPoly:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty matpoly file")
    head = lines[0].split()
    if len(head) != 5 or head[0] != "matpoly" or head[3] != "over":
        raise ParseError(f"bad header: {lines[0]!r}")
    try:
        rows, cols = int(head[1]), int(head[2])
    except ValueError as exc:
        raise ParseError(f"bad dimensions in header: {lines[0]!r}") from exc
    if head[4] not in _FIELD_TOKENS:
        raise ParseError(f"unknown field {head[4]!r}")
    grid, seen = _zero_grid(rows, cols), set()
    for ln in lines[1:]:
        if not ln.startswith("entry"):
            raise ParseError(f"unexpected line: {ln!r}")
        head_part, _, coeff_part = ln.partition(":")
        bits = head_part.split()
        if len(bits) != 3:
            raise ParseError(f"bad entry line: {ln!r}")
        try:
            i, j = int(bits[1]), int(bits[2])
        except ValueError as exc:
            raise ParseError(f"bad indices in: {ln!r}") from exc
        _set_entry(grid, seen, i, j, [parse_scalar(tok) for tok in coeff_part.split()])
    return MatPoly(grid)


def _zero_grid(rows: int, cols: int) -> list:
    if rows < 1 or cols < 1:
        raise ParseError("dimensions must be positive")
    if rows * cols > MAX_ENTRIES:
        raise TooLarge(f"a {rows}x{cols} matrix has more than {MAX_ENTRIES} entries")
    return [[Poly.zero()] * cols for _ in range(rows)]


def _set_entry(grid: list, seen: set, i: int, j: int, coeffs: list) -> None:
    rows, cols = len(grid), len(grid[0])
    if not (1 <= i <= rows and 1 <= j <= cols):
        raise ParseError(f"entry ({i},{j}) outside {rows}x{cols}")
    if (i, j) in seen:
        raise ParseError(f"duplicate entry ({i},{j})")
    seen.add((i, j))
    grid[i - 1][j - 1] = Poly(coeffs)


def write_matpoly_json(A: MatPoly) -> str:
    doc = {
        "rows": A.rows,
        "cols": A.cols,
        "over": field_of(A),
        "entries": [
            {
                "i": i + 1,
                "j": j + 1,
                "coeffs": [format_scalar(c) for c in A[i, j].coeffs],
            }
            for i in range(A.rows)
            for j in range(A.cols)
            if not A[i, j].is_zero()
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def read_matpoly_json(text: str) -> MatPoly:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from exc
    except ValueError as exc:
        # a bare integer over Python's int string conversion limit
        raise TooLarge(f"JSON number: {exc}") from exc
    try:
        rows, cols = _json_int(doc["rows"]), _json_int(doc["cols"])
        over = doc["over"]
        entries = doc["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("JSON matpoly needs rows/cols/over/entries") from exc
    if over not in _FIELD_TOKENS:
        raise ParseError(f"unknown field {over!r}")
    if not isinstance(entries, list):
        raise ParseError("JSON matpoly entries must be a list")
    grid, seen = _zero_grid(rows, cols), set()
    for ent in entries:
        try:
            i, j = _json_int(ent["i"]), _json_int(ent["j"])
            coeffs = [parse_scalar(tok) for tok in ent["coeffs"]]
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad JSON entry: {ent!r}") from exc
        _set_entry(grid, seen, i, j, coeffs)
    return MatPoly(grid)


def _json_int(v) -> int:
    """A JSON size or index: an int, not a bool, a float or a string."""
    if type(v) is not int:
        raise TypeError(f"expected an integer, got {v!r}")
    return v


def read_matpoly(text: str) -> MatPoly:
    """Accept either the text format or its JSON mirror."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return read_matpoly_json(text)
    return read_matpoly_text(text)


def read_matpoly_file(path) -> MatPoly:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return read_matpoly(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def write_matpoly_file(path, A: MatPoly, as_json: bool = False) -> None:
    text = write_matpoly_json(A) if as_json else write_matpoly_text(A)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
