import json
import tracemalloc
from fractions import Fraction

import pytest

from conftest import random_matrix
from smithpoly.errors import ParseError, TooLarge
from smithpoly.field import GaussianRational
from smithpoly.matio import (
    MAX_ENTRIES,
    read_matpoly,
    read_matpoly_json,
    read_matpoly_text,
    write_matpoly_json,
    write_matpoly_text,
)
from smithpoly.matpoly import MatPoly
from smithpoly.poly import Poly
from smithpoly.prng import SplitMix64

X = Poly.x()


def test_text_roundtrip_random():
    rng = SplitMix64(211)
    for _ in range(40):
        A = random_matrix(rng, 1 + rng.below(4), rng.below(5))
        assert read_matpoly_text(write_matpoly_text(A)) == A


def test_json_roundtrip_random():
    rng = SplitMix64(223)
    for _ in range(40):
        A = random_matrix(rng, 1 + rng.below(4), rng.below(5))
        assert read_matpoly_json(write_matpoly_json(A)) == A


def test_autodetect_format():
    A = MatPoly([[X, Poly.one()], [Poly.zero(), X - 1]])
    assert read_matpoly(write_matpoly_text(A)) == A
    assert read_matpoly(write_matpoly_json(A)) == A


def test_known_layout():
    A = MatPoly([[Poly([2, 0, 1]), Poly.zero()], [Poly.zero(), Poly([-1, 1])]])
    text = write_matpoly_text(A)
    assert text.splitlines()[0] == "matpoly 2 2 over Q"
    assert "entry 1 1: 2 0 1" in text
    assert "entry 2 2: -1 1" in text
    # zero entries omitted
    assert "entry 1 2" not in text and "entry 2 1" not in text


def test_missing_entries_are_zero():
    A = read_matpoly_text("matpoly 2 3 over Q\nentry 2 3: 1/2 1\n")
    assert A.rows == 2 and A.cols == 3
    assert A[1, 2] == Poly([Fraction(1, 2), 1])
    assert A[0, 0].is_zero()


def test_gaussian_matrix_roundtrip():
    i = GaussianRational(0, 1)
    A = MatPoly([[Poly([i, 1]), Poly([GaussianRational(1, -2)])], [Poly.zero(), Poly.one()]])
    text = write_matpoly_text(A)
    assert text.splitlines()[0] == "matpoly 2 2 over Q+iQ"
    assert read_matpoly_text(text) == A
    assert read_matpoly_json(write_matpoly_json(A)) == A


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "matpoly 2 over Q\n",
        "matpoly 2 2 over R\n",
        "matpoly 0 2 over Q\n",
        "matpoly 2 2 over Q\nentry 3 1: 1\n",
        "matpoly 2 2 over Q\nentry 1: 1\n",
        "matpoly 2 2 over Q\nnonsense\n",
        "matpoly 2 2 over Q\nentry 1 1: 1.5\n",
        '{"rows": 2, "cols": 2}',
        "{not json",
    ],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        read_matpoly(bad if bad else "matpoly")


def _json_doc(rows, cols, entries):
    return json.dumps({"rows": rows, "cols": cols, "over": "Q", "entries": entries})


@pytest.mark.parametrize(
    "bad",
    [
        "matpoly 1 1 over Q\nentry 1 1: 1/0\n",
        "matpoly 1 1 over Q\nentry 1 1: 2 3+1/0i\n",
        _json_doc(1, 1, [{"i": 1, "j": 1, "coeffs": ["1/0"]}]),
        _json_doc(1, 1, [{"i": 1, "j": 1, "coeffs": ["1/0+i"]}]),
    ],
)
def test_zero_denominator_is_a_parse_error(bad):
    with pytest.raises(ParseError, match="zero denominator"):
        read_matpoly(bad)


@pytest.mark.parametrize(
    "bad",
    [
        "matpoly 2 2 over Q\nentry 1 2: 1\nentry 2 1: 3\nentry 1 2: 5\n",
        _json_doc(2, 2, [{"i": 1, "j": 2, "coeffs": ["1"]}, {"i": 1, "j": 2, "coeffs": ["5"]}]),
    ],
)
def test_duplicate_entry_is_a_parse_error(bad):
    with pytest.raises(ParseError, match=r"duplicate entry \(1,2\)"):
        read_matpoly(bad)


@pytest.mark.parametrize(
    "bad",
    [
        _json_doc(1, 1, [{"i": 1, "j": 1, "coeffs": [1]}]),
        _json_doc(1, 1, {"i": 1}),
    ],
)
def test_malformed_json_entries_are_parse_errors(bad):
    with pytest.raises(ParseError):
        read_matpoly(bad)


_ENTRY = {"i": 1, "j": 1, "coeffs": ["3"]}


@pytest.mark.parametrize(
    "bad",
    [
        _json_doc(2.9, 1, [_ENTRY]),
        _json_doc(2, True, [_ENTRY]),
        _json_doc(2.0, 1, [_ENTRY]),
        _json_doc("2", 1, [_ENTRY]),
        _json_doc(None, 1, [_ENTRY]),
        _json_doc(2, 1, [{"i": 1.7, "j": 1, "coeffs": ["3"]}]),
        _json_doc(2, 1, [{"i": 1, "j": True, "coeffs": ["3"]}]),
        _json_doc(2, 1, [{"i": "1", "j": 1, "coeffs": ["3"]}]),
    ],
)
def test_json_sizes_and_indices_must_be_integers(bad):
    """A float, bool or string size or index is refused, not truncated:
    {"rows": 2.9, "cols": true, ...} once read as a 2x1 matrix."""
    with pytest.raises(ParseError):
        read_matpoly_json(bad)


def test_json_integer_sizes_and_indices_still_read():
    A = read_matpoly_json(_json_doc(2, 1, [{"i": 2, "j": 1, "coeffs": ["3"]}]))
    assert (A.rows, A.cols) == (2, 1) and A[1, 0] == 3 and A[0, 0].is_zero()


@pytest.mark.parametrize(
    "text",
    [
        "matpoly 100000000 100000000 over Q\nentry 1 1: 1\n",
        f"matpoly {MAX_ENTRIES + 1} 1 over Q\n",
        _json_doc(100000000, 100000000, []),
    ],
)
def test_size_cap_refuses_before_allocating(text):
    """The header alone is refused: the reader allocates no grid, so the
    peak stays far below even one row of pointers."""
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            read_matpoly(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_size_cap_admits_its_bound():
    assert read_matpoly(f"matpoly 1 {MAX_ENTRIES} over Q\n").cols == MAX_ENTRIES
