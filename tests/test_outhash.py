"""tools/outhash.py: one sha256 over the program's exact outputs, which a
change meant to keep them must leave alone.  The tool is loaded from its
file, as it is run, and hashes the first corpus instance only."""

import dataclasses
import importlib.util
from pathlib import Path

import corpus
import pytest
import smithpoly
from smithpoly import MatPoly, Poly

TOOL = Path(__file__).resolve().parent.parent / "tools" / "outhash.py"


@pytest.fixture(autouse=True)
def _one_corpus_instance(monkeypatch):
    monkeypatch.setattr(corpus, "GROUND_TRUTH", corpus.GROUND_TRUTH[:1])


def _tool():
    spec = importlib.util.spec_from_file_location("outhash", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hash_is_stable_across_calls(monkeypatch):
    """Two calls agree, and another corpus instance changes the hash."""
    outhash = _tool()
    assert outhash._load()[2] is corpus
    first = outhash.digest()
    assert len(first) == 64
    assert outhash.digest() == first
    monkeypatch.setattr(corpus, "GROUND_TRUTH", [(2, 1, "none")])
    assert outhash.digest() != first


def test_hash_sees_one_perturbed_coefficient_of_V(monkeypatch):
    """Adding 1 to the constant coefficient of V[0][0] of the first solve
    changes the hash."""
    outhash = _tool()
    before = outhash.digest()
    solve, done = smithpoly.smith_with_multipliers, []

    def perturbed(A, **kwargs):
        r = solve(A, **kwargs)
        if done:
            return r
        done.append(True)
        rows = [list(row) for row in r.V.entries]
        cs = rows[0][0].coeffs
        rows[0][0] = Poly([cs[0] + 1, *cs[1:]] if cs else [1])
        return dataclasses.replace(r, V=MatPoly(rows))

    monkeypatch.setattr(smithpoly, "smith_with_multipliers", perturbed)
    assert outhash.digest() != before
    assert done
