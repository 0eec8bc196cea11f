"""Print one sha256 over the program's exact outputs.

    python tools/outhash.py [SEED ...]

The hash covers, with every coefficient written by `repr` (so a changed
value or a changed coefficient type changes it):

* D, V, E and U of smith_with_multipliers on every instance of every
  benchmark workload at each SEED (default: the workloads' default seed),
  with the workload's with_U;
* the exponents, V and E of local_smith and local_smith_over_K at every
  irreducible factor of det A of those instances;
* D, V, E and U of the 34 instances of the test corpus (tests/corpus.py).

A change that is meant to leave the outputs alone must print the same
hash before and after.  perfbench/ is only imported (its workload list),
and writes no bytecode cache there.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load():
    """smithpoly from this checkout's src/, the workload list and the corpus."""
    sys.dont_write_bytecode = True
    for sub in ("src", "perfbench", "tests"):
        if str(ROOT / sub) not in sys.path:
            sys.path.insert(0, str(ROOT / sub))
    import corpus
    import smithpoly
    import workloads

    return smithpoly, workloads, corpus


def _text(M) -> str:
    return ";".join(",".join(repr(e.coeffs) for e in row) for row in M.entries)


def _smith_text(r) -> str:
    return "|".join(_text(M) if M is not None else "-" for M in (r.D, r.V, r.E, r.U))


def digest(seeds=None) -> str:
    """The hex sha256 of the outputs at the given workload seeds and of
    the test corpus."""
    sp, workloads, tests_corpus = _load()
    h = hashlib.sha256()
    for seed in seeds or [workloads.DEFAULT_SEED]:
        for workload in workloads.WORKLOADS.values():
            for k, (fam, par, perm) in enumerate(workload.instances):
                # the benchmark's instance k: generator seed 100 * seed + k
                A = sp.gen_test_matrix(sp.FamilySpec(fam, par, 100 * seed + k, perm))
                r = sp.smith_with_multipliers(A, with_U=workload.with_U)
                h.update(_smith_text(r).encode() + b"\n")
                for p, mu in sp.factor_determinant(A).factors:
                    for fn in (sp.local_smith, sp.local_smith_over_K):
                        loc = fn(A, p, mu)
                        h.update(f"{loc.alphas}|{_text(loc.V)}|{_text(loc.E)}\n".encode())
    for key in tests_corpus.GROUND_TRUTH:
        r = sp.smith_with_multipliers(tests_corpus.instance(*key), with_U=True)
        h.update(_smith_text(r).encode() + b"\n")
    return h.hexdigest()


def main() -> int:
    print(digest([int(a) for a in sys.argv[1:]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
