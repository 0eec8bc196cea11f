"""Print the statements of src/smithpoly/*.py that no tier-1 test executes.

    python tools/linecov.py [pytest arguments, paths from the repository root]
    python tools/linecov.py --workloads

Runs the test suite in this interpreter from the repository root (with
pytest's own configuration, so tests/ and perfbench/ unless arguments
name other tests) under a sys.settrace line tracer, with
the standard library only, and prints each statement whose first line
never ran as `path:line: source`, then a count.  A statement counts if
the compiler gives its first line bytecode, so docstrings, `global` and
the like are left out.  Code run in child processes (the command-line
tests, the benchmark's runs) is not traced.  Tracing makes the suite
about twice as slow.

With --workloads it traces the benchmark's workloads instead of the
tests: one round of each workload of perfbench/workloads.py at its
default seed, through the public calls perfbench/run.py times
(smith_with_multipliers with the workload's with_U, local_smith and
local_smith_over_K at each prime of each instance, and verify_smith),
and prints the statements no workload runs.  perfbench/ is only
imported, and writes no bytecode cache there.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "smithpoly"


def statements(path: Path) -> dict:
    """line -> source of each statement of a module that has bytecode on
    its first line."""
    source = path.read_text()
    lines = source.splitlines()
    code = compile(source, str(path), "exec")
    with_bytecode, todo = set(), [code]
    while todo:
        co = todo.pop()
        with_bytecode.update(line for _, _, line in co.co_lines() if line is not None)
        todo.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    out = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt) and node.lineno in with_bytecode:
            out[node.lineno] = lines[node.lineno - 1].strip()
    return out


def traced(fn, *args):
    """(fn(*args), set of (file, line) executed in the package)."""
    prefix = str(PACKAGE)
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        out = fn(*args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return out, hits


def run_workloads() -> int:
    """One round of every benchmark workload at its default seed, through
    the calls perfbench/run.py times; 0, or 1 if verify_smith rejects a
    result."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    from harness import Instance, generate, load_program
    from workloads import DEFAULT_SEED, WORKLOADS

    sp = load_program()
    wrong = 0
    for workload in WORKLOADS.values():
        mats = generate(sp, workload, DEFAULT_SEED)
        for k, (spec, A) in enumerate(zip(workload.instances, mats)):
            inst = Instance(sp, k, spec, A)
            r = sp.smith_with_multipliers(A, with_U=workload.with_U)
            for fn in (sp.local_smith, sp.local_smith_over_K):
                for P, _, mu in inst.primes:
                    fn(A, P, mu)
            wrong += not sp.verify_smith(A, r.E, r.D, V=r.V).overall
    return int(wrong > 0)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    os.chdir(ROOT)
    if args == ["--workloads"]:
        code, hits = traced(run_workloads)
        ran = "workload"
    else:
        code, hits = traced(pytest.main, ["-q", "-p", "no:cacheprovider", *args])
        ran = "pytest"
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        name = str(path)
        for line, text in sorted(statements(path).items()):
            if (name, line) not in hits:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{missed} statements not executed ({ran} exit code {int(code)})")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
