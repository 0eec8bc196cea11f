"""The benchmark's traced run (perfbench/tracing.py) on a tiny workload.
It calls the library layer by layer, so a changed signature there shows
up here as a failed operation instead of only under `run.py --trace 1`."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from harness import Instance, generate, load_program  # noqa: E402
from tracing import TIMES, run_traced  # noqa: E402
from workloads import DEFAULT_SEED, Workload  # noqa: E402


def test_traced_run_reaches_every_layer():
    sp = load_program()
    workload = Workload("tiny", ((1, 4, "revcols"), (6, 3, "none")), with_U=True)
    mats = generate(sp, workload, DEFAULT_SEED)
    insts = [
        Instance(sp, k, spec, A)
        for k, (spec, A) in enumerate(zip(workload.instances, mats))
    ]
    ledger, _, record = run_traced(sp, workload, insts, DEFAULT_SEED, seconds=0)
    assert ledger.errors == []
    assert ledger.attempted > 0 and ledger.failed == 0 and ledger.correct
    spans = {span["name"] for span in record["spans"]}
    # combine_check and overhead are differences of spans, not spans
    layers = {m[: -len("_s")] for m in TIMES} - {
        "globalsmith.combine_check",
        "trace.overhead",
    }
    assert layers <= spans
