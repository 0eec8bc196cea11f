"""smithpoly benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout.  One process, one thread: it measures set-up
in a few child processes started one after another, then runs whole
rounds of the workload's operations for about ``--seconds`` seconds (at
least four rounds).  Before each timed call it times a fixed calibration
computation; each reported time is the sum, over the workload's
operations, of the median over the rounds of that operation's time
divided by its calibration time, times ``harness.REFERENCE_S``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
pipeline step by step under spans and reports the per-layer metrics;
its spans are written to ``perfbench/results/``.  Every output is
checked by ``checks.py``; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    HERE,
    Instance,
    Ledger,
    Rounds,
    generate,
    load_program,
    local_checker,
    loop,
    probe,
    run_op,
    same_local,
    same_smith,
    size,
    smith_checker,
    time_setup,
)
from tracing import run_traced  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

RESULTS = HERE / "results"


# -- the end-to-end run -------------------------------------------------------------


def run_plain(sp, workload, insts, seconds):
    ledger, rounds = Ledger(), Rounds()

    def timed(metric, key, opkey, fn, *args, **kwargs):
        """run_op with a calibration probe just before it."""
        c = probe()
        t, out = run_op(ledger, opkey, fn, *args, **kwargs)
        rounds.add(metric, key, t, c)
        return out

    def one_round():
        for inst in insts:
            key = inst.label
            r = timed("solve_s", key, f"{key}/solve", sp.smith_with_multipliers,
                      inst.A, with_U=workload.with_U)
            if r is not None:
                ledger.output(f"{key}/solve", r, smith_checker(inst, workload.with_U),
                              same_smith)
            for variant, fn in (("local_s", sp.local_smith),
                                ("local_k_s", sp.local_smith_over_K)):
                for P, p, mu in inst.primes:
                    opkey = f"{key}/{variant}/{P.human_text()}"
                    loc = timed(variant, opkey, opkey, fn, inst.A, P, mu)
                    if loc is not None:
                        ledger.output(opkey, loc, local_checker(inst, p), same_local)
            if r is None:
                ledger.error(f"{key}/verify", RuntimeError("no result to verify"))
                continue
            rep = timed("verify_s", key, f"{key}/verify", sp.verify_smith,
                        inst.A, r.E, r.D, V=r.V)
            if rep is not None:
                ledger.verdict(f"{key}/verify", rep.overall, "verify_smith rejected")

    loop(seconds, one_round, rounds)
    ledger.finish()

    # degrees: the largest over the workload; bits: the total over the
    # workload, since the largest coefficient of a few results varies with
    # the seed by more than the bound (see README.md)
    sizes = {"V_deg": 0, "V_bits": 0, "E_deg": 0, "E_bits": 0}
    for key, (out, *_rest) in ledger.refs.items():
        if key.endswith("/solve"):
            for name, M in (("V", out.V), ("E", out.E)):
                deg, _, bits = size(M)
                sizes[f"{name}_deg"] = max(sizes[f"{name}_deg"], deg)
                sizes[f"{name}_bits"] += bits
    metrics = {m: (rounds.scaled(m), "s")
               for m in ("solve_s", "local_s", "local_k_s", "verify_s")}
    metrics.update({k: (v, "deg" if k.endswith("deg") else "bits")
                    for k, v in sizes.items()})
    return ledger, rounds, metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- command line -----------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def emit(ledger, metrics):
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        generate(load_program(), workload, args.seed)
        return 0

    setup_s, setup_pairs = (None, None) if args.trace else time_setup(workload, args.seed)
    sp = load_program()
    specs = workload.instances
    mats = generate(sp, workload, args.seed)
    insts = [Instance(sp, k, spec, A) for k, (spec, A) in enumerate(zip(specs, mats))]

    if args.trace:
        ledger, metrics, record = run_traced(sp, workload, insts, args.seed, args.seconds)
        name = f"trace-{workload.name}-{args.seed}.json"
    else:
        ledger, rounds, metrics = run_plain(sp, workload, insts, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        record = {"rounds": rounds.round, "times": rounds.times, "setup": setup_pairs}
        name = f"run-{workload.name}-{args.seed}.json"
    record.update(workload=workload.name, seed=args.seed, errors=ledger.errors)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / name).write_text(json.dumps(record, indent=1))
    for line in ledger.errors:
        print(line, file=sys.stderr)
    emit(ledger, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
