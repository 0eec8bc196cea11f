"""The traced run: the pipeline of ``smith_with_multipliers`` called layer
by layer from outside, with a span around each call into a public
function of ``families``, ``matpoly``, ``factorization``, ``localsmith``,
``globalsmith`` and ``verify``.

The step-by-step result is not compared with ``smith_with_multipliers``;
it goes through the same independent checks as every other output, so
the pipeline's internals may change without breaking the benchmark.
"""

from __future__ import annotations

import time

import checks
from harness import (
    Ledger,
    Rounds,
    instance_seed,
    local_checker,
    loop,
    run_op,
    same_local,
    same_smith,
    size,
    smith_checker,
)

TIMES = (
    "families.gen_s",
    "matpoly.mat_det_s",
    "factorization.factor_over_rationals_s",
    "localsmith.local_smith_s",
    "localsmith.local_smith_over_K_s",
    "globalsmith.combine_local_s",
    "globalsmith.combine_check_s",
    "globalsmith.triangularize_s",
    "globalsmith.compute_E_s",
    "globalsmith.invert_unimodular_s",
    "verify.verify_smith_s",
    "trace.overhead_s",
)
SIZES = (
    "localsmith.V_bits",
    "globalsmith.B_deg",
    "globalsmith.B_bits",
    "globalsmith.U_deg",
    "globalsmith.U_bits",
)


class Tracer:
    """Spans (id, parent, name, start, end, attrs) kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.t0 = time.perf_counter()

    def span(self, name, **attrs):
        return _Span(self, name, attrs)


class _Span:
    def __init__(self, tracer, name, attrs):
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self):
        tr = self.tracer
        self.rec = {
            "id": len(tr.spans),
            "parent": tr.stack[-1]["id"] if tr.stack else None,
            "name": self.name,
            "start": time.perf_counter() - tr.t0,
            "end": None,
            "attrs": self.attrs,
        }
        tr.spans.append(self.rec)
        tr.stack.append(self.rec)
        return self.rec

    def __exit__(self, *exc):
        self.rec["end"] = time.perf_counter() - self.tracer.t0
        self.tracer.stack.pop()
        return False


def _duration(rec):
    return rec["end"] - rec["start"]


def _pick_bezout(locals_):
    # the rule bezout="auto" applies: per-column when chain lengths spread
    top = max(loc.alphas[-1] for loc in locals_)
    nonzero = [a for loc in locals_ for a in loc.alphas if a > 0]
    return "per-column" if top - min(nonzero) >= 2 else "whole"


def _same_pair(a, b):
    return a[0] == b[0] and a[1] == b[1]


def run_traced(sp, workload, insts, seed, seconds):
    ledger, rounds, tracer = Ledger(), Rounds(), Tracer()
    sizes = dict.fromkeys(SIZES, 0)

    def timed(metric, key, fn, *args, **kwargs):
        """Call fn under a span named after the metric; add its time."""
        with tracer.span(metric[:-2], key=key) as rec:
            out = fn(*args, **kwargs)
        rounds.add(metric, key, _duration(rec))
        return out

    def grow(prefix, M):
        deg, bits, _ = size(M)
        if f"{prefix}_deg" in sizes:
            sizes[f"{prefix}_deg"] = max(sizes[f"{prefix}_deg"], deg)
        sizes[f"{prefix}_bits"] = max(sizes[f"{prefix}_bits"], bits)

    def pipeline(inst):
        """The layers smith_with_multipliers runs, one call at a time.
        Returns the result and the span of the unchecked combine, which
        smith_with_multipliers does not run."""
        A, key = inst.A, inst.label
        det = timed("matpoly.mat_det_s", key, sp.mat_det, A)
        factored = timed("factorization.factor_over_rationals_s", key,
                         sp.factor_over_rationals, det)
        locals_ = []
        for p, e in factored.factors:
            pkey = f"{key}/{p.human_text()}"
            loc = timed("localsmith.local_smith_s", pkey, sp.local_smith, A, p, e)
            ledger.output(f"{pkey}/trace/local", loc,
                          local_checker(inst, [int(c) for c in p.coeffs]), same_local)
            grow("localsmith.V", loc.V)
            locals_.append(loc)
        mode = _pick_bezout(locals_)
        with tracer.span("globalsmith.combine_local", key=key, check=False) as plain:
            sp.combine_local(A, locals_, mode, factored=factored, check=False)
        with tracer.span("globalsmith.combine_local", key=key, check=True) as checked:
            combined = sp.combine_local(A, locals_, mode, factored=factored)
        rounds.add("globalsmith.combine_local_s", key, _duration(plain))
        rounds.add("globalsmith.combine_check_s", key,
                   _duration(checked) - _duration(plain))
        grow("globalsmith.B", combined.matrix)
        diag = [sp.Poly.one()] * A.rows
        for loc in locals_:
            diag = [d * loc.p ** a for d, a in zip(diag, loc.alphas)]
        D = sp.MatPoly.diag(diag)
        V = combined.matrix
        if len(locals_) > 1:
            V, _ = timed("globalsmith.triangularize_s", key, sp.triangularize, combined, D)
        E = timed("globalsmith.compute_E_s", key, sp.compute_E, A, V, D)
        U = invert(key, E) if workload.with_U else None
        return sp.SmithResult(D=D, V=V, E=E, U=U), plain

    def invert(key, E):
        U = timed("globalsmith.invert_unimodular_s", key, sp.invert_unimodular, E)
        grow("globalsmith.U", U)
        return U

    def one_round():
        for k, (inst, (f, n, perm)) in enumerate(zip(insts, workload.instances)):
            key = inst.label
            with tracer.span("instance", key=key, round=rounds.round):
                inst.A = timed("families.gen_s", key, sp.gen_test_matrix,
                               sp.FamilySpec(f, n, instance_seed(seed, k), perm))
                t, r = run_op(ledger, f"{key}/solve", sp.smith_with_multipliers,
                              inst.A, with_U=workload.with_U)
                if r is not None:
                    ledger.output(f"{key}/solve", r, smith_checker(inst, workload.with_U),
                                  same_smith)
                with tracer.span("pipeline", key=key) as root:
                    try:
                        res, plain = pipeline(inst)
                    except Exception as exc:  # counted as a failed operation
                        res = exc
                if isinstance(res, Exception):
                    ledger.error(f"{key}/trace/pipeline", res)
                    ledger.error(f"{key}/trace/verify", RuntimeError("no result"))
                    continue
                ledger.output(f"{key}/trace/pipeline", res,
                              smith_checker(inst, workload.with_U), same_smith)
                if t is not None:
                    rounds.add("trace.overhead_s", key,
                               _duration(root) - _duration(plain) - t)
                if not workload.with_U and rounds.round == 0:
                    # the U layer on small coefficients, outside the pipeline;
                    # once, since it can cost more than the whole pipeline
                    ukey = f"{key}/trace/invert_unimodular"
                    _, U = run_op(ledger, ukey, invert, key, res.E)
                    if U is not None:
                        ledger.output(ukey, (U, res.E),
                                      lambda out: checks.check_inverse(*out), _same_pair)
                for P, p, mu in inst.primes:
                    pkey = f"{key}/{P.human_text()}"
                    _, loc = run_op(ledger, f"{pkey}/trace/local_k", timed,
                                    "localsmith.local_smith_over_K_s", pkey,
                                    sp.local_smith_over_K, inst.A, P, mu)
                    if loc is not None:
                        ledger.output(f"{pkey}/trace/local_k", loc,
                                      local_checker(inst, p), same_local)
                _, rep = run_op(ledger, f"{key}/trace/verify", timed,
                                "verify.verify_smith_s", key, sp.verify_smith,
                                inst.A, res.E, res.D, V=res.V)
                if rep is not None:
                    ledger.verdict(f"{key}/trace/verify", rep.overall,
                                   "verify_smith rejected")

    loop(seconds, one_round, rounds)
    ledger.finish()
    metrics = {m: (rounds.total(m), "s") for m in TIMES}
    metrics.update((m, (sizes[m], m.rsplit("_", 1)[1])) for m in SIZES)
    return ledger, metrics, {"rounds": rounds.round, "spans": tracer.spans}
