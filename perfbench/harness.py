"""Shared parts of the benchmark: loading the program from the checkout,
generating a workload's matrices, the operations' ledger and the rounds
they are timed in."""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
MIN_ROUNDS = 4  # so that a slow first call is outvoted by the median
# calibration() on an uncontended core of the machine the README's figures
# come from; a scaled time reads as wall time at that speed
REFERENCE_S = 0.012


def load_program():
    """Import smithpoly from this checkout's src/, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import smithpoly

    origin = Path(smithpoly.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"smithpoly was imported from {origin}, not from {src}")
    return smithpoly


def instance_seed(seed, k):
    """Generator seed of a workload's k-th instance: distinct for every
    (seed, k), so runs with neighbouring seeds share no matrix."""
    return seed * 100 + k


def generate(sp, workload, seed):
    return [
        sp.gen_test_matrix(sp.FamilySpec(f, n, instance_seed(seed, k), perm))
        for k, (f, n, perm) in enumerate(workload.instances)
    ]


def calibration():
    """A fixed piece of exact rational arithmetic of the kind the program
    does (Gauss-Jordan inversion of a 12x12 rational matrix).  Its wall
    time just before an operation measures how fast the shared host runs
    at that moment."""
    n = 12
    a = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i * j) % 5) + 13 * (i == j)
          for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for k in range(n):
        a[k] = [v / a[k][k] for v in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return a


def probe() -> float:
    """Wall time of one calibration()."""
    t0 = time.perf_counter()
    calibration()
    return time.perf_counter() - t0


def time_setup(workload, seed):
    """Scaled median wall time of a fresh interpreter importing smithpoly
    and generating the workload's matrices (see Rounds.scaled), and the
    raw (time, probe) pairs."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--setup-only",
        "--workload", workload.name, "--seed", str(seed),
    ]
    pairs = []
    for _ in range(SETUP_REPEATS):
        c = probe()
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        pairs.append((time.perf_counter() - t0, c))
    return REFERENCE_S * statistics.median(t / c for t, c in pairs), pairs


# -- sizes -------------------------------------------------------------------


def size(M):
    """(largest entry degree, largest numerator or denominator bit length,
    total bit length of all numerators and denominators)."""
    deg = checks.degree(M)
    largest = total = 0
    for i in range(M.rows):
        for j in range(M.cols):
            for c in M[i, j].coeffs:
                num, den = abs(c.numerator).bit_length(), c.denominator.bit_length()
                largest = max(largest, num, den)
                total += num + den
    return deg, largest, total


# -- one instance and its ground truth -----------------------------------------


class Instance:
    def __init__(self, sp, k, spec, A):
        family, param, perm = spec
        self.label = f"{k}:fam{family}-{param}-{perm}"
        self.A = A
        self.diag = checks.family_diagonal(family, param)
        # (prime as a program Poly, prime as an integer list, multiplicity)
        self.primes = []
        for p in checks.family_primes(family, param):
            mu = sum(checks.local_exponents(self.diag, p))
            self.primes.append((sp.Poly(p), p, mu))


# -- operations, their checks and their counts -----------------------------------


def same_smith(a, b):
    return a.D == b.D and a.V == b.V and a.E == b.E and a.U == b.U


def same_local(a, b):
    return a.alphas == b.alphas and a.V == b.V and a.E == b.E


class Ledger:
    """Attempted and failed operations, and their outputs' checks.

    The first output of an operation is kept as its reference and checked
    after the timed rounds; a later output equal to it shares its verdict,
    and one that differs is checked on the spot.  A check that fails
    makes the operation failed and the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.refs = {}  # key -> [output, rounds that returned it, checker, same]
        self.errors = []

    def error(self, key, exc):
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{key}: {type(exc).__name__}: {exc}")

    def output(self, key, out, checker, same):
        self.attempted += 1
        ref = self.refs.get(key)
        if ref is None:
            self.refs[key] = [out, 1, checker, same]
        elif same(out, ref[0]):
            ref[1] += 1
        else:
            self._judge(key, checker(out), 1)

    def verdict(self, key, ok, what):
        self.attempted += 1
        if not ok:
            self._judge(key, [what], 1)

    def finish(self):
        for key, (out, count, checker, _) in self.refs.items():
            self._judge(key, checker(out), count)

    def _judge(self, key, fails, count):
        if fails:
            self.failed += count
            self.correct = False
            self.errors.append(f"{key}: {fails[0]}")


def run_op(ledger, key, fn, *args, **kwargs):
    """Time one call; return (seconds, result) or (None, None) on error."""
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # a failed operation is counted, not fatal
        ledger.error(key, exc)
        return None, None
    return time.perf_counter() - t0, out


def smith_checker(inst, with_U):
    def check(r):
        return checks.check_smith(
            inst.A, r.D, r.V, r.E, inst.diag, U=r.U if with_U else None
        )

    return check


def local_checker(inst, p):
    def check(loc):
        return checks.check_local(inst.A, p, loc.alphas, loc.V, loc.E, inst.diag)

    return check


class Rounds:
    """Per-operation times over rounds, each with the calibration probe
    taken just before it (or None)."""

    def __init__(self):
        self.times = {}  # metric -> op key -> [(seconds, probe seconds) per round]
        self.round = 0

    def add(self, metric, key, seconds, probe_s=None):
        if seconds is not None:
            self.times.setdefault(metric, {}).setdefault(key, []).append((seconds, probe_s))

    def total(self, metric):
        """Sum over the operations of each one's median over the rounds."""
        ops = self.times.get(metric, {})
        return sum(statistics.median(t for t, _ in v) for v in ops.values())

    def scaled(self, metric):
        """Like total, of each time divided by its probe, times REFERENCE_S:
        the wall time at the reference speed, so that a stretch in which the
        shared host runs slower moves probe and operation alike and cancels."""
        ops = self.times.get(metric, {})
        return REFERENCE_S * sum(statistics.median(t / c for t, c in v) for v in ops.values())


def loop(seconds, one_round, rounds):
    """Run whole rounds: at least MIN_ROUNDS, and another one only while it
    is expected to end within `seconds`."""
    start = time.perf_counter()
    while True:
        gc.collect()  # no round pays for the garbage of the one before
        one_round()
        rounds.round += 1
        elapsed = time.perf_counter() - start
        if rounds.round >= MIN_ROUNDS and elapsed * (rounds.round + 1) / rounds.round > seconds:
            return
