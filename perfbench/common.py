"""Pieces shared by every workload: request streams, output checks,
statistics, the reference outcomes and the environment record.

This module imports neither numpy nor fredreg, so the ``oneshot``
parent process stays small and its children's peak memory is their own.
"""

import json
import math
import os
import platform
import statistics
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE_PATH = BENCH_DIR / "reference.json"

DEFAULT_SEED = 0
ACCEPTED_STOPS = ("discrepancy_met", "initial_below_threshold")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A workload seed spans its own block of noise seeds, so two workload
# seeds never share a noise draw.
_SEED_STRIDE = 1 << 32
# Warm-up requests draw from a block no timed request uses.
WARMUP_BLOCK = _SEED_STRIDE - 1


@dataclass(frozen=True)
class Spec:
    """One workload: the request mix and how its run is sized.

    ``setup_runs`` is how many times set-up is repeated to take its
    median. ``trace_rate`` (requests per second of ``--seconds``) fixes
    the request count of a traced run from its arguments alone, so that
    the traced counts repeat exactly for a given seed.
    """

    name: str
    levels: tuple
    schemes: tuple
    m_cap: int
    setup_runs: int
    trace_rate: float
    fixed_m: int = 4


WORKLOADS = {
    spec.name: spec
    for spec in (
        Spec("sweep", (0.05, 0.01, 0.005, 0.0005), ("adaptive", "fixed"), 6,
             setup_runs=5, trace_rate=200.0),
        Spec("deep", (5e-4, 1e-4, 1e-5), ("adaptive",), 8,
             setup_runs=3, trace_rate=12.0),
        Spec("oneshot", (0.01, 0.005, 0.0005), ("adaptive",), 6,
             setup_runs=3, trace_rate=3.0),
    )
}


@dataclass(frozen=True)
class Request:
    level: float
    scheme: str
    noise_seed: int


@dataclass(frozen=True)
class Outcome:
    """What a request returned, reduced to what the checks look at."""

    n_iters: int
    m_final: int
    stop_reason: str
    avg: float
    levels: tuple


def noise_seed(workload_seed, block):
    return workload_seed * _SEED_STRIDE + block


def request_at(spec, workload_seed, i):
    """The ``i``-th request of a workload: noise level, scheme, noise seed.

    Requests cycle over ``levels x schemes``; one noise seed serves a
    whole cycle, as in the paper table where every level and scheme of
    one row shares a seed.
    """
    per_block = len(spec.levels) * len(spec.schemes)
    block, k = divmod(i, per_block)
    level = spec.levels[k // len(spec.schemes)]
    scheme = spec.schemes[k % len(spec.schemes)]
    return Request(level, scheme, noise_seed(workload_seed, block))


def warmup_requests(spec):
    seed = noise_seed(0, WARMUP_BLOCK)
    return [
        Request(level, scheme, seed)
        for level in spec.levels
        for scheme in spec.schemes
    ]


def load_reference(workload, workload_seed):
    """Recorded outcomes of the first requests, on the default seed only."""
    if workload_seed != DEFAULT_SEED or not REFERENCE_PATH.exists():
        return []
    return json.loads(REFERENCE_PATH.read_text()).get(workload, [])


def check(outcome, reference, i):
    """Return the list of problems with one request's outcome (empty if fine)."""
    problems = []
    if outcome.stop_reason not in ACCEPTED_STOPS:
        problems.append(f"stop_reason {outcome.stop_reason}")
    if any(b < a for a, b in zip(outcome.levels, outcome.levels[1:])):
        problems.append(f"level sequence decreases: {outcome.levels}")
    if not math.isfinite(outcome.avg):
        problems.append(f"avg_error not finite: {outcome.avg}")
    if i < len(reference):
        n_iters, m_final, stop_reason, avg = reference[i]
        got = (outcome.n_iters, outcome.m_final, outcome.stop_reason)
        if got != (n_iters, m_final, stop_reason):
            problems.append(f"differs from reference: {got} != {(n_iters, m_final, stop_reason)}")
        elif not abs(outcome.avg - avg) <= 1e-9 * abs(avg):
            problems.append(f"avg {outcome.avg!r} differs from reference {avg!r}")
    return problems


class Tally:
    """Per-request latencies, outcomes and failures of one phase.

    ``block`` is the number of requests that share one noise seed (one
    per noise level and scheme).
    """

    def __init__(self, spec, reference=()):
        self.block = len(spec.levels) * len(spec.schemes)
        self.reference = reference
        self.latencies = []
        self.ends = []
        self.avgs = {}
        self.failed = 0
        self.problems = []
        self.checked_against_reference = 0

    def add(self, i, start, end, outcome=None, error=None):
        """Record request ``i``, run from ``start`` to ``end`` (seconds into its phase)."""
        self.latencies.append(end - start)
        self.ends.append(end)
        problems = [error] if error else check(outcome, self.reference, i)
        if outcome is not None:
            self.avgs.setdefault(i // self.block, []).append(outcome.avg)
            if i < len(self.reference):
                self.checked_against_reference += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append({"request": i, "problems": problems})

    @property
    def attempted(self):
        return len(self.latencies)

    def avg_err_p50(self):
        """Median over noise seeds of the mean ``avg_error`` of each full block.

        The noise levels and schemes of a block give errors of different
        size; the median of the pooled errors falls between two of these
        clusters and jumps with the run length, the median of block
        means does not.
        """
        means = [sum(v) / len(v) for v in self.avgs.values() if len(v) == self.block]
        return statistics.median(means) if means else math.nan


def closed_loop(spec, seed, do, tally, count=None, first=0, tracer=None, seconds=None):
    """One caller: run ``do(request)`` back to back and check each outcome.

    Runs requests ``first, first + 1, ...`` until ``count`` are done or
    ``seconds`` have passed, and returns the loop's wall time. A request
    that raises is counted as failed and the loop goes on.
    """
    start = perf_counter()
    deadline = start + (seconds or 0.0)
    i = first
    while True:
        req = request_at(spec, seed, i)
        if tracer is not None:
            tracer.request = i
        t0 = perf_counter()
        try:
            outcome, error = do(req), None
        except Exception as exc:  # a failed request, recorded in the tally
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        tally.add(i, t0 - start, t1 - start, outcome, error)
        i += 1
        if (i - first >= count) if count is not None else (t1 >= deadline):
            return t1 - start


def tail(values):
    """Highest order statistic with at least ten samples above it, capped at p90.

    Returns ``(value, percentile)``. Above p90 a run of the in-process
    workloads holds only a few dozen samples, and those track machine
    noise (preemption, other tenants) more than the program. With ten
    samples or fewer it is the maximum at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    if n >= 100:
        return ordered[(9 * n + 9) // 10 - 1], 90.0  # ceil(0.9 n)-th sample
    return ordered[n - 11], 100.0 * (n - 10) / n


def throughput(ends, slices=10):
    """Median over consecutive slices of the run of requests completed per second.

    ``ends`` are completion times from the start of the phase. A slice
    hit by a stall of the machine is an outlier the median discards.
    """
    n = len(ends)
    cuts = sorted({round(k * n / slices) for k in range(slices + 1)})
    rates = []
    for lo, hi in zip(cuts, cuts[1:]):
        begin = ends[lo - 1] if lo else 0.0
        rates.append((hi - lo) / (ends[hi - 1] - begin))
    return statistics.median(rates)


def latency_metrics(tally, phase_seconds, setup_runs, peak_rss_mb):
    """The seven end-to-end metrics of one run, plus details for the info line."""
    ms = [1e3 * s for s in tally.latencies]
    tail_ms, tail_pct = tail(ms)
    ok = tally.attempted - tally.failed
    metrics = {
        "setup_s": (statistics.median(setup_runs), "s"),
        "requests_per_s": (throughput(tally.ends), "1/s"),
        "request_ms.p50": (statistics.median(ms), "ms"),
        "request_ms.tail": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "avg_err.p50": (tally.avg_err_p50(), "1"),
        "ok_frac": (ok / tally.attempted, "1"),
    }
    details = {
        "setup_runs_s": setup_runs,
        "phase_s": phase_seconds,
        "requests_per_s.whole_phase": tally.attempted / phase_seconds,
        "samples": tally.attempted,
        "request_ms.tail_percentile": tail_pct,
        "fail_frac": tally.failed / tally.attempted,
        "fail_frac_base": tally.attempted,
        "checked_against_reference": tally.checked_against_reference,
    }
    return metrics, details


def environment(blas):
    """Versions, BLAS and thread settings of this run."""
    env = {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }
    env.update({var: os.environ.get(var) for var in BLAS_THREAD_VARS})
    env["blas"] = blas
    return env


def blas_config():
    """BLAS name and version from numpy's build record; imports numpy."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None
