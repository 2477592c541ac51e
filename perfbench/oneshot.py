"""The ``oneshot`` workload: one ``fredreg solve`` process per request.

One caller in a closed loop, as in a shell loop that waits for each
command. Every request pays interpreter start, imports and a cold
``OperatorCache``, and writes its reconstruction with ``--out``. This
module imports neither numpy nor fredreg, so the peak memory of the
children is not inflated by the parent. The traced run calls
``fredreg.cli.main`` in this process instead (the caller has put this
checkout's ``src`` on ``sys.path``), and reads start-up cost from
``python -X importtime``.
"""

import contextlib
import io
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from common import (
    OUT_DIR,
    SRC,
    Outcome,
    Tally,
    closed_loop,
    latency_metrics,
    load_reference,
    warmup_requests,
)
from tracing import Tracer

# What the installed ``fredreg`` console script runs.
CLI = [sys.executable, "-c", "from fredreg.cli import run; run()"]
CHILD_TIMEOUT_S = 120
IMPORTTIME_RUNS = 3
_SUMMARY = re.compile(r"stop=(\S+) n_delta=(\d+) m_final=(\d+)")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cli_args(req, out_path):
    return [
        "solve", "--scheme", "adaptive", "--noise", repr(req.level),
        "--seed", str(req.noise_seed), "--out", str(out_path),
    ]


def parse(code, stdout, out_path, stderr=""):
    """Outcome of one ``fredreg solve``, or raise ValueError naming the problem."""
    if code != 0:
        raise ValueError(f"exit code {code}: {stderr.strip()[-300:]}")
    summary = _SUMMARY.search(stdout)
    if summary is None:
        raise ValueError("no summary line in the output")
    levels = [
        int(fields[2])
        for fields in map(str.split, stdout.splitlines())
        if len(fields) == 6 and fields[0].isdigit()
    ]
    with open(out_path) as handle:
        rows = handle.read().splitlines()
    if rows[0] != "t,u_adaptive,u_exact" or len(rows) != 101:
        raise ValueError(f"unexpected CSV: header {rows[0]!r}, {len(rows)} lines")
    errors = []
    for row in rows[1:]:
        t, u, exact = (float(x) for x in row.split(","))
        if not all(math.isfinite(x) for x in (t, u, exact)) or t != exact:
            raise ValueError(f"bad CSV row {row!r}")
        errors.append(abs(exact - u))
    return Outcome(
        n_iters=int(summary.group(2)),
        m_final=int(summary.group(3)),
        stop_reason=summary.group(1),
        avg=math.fsum(errors) / len(errors),
        levels=tuple(levels),
    )


def launch(req, out_path):
    done = subprocess.run(
        CLI + cli_args(req, out_path), env=child_env(), capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    return parse(done.returncode, done.stdout, out_path, done.stderr)


def run_e2e(spec, seed, seconds):
    """Warm-up launches (bytecode, file cache) as set-up, then the timed loop."""
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work_dir:
        return _run_e2e(spec, seed, seconds, Path(work_dir) / "u.csv")


def _run_e2e(spec, seed, seconds, out_path):
    setup_runs = []
    for req in warmup_requests(spec)[: spec.setup_runs]:
        start = perf_counter()
        launch(req, out_path)
        setup_runs.append(perf_counter() - start)
    tally = Tally(spec, load_reference(spec.name, seed))
    phase = closed_loop(spec, seed, lambda req: launch(req, out_path), tally, seconds=seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    metrics, details = latency_metrics(tally, phase, setup_runs, peak_mb)
    return tally, metrics, details


def blas_of_children():
    """BLAS name and version as the children see it (keeps numpy out of this process)."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); from common import blas_config; print(blas_config())"
    done = subprocess.run(
        [sys.executable, "-c", code, os.path.dirname(os.path.abspath(__file__))],
        env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return done.stdout.strip()


def import_times():
    """Start-up import cost of ``fredreg.cli`` from ``python -X importtime``.

    ``startup.import_s`` sums the self time of every module imported,
    ``startup.import_scipy_s`` the cumulative time of the outermost
    ``scipy`` imports (scipy with all it pulls in), and
    ``startup.import_fredreg_self_s`` the self time of fredreg's own
    modules. Median of a few launches.
    """
    runs = {"startup.import_s": [], "startup.import_scipy_s": [], "startup.import_fredreg_self_s": []}
    for _ in range(IMPORTTIME_RUNS):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import fredreg.cli"],
            env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        entries = []  # (depth, package, self_us, cumulative_us), children before parents
        for line in done.stderr.splitlines():
            fields = line.split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            name = fields[2][1:]
            depth = (len(name) - len(name.lstrip())) // 2
            package = name.strip().split(".")[0]
            entries.append((depth, package, int(fields[0].split(":")[-1]), int(fields[1])))
        total = scipy = own = 0
        ancestors = []
        for depth, package, self_us, cumulative_us in reversed(entries):
            del ancestors[depth:]
            total += self_us
            if package == "scipy" and "scipy" not in ancestors:
                scipy += cumulative_us
            if package == "fredreg":
                own += self_us
            ancestors.append(package)
        for key, us in zip(runs, (total, scipy, own)):
            runs[key].append(us * 1e-6)
    return {key: statistics.median(values) for key, values in runs.items()}


def run_traced(spec, seed, seconds, out_path):
    """``fredreg.cli.main`` in this process, untraced then traced, same requests."""
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work_dir:
        return _run_traced(spec, seed, seconds, Path(work_dir) / "u.csv", out_path)


def _run_traced(spec, seed, seconds, csv_path, out_path):
    import fredreg.cli

    def call(main):
        def do(req):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(cli_args(req, csv_path))
            return parse(code, buf.getvalue(), csv_path)
        return do

    count = max(1, round(seconds * spec.trace_rate))
    tally = Tally(spec, load_reference(spec.name, seed))
    tracer = Tracer(entry_module="fredreg.cli")
    untraced, traced = tracer.compare(
        spec, seed, tally, count,
        call(fredreg.cli.main), call(tracer.wrap(fredreg.cli.main, "cli.main")))
    layers, _, details = tracer.finish(out_path, count, untraced, traced)
    layers.update(import_times())
    return tally, layers, details
