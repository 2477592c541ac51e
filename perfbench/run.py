"""fredreg benchmark: one workload per process, result as JSON on the last line.

Usage (from the repository root):

    python3 perfbench/run.py --workload {sweep,deep,oneshot} --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same requests untraced and then traced and
prints the per-layer metrics and the tracing overhead. The line before
the result, starting with ``perfbench-info``, carries the environment
(versions, BLAS, threads, nproc) and the details behind the metrics:
sample counts, the tail percentile, ratio bases, absent layers and the
first failed checks. Spans of a traced run go to ``.bench_out/``.

BLAS is pinned to one thread in this process and in every process it
starts. The program is imported from ``src/`` of the same checkout;
without it the benchmark exits with status 2 and prints no result.
"""

import os

from common import BLAS_THREAD_VARS

for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is imported here or in a child

import argparse
import json
import sys

from common import OUT_DIR, SRC, WORKLOADS, environment
from tracing import COMPUTED, report


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def require_sources():
    if not (SRC / "fredreg" / "__init__.py").is_file():
        fail(f"no fredreg sources under {SRC}")


def import_program():
    """Put this checkout's ``src`` first on the path and check fredreg comes from it."""
    sys.path.insert(0, str(SRC))
    import fredreg

    if os.path.dirname(os.path.abspath(fredreg.__file__)) != str(SRC / "fredreg"):
        fail(f"fredreg imported from {fredreg.__file__}, not {SRC}")


def run(args):
    spec = WORKLOADS[args.workload]
    trace_path = OUT_DIR / f"trace-{spec.name}-seed{args.seed}.json"
    require_sources()
    OUT_DIR.mkdir(exist_ok=True)
    if spec.name == "oneshot":
        # The requests run in child processes; only a traced run imports
        # the program here.
        if args.trace:
            import_program()
        import oneshot as workload

        blas = workload.blas_of_children()
    else:
        import_program()
        import inproc as workload
        from common import blas_config

        blas = blas_config()
    if args.trace:
        tally, layers, details = workload.run_traced(spec, args.seed, args.seconds, trace_path)
        metrics = report(layers)
        details["computed"] = list(COMPUTED)
        details["not_reached"] = [name for name, (value, _) in metrics.items() if value == 0]
    else:
        tally, metrics, details = workload.run_e2e(spec, args.seed, args.seconds)
    details.update(
        workload=spec.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
        problems=tally.problems, env=environment(blas),
    )
    print("perfbench-info " + json.dumps(details))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    run(parse_args())
