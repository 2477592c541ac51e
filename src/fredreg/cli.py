"""Command-line front end for the benchmark experiment.

Two subcommands drive the built-in problem through the one sweep of
:mod:`.experiment`, which checks every input before the first run (the
parser only converts: a seed is any integer, and the sweep refuses a
negative one):

* ``solve``: one (noise level, seed) reconstruction, printing the
  iteration trace and summary, optionally writing the reconstruction.
* ``table``: the full sweep over noise levels, seeds and schemes,
  printing median-aggregated results and optionally writing the row CSV.

``--out`` is opened after every input check and before the first solve:
a refused command leaves the file as it was, and a run that fails leaves
it empty.

Exit codes: 0 on success, 2 on configuration errors (among them every
level, count or index that is not an integer or is out of range and an
empty list of noise levels or seeds), when memory runs out and when
``--out`` cannot be written, 3 when any run stopped for a reason other
than the discrepancy rule, 4 on a numerical breakdown, any
``numpy.linalg.LinAlgError`` (a shifted system Cholesky cannot factor,
the pivot given in the message, or a run whose discrepancy or iterate
overflows).
"""

import argparse
import gc
import sys
from contextlib import nullcontext
from dataclasses import fields

from numpy.linalg import LinAlgError

from .experiment import (
    _EVAL_GRID, _SCHEMES, PAPER_NOISE_LEVELS, _runs, format_summary, rows_to_csv,
)
from .haar import evaluate
from .iteration import SolverConfig

_OK_STOPS = ("discrepancy_met", "initial_below_threshold")


def _float_list(text):
    return [float(tok) for tok in text.split(",") if tok]


def _int_list(text):
    return [int(tok) for tok in text.split(",") if tok]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fredreg",
        description="Adaptive-rank iterative regularization benchmark runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        cfg = SolverConfig  # every solver default is the config's own
        p.add_argument("--alpha0", type=float, default=cfg.alpha0, help="initial scale a_0")
        p.add_argument("--q", type=float, default=cfg.q, help="geometric ratio in (0,1)")
        p.add_argument("--C", type=float, default=cfg.C, help="discrepancy constant > 2")
        p.add_argument("--eps", type=float, default=cfg.eps, help="discrepancy exponent in (0,1)")
        p.add_argument("--eta", type=float, default=cfg.eta, help="level-rule relaxation >= 10")
        p.add_argument("--max-iter", type=int, default=cfg.max_iter, help="iteration cap")
        p.add_argument("--m-cap", type=int, default=cfg.m_cap, help="maximum dyadic level")
        p.add_argument("--fixed-m", type=int, default=4, help="level of the fixed scheme")
        p.add_argument("--out", default=None, help="output CSV path")

    solve = sub.add_parser("solve", help="run a single reconstruction")
    add_common(solve)
    solve.add_argument("--noise", type=float, default=0.05, help="relative noise level")
    solve.add_argument("--seed", type=int, default=0, help="RNG seed")
    solve.add_argument("--scheme", choices=_SCHEMES, default="adaptive")

    table = sub.add_parser("table", help="run the noise-level sweep")
    add_common(table)
    table.add_argument(
        "--noise",
        type=_float_list,
        default=list(PAPER_NOISE_LEVELS),
        help="comma-separated relative noise levels",
    )
    table.add_argument(
        "--seed", type=_int_list, default=list(range(20)),
        help="comma-separated seeds, each an integer >= 0 (default 0..19)",
    )
    table.add_argument("--scheme", choices=_SCHEMES, default="both")

    return parser


def _config(args):
    # the solver flags' dest names are SolverConfig's field names
    return SolverConfig(**{f.name: getattr(args, f.name) for f in fields(SolverConfig)})


def _cmd_solve(runs, out):
    outcomes = {}
    for row, outcome in runs:
        outcomes[row.scheme] = outcome
        print(f"[{row.scheme}] noise={row.delta_rel:g} seed={row.seed} "
              f"delta_abs={outcome.delta_abs:.6e} threshold={outcome.threshold:.6e}")
        print("  n        a_n   m  m_raw      |gamma|            G")
        for rec in outcome.trace:
            print(f"  {rec.n:2d} {rec.a:10.3e} {rec.m:3d} {rec.m_raw:5d} "
                  f"{rec.gamma_norm:12.5e} {rec.G:12.5e}")
        print(f"  stop={outcome.stop_reason} n_delta={outcome.n_delta} "
              f"m_final={outcome.m_final} G_final={outcome.G_final:.6e} avg={row.avg:.6f}")

    if out:
        sols = {s: evaluate(o.solution, _EVAL_GRID) for s, o in outcomes.items()}
        lines = ["t," + ",".join(f"u_{s}" for s in sols) + ",u_exact"]
        for i, ti in enumerate(_EVAL_GRID):
            vals = ",".join(repr(float(u[i])) for u in sols.values())
            lines.append(f"{float(ti)!r},{vals},{float(ti)!r}")
        out.write("\n".join(lines) + "\n")
    failed = any(o.stop_reason not in _OK_STOPS for o in outcomes.values())
    return 3 if failed else 0


def _cmd_table(runs, out):
    rows = [row for row, _ in runs]
    if out:
        out.write(rows_to_csv(rows))
    print(format_summary(rows))
    if any(r.stop_reason not in _OK_STOPS for r in rows):
        return 3
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    solve = args.command == "solve"
    levels, seeds = ([args.noise], [args.seed]) if solve else (args.noise, args.seed)
    try:
        # _runs checks every input; --out is opened after that and before the first run
        runs = _runs(_config(args), levels, seeds, args.scheme, args.fixed_m)
        with open(args.out, "w", newline="") if args.out else nullcontext() as out:
            return (_cmd_solve if solve else _cmd_table)(runs, out)
    except LinAlgError as exc:  # a ValueError: catch it first
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a level cap whose sample grid or operators cannot be allocated
        print(f"out of memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2


def run():
    """Console-script entry point: exit with :func:`main`'s status.

    After ``main`` returns, ``gc.freeze()`` moves every tracked object to
    the permanent generation, so the interpreter's final full collections
    skip the objects of numpy, scipy's LAPACK extension and argparse,
    most of the time from ``main``'s return to the exit of a one-shot
    process. The standard streams are still flushed and atexit handlers
    still run; ``os._exit`` would skip both.
    """
    status = main()
    gc.freeze()
    raise SystemExit(status)


if __name__ == "__main__":
    run()
