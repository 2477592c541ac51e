"""The ``sweep`` and ``deep`` workloads: solves in this process, one warm cache.

One caller in a closed loop: each request (noise injection, solve,
error evaluation) starts when the previous one has returned, as in a
researcher's script. Set-up builds the problem and the
``OperatorCache``, fills every level the level schedule can visit, and
runs one warm-up request per (noise level, scheme).
"""

import gc
import resource
from dataclasses import dataclass, replace
from time import perf_counter

import fredreg
from fredreg import NoiseSpec, OperatorCache, SolverConfig, exact_problem, rank_schedule, sample_grid

from common import Outcome, Tally, closed_loop, latency_metrics, load_reference, warmup_requests
from tracing import Tracer

PUBLIC_API = {name: getattr(fredreg, name) for name in ("add_noise", "avg_error", "run_adaptive", "run_fixed")}


@dataclass
class Context:
    spec: object
    config: SolverConfig
    problem: object
    ops: object
    f_exact: object
    api: dict


def schedule_levels(config, c1):
    """Every level the adaptive schedule visits before ``max_iter``.

    The level depends on the shift ``a_n = alpha0 q**n`` only, never on
    the data, so this is the set any request can reach.
    """
    levels, m, a = set(), 1, config.alpha0
    for _ in range(config.max_iter):
        a *= config.q
        m = max(rank_schedule(a, c1, config.eta, config.m_cap), m)
        levels.add(m)
    return sorted(levels)


def setup(spec, cache_class=OperatorCache, api=PUBLIC_API):
    config = SolverConfig(m_cap=spec.m_cap)
    problem = exact_problem()
    ops = cache_class(problem.kernel)
    f_exact = problem.exact_rhs(sample_grid(config.m_cap))
    if "adaptive" in spec.schemes:
        for m in schedule_levels(config, problem.kernel.c1):
            ops.gram(m, side="domain")
            ops.gram(m, side="range")
            ops.rhs(f_exact, m)
    if "fixed" in spec.schemes:
        ops.galerkin(spec.fixed_m)
    ctx = Context(spec, config, problem, ops, f_exact, api)
    for req in warmup_requests(spec):
        run_request(ctx, req)
    return ctx


def run_request(ctx, req):
    api = ctx.api
    noisy, delta = api["add_noise"](ctx.f_exact, NoiseSpec(rel_level=req.level, seed=req.noise_seed))
    if req.scheme == "adaptive":
        outcome = api["run_adaptive"](ctx.ops, noisy, delta, ctx.config)
    else:
        outcome = api["run_fixed"](ctx.ops, noisy, delta, ctx.config, ctx.spec.fixed_m)
    avg = api["avg_error"](outcome.solution, ctx.problem.exact_solution)
    return Outcome(
        n_iters=outcome.n_delta,
        m_final=outcome.m_final,
        stop_reason=outcome.stop_reason,
        avg=avg,
        levels=tuple(r.m for r in outcome.trace),
    )


def timed_setup(spec, **kwargs):
    gc.collect()
    start = perf_counter()
    ctx = setup(spec, **kwargs)
    return ctx, perf_counter() - start


def run_e2e(spec, seed, seconds):
    setup_runs = []
    for _ in range(spec.setup_runs):
        ctx = None  # release the previous cache before building the next
        ctx, took = timed_setup(spec)
        setup_runs.append(took)
    gc.collect()
    tally = Tally(spec, load_reference(spec.name, seed))
    phase = closed_loop(spec, seed, lambda req: run_request(ctx, req), tally, seconds=seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics, details = latency_metrics(tally, phase, setup_runs, peak_mb)
    return tally, metrics, details


def run_traced(spec, seed, seconds, out_path):
    """Traced set-up, then the same requests untraced and traced.

    The untraced requests use a plain ``OperatorCache`` that shares the
    levels the traced set-up filled, so both sides run on a warm cache.
    """
    count = max(1, round(seconds * spec.trace_rate))
    tally = Tally(spec, load_reference(spec.name, seed))
    tracer = Tracer()
    with tracer.installed():
        api = dict(PUBLIC_API, **tracer.entry_points("fredreg"))
        ctx, traced_setup = timed_setup(spec, cache_class=tracer.cache_class(OperatorCache), api=api)
    plain_ops = OperatorCache.__new__(OperatorCache)
    plain_ops.__dict__.update(vars(ctx.ops))
    plain = replace(ctx, ops=plain_ops, api=PUBLIC_API)
    untraced, traced = tracer.compare(
        spec, seed, tally, count,
        lambda req: run_request(plain, req), lambda req: run_request(ctx, req))
    layers, setup_fill_s, details = tracer.finish(out_path, count, untraced, traced)
    layers["assembly.rhs.fill_setup_share"] = setup_fill_s / traced_setup
    layers["setup.traced_s"] = traced_setup
    return tally, layers, details
