import ast
import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from fredreg import assembly
from fredreg.assembly import (
    Kernel,
    OperatorCache,
    _moments,
    assemble_gram,
    error_budget,
    exponential_kernel,
    galerkin_matrix,
    sample_grid,
    simpson_rule,
)
from fredreg.haar import (
    _gauss_cell_nodes,
    exp_haar_matrix,
    exp_t_haar_matrix,
    haar_eval,
)

from _oracles import galerkin_gather, synthesis_matrix

C1 = 16.0 / 180.0


def midpoint_grid(n):
    return (np.arange(n) + 0.5) / n


def dense_gram_oracle(m, grid_n=1024):
    """Brute-force 2-d midpoint projection of the degenerate kernel.

    Builds g_m(x,z) = sum_l beta_l e^{-s_l x} e^{-s_l z} on a grid of
    grid_n**2 >= 1e6 points and projects onto the Haar tensor basis.
    """
    xs = midpoint_grid(grid_n)
    rule = simpson_rule(m)
    e = np.exp(-np.outer(rule.points, xs))
    g = e.T @ (rule.weights[:, None] * e)
    s = synthesis_matrix(m)
    idx = np.minimum((xs * 2 ** m).astype(int), 2 ** m - 1)
    p = s[:, idx]
    return p @ g @ p.T / grid_n ** 2


class TestKernel:
    def test_exponential_kernel_fields(self):
        k = exponential_kernel()
        assert k.c1 == pytest.approx(16 / 180)
        assert k.sup_bound == 1.0
        assert k is exponential_kernel()

    def test_symmetry_holds_on_grid(self):
        k = exponential_kernel()
        s = np.linspace(0, 1, 17)
        vals = np.exp(-s[:, None] * s[None, :])
        assert np.max(np.abs(vals - vals.T)) < 1e-14
        assert np.max(np.abs(vals)) <= k.sup_bound + 1e-15

    def test_rejects_bad_constants(self):
        with pytest.raises(ValueError):
            Kernel(c1=0.0, sup_bound=1.0)


class TestGramAssembly:
    def test_domain_equals_range_for_symmetric_kernel(self):
        # the range-side Gram sum_l beta_l <k(., s_l), Phi_i> <k(., s_l), Phi_j>,
        # its slices projected by per-cell Gauss quadrature of exp(-s t),
        # is the matrix the discrepancy solve uses in its place
        for m in (1, 2, 4):
            rule = simpson_rule(m)
            x, xw = _gauss_cell_nodes(m, 8)
            cells = np.exp(-x[None, :] * rule.points[:, None]) * xw
            p = cells.reshape(len(rule.points), 2 ** m, 8).sum(axis=2) @ synthesis_matrix(m).T
            b = p.T @ (rule.weights[:, None] * p)
            assert np.max(np.abs(assemble_gram(m) - b)) < 1e-13

    def test_first_entry_against_dense_oracle(self):
        a = assemble_gram(1)
        # closed form: sum_l beta_l (int e^{-s_l t} dt)^2 at s = (0, 1/2, 1)
        e0 = np.array([1.0, 2 * (1 - math.exp(-0.5)), 1 - math.exp(-1)])
        want = float(np.dot([1 / 6, 2 / 3, 1 / 6], e0 ** 2))
        assert want == pytest.approx(0.6461110581387559, abs=1e-15)
        assert a[0, 0] == pytest.approx(want, abs=1e-14)
        # dense 2048**2-point midpoint oracle reproduces it at its own accuracy
        assert dense_gram_oracle(1, grid_n=2048)[0, 0] == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_entries_against_dense_oracle(self, m):
        a = assemble_gram(m)
        oracle = dense_gram_oracle(m)
        assert np.max(np.abs(a - oracle)) < 1e-6

    @pytest.mark.parametrize("m", range(1, 7))
    def test_symmetric_psd(self, m):
        a = assemble_gram(m)
        assert np.max(np.abs(a - a.T)) < 1e-13
        assert np.linalg.eigvalsh(a).min() >= -1e-10

    def test_rejects_level_zero(self):
        with pytest.raises(ValueError):
            assemble_gram(0)
        with pytest.raises(ValueError):
            galerkin_matrix(0)


class TestAdjointRhs:
    def test_zero_data(self):
        samples = np.zeros(720 * 4 + 1)
        v = OperatorCache(exponential_kernel()).rhs(samples, 2)
        assert np.max(np.abs(v)) == 0.0

    def test_constant_data_first_coefficient(self):
        # oracle: <K* 1, Phi_1> = int_0^1 int_0^1 e^{-st} ds dt
        oracle = quad(lambda t: -math.expm1(-t) / t if t > 0 else 1.0, 0, 1)[0]
        assert oracle == pytest.approx(0.7965995992970532, abs=1e-12)
        ops = OperatorCache(exponential_kernel())
        for m in (1, 3):
            samples = np.ones(180 * 2 ** m * 4 + 1)
            v = ops.rhs(samples, m)
            assert v[0] == pytest.approx(oracle, abs=1.0 / (2 ** (2 * m) * 180))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_adjoint_error_bound_on_benchmark_data(self, m):
        # ||v - exact <K* f, Phi_i>|| <= ||f|| / (2**(2m) 180) + sampling error
        from fredreg.experiment import exact_problem, sample_grid, trapezoid_norm

        prob = exact_problem()
        grid = sample_grid(6)
        samples = prob.exact_rhs(grid)
        v = OperatorCache(prob.kernel).rhs(samples, m)
        # exact adjoint coefficients by dense Gauss quadrature in s
        gx, gw = np.polynomial.legendre.leggauss(12)
        ncell = 256
        w = 1.0 / ncell
        s = (np.arange(ncell)[:, None] * w + (gx[None, :] + 1) * w / 2).ravel()
        sw = np.tile(gw * w / 2, ncell)
        exact = exp_haar_matrix(s, m).T @ (sw * prob.exact_rhs(s))
        err = float(np.linalg.norm(v - exact))
        assert err <= trapezoid_norm(samples) / (2 ** (2 * m) * 180) + 1e-6

    def test_rejects_coarse_samples(self):
        with pytest.raises(ValueError):
            OperatorCache(exponential_kernel()).rhs(np.ones(181), 1)

    def test_rejects_copy_with_other_exponential_slices(self):
        # a Kernel holds only the constants, so a copy with equal ones may
        # stand for slices exp(-2st); the adjoint hard-codes exp(-st), so its
        # right-hand side would be about 20 % off a dense quadrature of that
        # kernel's true adjoint. Any copy is refused at construction
        copy = dataclasses.replace(exponential_kernel())
        with pytest.raises(ValueError, match="exponential_kernel"):
            OperatorCache(copy)


class TestSampleGrid:
    @pytest.mark.parametrize("level", [0.5, -1, True, "2"])
    def test_rejects_a_level_that_is_not_an_integer_at_least_zero(self, level):
        with pytest.raises(ValueError, match="integer >= 0"):
            sample_grid(level)

    @pytest.mark.parametrize("level", [0, 1, 2, 3, np.int64(2)])
    def test_grid(self, level):
        n = 180 * 2 ** int(level)
        assert np.array_equal(sample_grid(level), np.arange(n + 1) / n)


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper; returns the list of ``(args, kwargs)`` per call."""
    calls = []
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls


def _full_fill_rows(m, chunk=11520):
    """``(rows, E0 rows, E1 rows)`` of full fills on ``sample_grid(m)[:-1]``.

    The fills are row-wise (the elementwise oracle in ``test_haar``), so
    a chunk of rows equals the same rows of the fill of every row.
    """
    c = sample_grid(m)[:-1]
    for r0 in range(0, len(c), chunk):
        rows = slice(r0, r0 + chunk)
        yield rows, exp_haar_matrix(c[rows], m), exp_t_haar_matrix(c[rows], m)


def _adjoint_pair(ops, m):
    """The moment pair ``OperatorCache.rhs`` holds for level ``m``, filled on a miss."""
    ops.rhs(np.zeros(len(sample_grid(m))), m)
    return ops._store["adjoint", m]


class TestAdjointReuse:
    """Level ``m`` copies the block ``[::2**(m-m0), :2**m0]`` from the finest held ``m0``."""

    @pytest.mark.parametrize(
        "order", [[1, 3, 5, 7, 8], list(range(1, 9)), [2, 8], [8, 3]],
        ids=lambda order: "-".join(map(str, order)),
    )
    def test_every_level_equals_a_full_fill(self, order):
        ops = OperatorCache(exponential_kernel())
        for i, m in enumerate(order):
            e0, e1 = _adjoint_pair(ops, m)
            # no level is filled before it is asked for, and each is its own array
            assert sorted(ops._store) == sorted(("adjoint", level) for level in order[: i + 1])
            for e in (e0, e1):
                assert e.base is None and e.flags.c_contiguous
                assert e.shape == (180 * 2 ** m, 2 ** m)
            for rows, f0, f1 in _full_fill_rows(m):
                assert np.array_equal(e0[rows], f0), (order, m)
                assert np.array_equal(e1[rows], f1), (order, m)

    def test_rhs_equals_full_fill_rhs_on_noisy_data(self):
        grid = sample_grid(8)
        rng = np.random.default_rng(3)
        samples = np.exp(-grid) * (1.0 + 0.05 * rng.standard_normal(len(grid)))
        levels = (1, 3, 5, 7, 8)
        want = {}
        for m in levels:
            c = sample_grid(m)[:-1]
            m0, m1 = _moments(samples, m)
            want[m] = exp_haar_matrix(c, m).T @ m0 - exp_t_haar_matrix(c, m).T @ m1
        ops = OperatorCache(exponential_kernel())
        for m in levels:
            assert np.array_equal(ops.rhs(samples, m), want[m]), m

    def test_peak_memory_of_a_reusing_fill_is_the_output(self):
        ops = OperatorCache(exponential_kernel())
        _adjoint_pair(ops, 7)
        samples = np.zeros(len(sample_grid(8)))
        tracemalloc.start()
        try:
            ops.rhs(samples, 8)
            e0, e1 = ops._store["adjoint", 8]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (e0.nbytes + e1.nbytes)


class TestDataCoefficients:
    data = staticmethod(OperatorCache(exponential_kernel()).data)

    def test_constant(self):
        samples = np.ones(8 * 16 + 1)
        g = self.data(samples, 3)
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_allclose(g, expected, atol=1e-14)

    def test_wavelet_samples(self):
        n = 2880
        grid = np.arange(n + 1) / n
        g = self.data(haar_eval(2, grid), 2)
        assert g[1] == pytest.approx(1.0, abs=1e-3)

    def test_noise_projection_is_contraction(self):
        from fredreg.experiment import trapezoid_norm

        rng = np.random.default_rng(5)
        n = 2880
        grid = np.arange(n + 1) / n
        f = np.exp(-grid)
        e = rng.uniform(-1, 1, n + 1)
        e *= 1e-2 / trapezoid_norm(e)
        for m in (2, 4):
            g0 = self.data(f, m)
            gd = self.data(f + e, m)
            assert np.linalg.norm(gd - g0) <= 1e-2 + 1e-6


class TestErrorBudget:
    def test_benchmark_values(self):
        k = exponential_kernel()
        b1 = error_budget(k, 1)
        assert b1.bound_normal == pytest.approx(1 / 180, abs=1e-18)
        b2 = error_budget(k, 2)
        assert b2.bound_adjoint == pytest.approx(1 / (16 * 180), abs=1e-18)
        assert b2.bound_adjoint == pytest.approx(3.472e-4, rel=1e-3)
        # mixed bound reduces to 17 / (2**(2m) 180) for this kernel
        assert b1.bound_mixed == pytest.approx(17 / (4 * 180), abs=1e-18)

    def test_normal_bound_shrinks_16x_per_level(self):
        k = exponential_kernel()
        for m in (1, 2, 5):
            assert error_budget(k, m).bound_normal / error_budget(k, m + 1).bound_normal \
                == pytest.approx(16.0, abs=0)

    def test_all_bounds_positive_decreasing(self):
        k = exponential_kernel()
        budgets = [error_budget(k, m) for m in range(1, 9)]
        for field in ("bound_normal", "bound_adjoint", "bound_mixed"):
            vals = [getattr(b, field) for b in budgets]
            assert all(v > 0 for v in vals)
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_rejects_level_zero(self):
        with pytest.raises(ValueError):
            error_budget(exponential_kernel(), 0)


class TestMeasuredOperatorError:
    def test_normal_operator_error_within_budget(self):
        # spectral norm of the dense 512-point discretization difference
        n = 512
        xs = midpoint_grid(n)
        xz = xs[:, None] + xs[None, :]
        g_exact = -np.expm1(-xz) / xz
        k = exponential_kernel()
        for m in range(1, 5):
            rule = simpson_rule(m)
            e = np.exp(-np.outer(rule.points, xs))
            g_m = e.T @ (rule.weights[:, None] * e)
            opnorm = np.linalg.norm(g_exact - g_m, 2) / n
            assert opnorm <= error_budget(k, m).bound_normal

    def test_normal_bound_holds_with_stable_slack(self):
        # ||A_m - A_{m+2}[:2**m, :2**m]||_2 sits 9.6-11.5x below c1/16**m for
        # m = 1..8 and falls 15.5-16.0x per level from m = 3 on; the m = 2
        # ratio (err_1 / err_2) is 14.1, before the asymptotic rate sets in
        k = exponential_kernel()
        grams = {m: assemble_gram(m) for m in range(1, 11)}
        err = {
            m: np.linalg.norm(grams[m] - grams[m + 2][: 2 ** m, : 2 ** m], 2)
            for m in range(1, 9)
        }
        for m in range(1, 9):
            assert error_budget(k, m).bound_normal >= 5.0 * err[m], m
        for m in range(3, 9):
            assert err[m - 1] / err[m] == pytest.approx(16.0, rel=0.1), m

    def test_adjoint_bound_holds_with_stable_slack_on_noisy_data(self):
        # worst ||v_m - v_{m+2}[:2**m]|| / ||f_delta|| over the paper's noise
        # levels and 10 seeds sits 3684-3899x below 1/(180 * 4**m) for
        # m = 1..5 and falls 3.83-4.00x per level
        from fredreg.experiment import (
            PAPER_NOISE_LEVELS, NoiseSpec, add_noise, exact_problem, trapezoid_norm,
        )

        k, problem = exponential_kernel(), exact_problem()
        ops = OperatorCache(k)
        worst = {}
        for m in range(1, 6):
            exact = problem.exact_rhs(sample_grid(m + 2))
            worst[m] = 0.0
            for level in PAPER_NOISE_LEVELS:
                for seed in range(10):
                    noisy, _ = add_noise(exact, NoiseSpec(rel_level=level, seed=seed))
                    gap = np.linalg.norm(ops.rhs(noisy, m) - ops.rhs(noisy, m + 2)[: 2 ** m])
                    worst[m] = max(worst[m], gap / trapezoid_norm(noisy))
            assert error_budget(k, m).bound_adjoint >= 1000.0 * worst[m], m
        for m in range(2, 6):
            assert worst[m - 1] / worst[m] == pytest.approx(4.0, rel=0.1), m


class TestGalerkinMatrix:
    def test_first_entry_is_double_integral(self):
        k4 = galerkin_matrix(4)
        assert k4[0, 0] == pytest.approx(0.7965995992970532, abs=1e-12)

    def test_symmetric(self):
        for m in range(1, 9):
            k = galerkin_matrix(m)
            assert np.array_equal(k, k.T)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_pyramid_matches_dense_gather(self, m):
        # the cell sums taken to the basis by the pyramid transform, against
        # the gathered columns of the dense synthesis matrix they replaced
        k = galerkin_matrix(m)
        want = galerkin_gather(m)
        assert np.max(np.abs(k - want)) <= 1e-14 * np.max(np.abs(want))

    def test_entry_against_quadrature_oracle(self):
        k2 = galerkin_matrix(2)
        # <Phi_2, K Phi_3> by adaptive quadrature over the support pieces
        def integrand(s):
            inner = quad(lambda t: math.exp(-s * t) * haar_eval(3, t), 0, 0.5)[0]
            return inner * haar_eval(2, s)

        want = quad(integrand, 0, 0.5)[0] + quad(integrand, 0.5, 1)[0]
        assert k2[1, 2] == pytest.approx(want, abs=1e-10)


class TestOperatorCache:
    @pytest.mark.parametrize(
        "kernel",
        [
            Kernel(c1=1.0, sup_bound=2.0),  # constants of another kernel
            dataclasses.replace(exponential_kernel(), c1=1.0),
        ],
        ids=["other_eval", "other_c1"],
    )
    def test_rejects_other_kernels(self, kernel):
        with pytest.raises(ValueError, match="exponential_kernel"):
            OperatorCache(kernel)

    def test_cache_returns_identical_objects(self):
        ops = OperatorCache(exponential_kernel())
        assert ops.gram(3) is ops.gram(3)
        assert ops.gram(3, side="range") is ops.gram(3)  # symmetric kernel
        with pytest.raises(ValueError):
            ops.gram(3, side="data")
        assert not ops.gram(3).flags.writeable

    def test_cached_rhs_matches_direct_assembly(self):
        # direct: closed-form moment matrices against per-subinterval
        # trapezoid moments M0_j = int_{D_j} f, M1_j = int_{D_j} (s - d_j) f
        ops = OperatorCache(exponential_kernel())
        n = 360 * 8
        grid = np.arange(n + 1) / n
        samples = np.exp(-grid)
        d = sample_grid(1)[:-1]
        k = n // len(d)

        def trapezoid(y, x):
            return float(np.sum((y[1:] + y[:-1]) / 2.0 * np.diff(x)))

        pieces = [slice(j * k, (j + 1) * k + 1) for j in range(len(d))]
        m0 = np.array([trapezoid(samples[p], grid[p]) for p in pieces])
        m1 = np.array(
            [trapezoid((grid[p] - dj) * samples[p], grid[p]) for p, dj in zip(pieces, d)]
        )
        v_direct = exp_haar_matrix(d, 1).T @ m0 - exp_t_haar_matrix(d, 1).T @ m1
        v_cached = ops.rhs(samples, 1)
        np.testing.assert_allclose(v_cached, v_direct, rtol=1e-13, atol=1e-16)
        np.testing.assert_array_equal(ops.rhs(samples, 1), v_cached)

    def test_builds_call_the_module_globals(self, monkeypatch):
        # a tracer wraps these names of fredreg.assembly and finds every
        # fill, Gram, Galerkin and projection call only through them; each
        # adjoint fill writes both moment matrices in one exp_haar_matrix
        # call (t_out), and exp_t_haar_matrix stays a name a tracer can wrap
        calls = {}
        for name in ("exp_haar_matrix", "exp_t_haar_matrix", "assemble_gram",
                     "galerkin_matrix", "project"):
            calls[name] = count_calls(monkeypatch, assembly, name)
        ops = OperatorCache(exponential_kernel())
        samples = np.exp(-sample_grid(5))

        def seen():
            return {name: len(made) for name, made in calls.items() if made}

        ops.rhs(samples, 3)
        assert seen() == {"exp_haar_matrix": 1}
        ops.rhs(samples, 5)  # levels 4 and 5 of level 3's rows, then 3 full fills
        assert seen() == {"exp_haar_matrix": 5}
        pair = ops._store["adjoint", 5]
        assert all(kwargs["t_out"] is not None for _, kwargs in calls["exp_haar_matrix"])
        assert all(kwargs["t_out"].base is pair[1] for _, kwargs in calls["exp_haar_matrix"][1:])
        ops.gram(3)
        ops.gram(3)
        assert seen() == {"exp_haar_matrix": 6, "assemble_gram": 1}
        ops.galerkin(4)
        assert seen() == {"exp_haar_matrix": 7, "assemble_gram": 1, "galerkin_matrix": 1}
        ops.data(samples, 5)
        assert seen() == {
            "exp_haar_matrix": 7, "assemble_gram": 1, "galerkin_matrix": 1, "project": 1,
        }


def test_assembly_imports_nothing_from_iteration():
    # the import graph is a line: haar -> assembly -> iteration -> experiment -> cli
    source = Path(__file__).resolve().parents[1] / "src" / "fredreg" / "assembly.py"
    imported = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert ".haar" in imported
    assert not {name for name in imported if name.endswith("iteration")}
