import ast
import dataclasses
import math
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from fredreg import assembly, haar
from fredreg.assembly import (
    Kernel,
    OperatorCache,
    _moments,
    assemble_gram,
    error_budget,
    galerkin_matrix,
    sample_grid,
    simpson_rule,
)
from fredreg.haar import _analysis, exp_haar_matrix, exp_t_haar_matrix

from fredreg.experiment import exact_problem, trapezoid_norm

from _oracles import (
    adjoint_pair,
    chebyshev_interpolation,
    galerkin_gather,
    gauss_cell_nodes,
    haar_eval_piecewise,
    record_calls,
    synthesis_matrix,
)

C1 = 16.0 / 180.0


def midpoint_grid(n):
    return (np.arange(n) + 0.5) / n


def dense_gram_oracle(m, grid_n=1024):
    """Brute-force 2-d midpoint projection of the degenerate kernel.

    Builds g_m(x,z) = sum_l beta_l e^{-s_l x} e^{-s_l z} on a grid of
    grid_n**2 >= 1e6 points and projects onto the Haar tensor basis.
    """
    xs = midpoint_grid(grid_n)
    points, weights = simpson_rule(m)
    e = np.exp(-np.outer(points, xs))
    g = e.T @ (weights[:, None] * e)
    s = synthesis_matrix(m)
    idx = np.minimum((xs * 2 ** m).astype(int), 2 ** m - 1)
    p = s[:, idx]
    return p @ g @ p.T / grid_n ** 2


class TestKernel:
    def test_exponential_kernel_fields(self):
        k = exact_problem().kernel
        assert k.c1 == pytest.approx(16 / 180)
        assert k.sup_bound == 1.0
        assert k is exact_problem().kernel


class TestGramAssembly:
    def test_domain_equals_range_for_symmetric_kernel(self):
        # the range-side Gram sum_l beta_l <k(., s_l), Phi_i> <k(., s_l), Phi_j>,
        # its slices projected by per-cell Gauss quadrature of exp(-s t),
        # is the matrix the discrepancy solve uses in its place
        for m in (1, 2, 4):
            points, weights = simpson_rule(m)
            x, xw = gauss_cell_nodes(m)
            cells = np.exp(-x[None, :] * points[:, None]) * xw
            p = cells.reshape(len(points), 2 ** m, 8).sum(axis=2) @ synthesis_matrix(m).T
            b = p.T @ (weights[:, None] * p)
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


class TestAdjointRhs:
    def test_zero_data(self):
        samples = np.zeros(720 * 4 + 1)
        v = OperatorCache().rhs(samples, 2)
        assert np.max(np.abs(v)) == 0.0

    def test_constant_data_first_coefficient(self):
        # oracle: <K* 1, Phi_1> = int_0^1 int_0^1 e^{-st} ds dt
        oracle = quad(lambda t: -math.expm1(-t) / t if t > 0 else 1.0, 0, 1)[0]
        assert oracle == pytest.approx(0.7965995992970532, abs=1e-12)
        ops = OperatorCache()
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
        v = OperatorCache().rhs(samples, m)
        # exact adjoint coefficients by dense Gauss quadrature in s
        gx, gw = np.polynomial.legendre.leggauss(12)
        ncell = 256
        w = 1.0 / ncell
        s = (np.arange(ncell)[:, None] * w + (gx[None, :] + 1) * w / 2).ravel()
        sw = np.tile(gw * w / 2, ncell)
        exact = exp_haar_matrix(s, m)[0].T @ (sw * prob.exact_rhs(s))
        err = float(np.linalg.norm(v - exact))
        assert err <= trapezoid_norm(samples) / (2 ** (2 * m) * 180) + 1e-6

    def test_rejects_coarse_samples(self):
        with pytest.raises(ValueError):
            OperatorCache().rhs(np.ones(181), 1)


class TestSampleGrid:
    # exact equality fixes the cell count, the end points, every width (the
    # first is exactly 1/n) and that the level-6 grid refines every partition
    @pytest.mark.parametrize("level", [0, 1, 2, 3, np.int64(2), 4, 5, 6])
    def test_grid(self, level):
        n = 180 * 2 ** int(level)
        assert np.array_equal(sample_grid(level), np.arange(n + 1) / n)


def _full_fill_rows(m, chunk=11520):
    """``(rows, E0 rows, E1 rows)`` of full fills on ``sample_grid(m)[:-1]``.

    The fills are row-wise (the elementwise oracle in ``test_haar``), so
    a chunk of rows equals the same rows of the fill of every row.
    """
    c = sample_grid(m)[:-1]
    for r0 in range(0, len(c), chunk):
        rows = slice(r0, r0 + chunk)
        yield rows, exp_haar_matrix(c[rows], m)[0], exp_t_haar_matrix(c[rows], m)


class TestAdjointFill:
    """Each level's moment pair, own fill or block of a finer one, is one full fill at its rates."""

    @pytest.mark.parametrize(
        "order", [list(range(1, 9)), [8, 3]], ids=lambda order: "-".join(map(str, order))
    )
    def test_every_level_equals_a_full_fill(self, order):
        # no thread outlives a fill: the fill's helper thread is joined
        ops = OperatorCache()
        for i, m in enumerate(order):
            threads = threading.active_count()
            ops.rhs(np.zeros(len(sample_grid(m))), m)
            assert threading.active_count() == threads, (order, m)
            e0, e1 = adjoint_pair(ops, m)
            # one pair is held, as one array of its own, at the finest level
            # asked so far; no level is filled before it is asked for
            top = max(order[: i + 1])
            assert list(ops._store) == ["adjoint"] and ops._store["adjoint"][0] == top
            held = ops._store["adjoint"][1]
            assert held.base is None and held.flags.c_contiguous
            assert held.shape == (2, 180 * 2 ** top, 2 ** top)
            for e in (e0, e1):
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
            want[m] = exp_haar_matrix(c, m)[0].T @ m0 - exp_t_haar_matrix(c, m).T @ m1
        ops = OperatorCache()
        for m in levels:
            assert np.array_equal(ops.rhs(samples, m), want[m]), m

    def test_peak_memory_of_a_level_8_fill_is_the_output(self):
        ops = OperatorCache()
        samples = np.zeros(len(sample_grid(8)))
        tracemalloc.start()
        try:
            ops.rhs(samples, 8)
            e0, e1 = adjoint_pair(ops, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (e0.nbytes + e1.nbytes)

    def test_one_pair_is_held_and_coarser_levels_read_it_without_a_fill(self, monkeypatch):
        # levels 1..8 in order leave one pair, level 8's; levels 1..7 then
        # read its blocks, bit for bit the products of their own fills
        grid = sample_grid(8)
        rng = np.random.default_rng(5)
        samples = np.exp(-grid) * (1.0 + 0.05 * rng.standard_normal(len(grid)))
        ops = OperatorCache()
        own = {m: ops.rhs(samples, m) for m in range(1, 9)}
        assert list(ops._store) == ["adjoint"] and ops._store["adjoint"][0] == 8
        calls = record_calls(monkeypatch, assembly, "exp_haar_matrix")
        for m in range(1, 8):
            assert np.array_equal(ops.rhs(samples, m), own[m]), m
        assert calls == []

    def test_a_finer_fill_releases_the_held_pair_first(self):
        # the peak is level 8's pair and the fill's temporaries, not level
        # 7's pair held beside it (236 MB)
        samples = np.zeros(len(sample_grid(8)))
        ops = OperatorCache()
        tracemalloc.start()
        try:
            ops.rhs(samples, 7)
            ops.rhs(samples, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pair_bytes = 2 * 180 * 4 ** 8 * 8
        assert peak <= pair_bytes + 4 * 2 ** 20, peak

    def test_a_finer_fill_that_raises_leaves_no_pair_and_a_coarser_level_refills(
        self, monkeypatch
    ):
        samples = np.exp(-sample_grid(6))
        ops = OperatorCache()
        want = ops.rhs(samples, 5)
        fill, filled = assembly.exp_haar_matrix, []

        def fails_above_5(c, m):
            filled.append(m)
            if m > 5:
                raise MemoryError(f"level {m}'s pair does not fit")
            return fill(c, m)

        monkeypatch.setattr(assembly, "exp_haar_matrix", fails_above_5)
        with pytest.raises(MemoryError):
            ops.rhs(samples, 6)
        assert ops._store == {}
        assert np.array_equal(ops.rhs(samples, 5), want)
        assert filled == [6, 5] and ops._store["adjoint"][0] == 5

    def test_samples_that_do_not_refine_a_finer_level_raise_before_any_release_or_fill(
        self, monkeypatch
    ):
        samples = np.exp(-sample_grid(3))
        ops = OperatorCache()
        ops.rhs(samples, 3)
        before = adjoint_pair(ops, 3)
        calls = record_calls(monkeypatch, assembly, "exp_haar_matrix")
        with pytest.raises(ValueError, match="does not refine"):
            ops.rhs(samples, 4)
        assert calls == [] and ops._store["adjoint"][0] == 3
        after = adjoint_pair(ops, 3)
        assert all(b.base is a.base for a, b in zip(before, after))


class TestLowRankPremise:
    """The rows of both moment matrices are analytic in the rate ``c``.

    At r = 12 second-kind Chebyshev rates ``x`` on [0, 1], the barycentric
    interpolant ``L(c) E(x)`` reproduces the moment matrices on the left
    ends ``c`` of ``sample_grid(m)`` to roundoff, and with them the adjoint
    right-hand side; ``A_m`` has numerical rank 5. A spectral path of a
    few columns per level, in place of the dense ``180 * 4**m`` fill,
    rests on these.
    """

    @pytest.mark.parametrize("m", range(1, 9))
    def test_moment_rows_and_rhs_are_chebyshev_interpolants(self, m):
        # measured worst (m = 8): 7.8e-16 for E, 6.7e-16 for the wavelet
        # columns of Et, 7.2e-15 for v and 6.8e-8 of bound_adjoint. Column 0
        # of Et is up to 1.83e-13 of its row's largest entry off, at
        # c = 50/46080: the fill's own error just above its series branch
        # (TestMomentDecimalOracle), so it is held to that test's 2e-13
        f = exact_problem().exact_rhs(sample_grid(m))
        ops = OperatorCache()
        v = ops.rhs(f, m)
        e0, e1 = adjoint_pair(ops, m)
        c = sample_grid(m)[:-1]
        x, L = chebyshev_interpolation(c, 12)
        E, Et = exp_haar_matrix(x, m)
        scale0, scale1 = max(e0.max(), -e0.min()), max(e1.max(), -e1.min())
        for r0 in range(0, len(c), 11520):  # row blocks bound the temporaries
            rows = slice(r0, r0 + 11520)
            assert np.abs(e0[rows] - L[rows] @ E).max() <= 1e-14 * scale0
            t = L[rows] @ Et
            assert np.abs(e1[rows, 1:] - t[:, 1:]).max() <= 1e-14 * scale1
            row_max = np.abs(e1[rows]).max(axis=1)
            assert np.all(np.abs(e1[rows, 0] - t[:, 0]) <= 2e-13 * row_max)
        m0, m1 = _moments(f, m)
        gap = np.linalg.norm(E.T @ (L.T @ m0) - Et.T @ (L.T @ m1) - v)
        assert gap <= 1e-13 * np.linalg.norm(v)
        bound = error_budget(m).bound_adjoint
        assert gap / trapezoid_norm(f) <= 1e-3 * bound

    def test_gram_has_at_most_6_eigenvalues_above_1e_14_of_the_largest(self):
        # measured 2 at m = 1, 4 at m = 2 and 5 from m = 3 on
        for m in range(1, 9):
            lam = np.linalg.eigvalsh(assemble_gram(m))
            assert np.count_nonzero(lam > 1e-14 * lam[-1]) <= 6, m


class TestDataCoefficients:
    data = staticmethod(OperatorCache().data)

    def test_constant(self):
        samples = np.ones(8 * 16 + 1)
        g = self.data(samples, 3)
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_allclose(g, expected, atol=1e-14)

    def test_wavelet_samples(self):
        n = 2880
        grid = np.arange(n + 1) / n
        g = self.data(haar_eval_piecewise(2, grid), 2)
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
        b1 = error_budget(1)
        assert b1.bound_normal == pytest.approx(1 / 180, abs=1e-18)
        b2 = error_budget(2)
        assert b2.bound_adjoint == pytest.approx(1 / (16 * 180), abs=1e-18)
        assert b2.bound_adjoint == pytest.approx(3.472e-4, rel=1e-3)
        # mixed bound reduces to 17 / (2**(2m) 180) for this kernel
        assert b1.bound_mixed == pytest.approx(17 / (4 * 180), abs=1e-18)

    def test_normal_bound_shrinks_16x_per_level(self):
        for m in (1, 2, 5):
            assert error_budget(m).bound_normal / error_budget(m + 1).bound_normal \
                == pytest.approx(16.0, abs=0)

    def test_all_bounds_positive_decreasing(self):
        budgets = [error_budget(m) for m in range(1, 9)]
        for field in ("bound_normal", "bound_adjoint", "bound_mixed"):
            vals = [getattr(b, field) for b in budgets]
            assert all(v > 0 for v in vals)
            assert all(b < a for a, b in zip(vals, vals[1:]))


class TestMeasuredOperatorError:
    def test_normal_bound_holds_with_stable_slack(self):
        # ||A_m - A_{m+2}[:2**m, :2**m]||_2 sits 9.6-11.5x below c1/16**m for
        # m = 1..8 and falls 15.5-16.0x per level from m = 3 on; the m = 2
        # ratio (err_1 / err_2) is 14.1, before the asymptotic rate sets in
        grams = {m: assemble_gram(m) for m in range(1, 11)}
        err = {
            m: np.linalg.norm(grams[m] - grams[m + 2][: 2 ** m, : 2 ** m], 2)
            for m in range(1, 9)
        }
        for m in range(1, 9):
            assert error_budget(m).bound_normal >= 5.0 * err[m], m
        for m in range(3, 9):
            assert err[m - 1] / err[m] == pytest.approx(16.0, rel=0.1), m

    def test_adjoint_bound_holds_with_stable_slack_on_noisy_data(self):
        # worst ||v_m - v_{m+2}[:2**m]|| / ||f_delta|| over the paper's noise
        # levels and 10 seeds sits 3684-3899x below 1/(180 * 4**m) for
        # m = 1..5 and falls 3.83-4.00x per level
        from fredreg.experiment import (
            PAPER_NOISE_LEVELS, NoiseSpec, add_noise, exact_problem, trapezoid_norm,
        )

        problem = exact_problem()
        ops = OperatorCache()
        worst = {}
        for m in range(1, 6):
            exact = problem.exact_rhs(sample_grid(m + 2))
            worst[m] = 0.0
            for level in PAPER_NOISE_LEVELS:
                for seed in range(10):
                    noisy, _ = add_noise(exact, NoiseSpec(rel_level=level, seed=seed))
                    gap = np.linalg.norm(ops.rhs(noisy, m) - ops.rhs(noisy, m + 2)[: 2 ** m])
                    worst[m] = max(worst[m], gap / trapezoid_norm(noisy))
            assert error_budget(m).bound_adjoint >= 1000.0 * worst[m], m
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

    @pytest.mark.parametrize("m", range(1, 7))
    def test_equals_the_hand_written_cell_sum(self, m):
        # the projection of the slice moments keeps the sum order of the
        # per-cell Gauss sum it replaced, so the matrix keeps its bits
        half_x, half_w = (np.array(v) for v in haar._GAUSS_LEGENDRE_HALF)
        rule = np.concatenate((-half_x[::-1], half_x)), np.concatenate((half_w[::-1], half_w))
        s, sw = gauss_cell_nodes(m, rule)
        e = exp_haar_matrix(s, m)[0]
        k = _analysis((sw[:, None] * e).reshape(2 ** m, 8, -1).sum(axis=1), m)
        assert np.array_equal(galerkin_matrix(m), 0.5 * (k + k.T))

    def test_entry_against_quadrature_oracle(self):
        k2 = galerkin_matrix(2)
        # <Phi_2, K Phi_3> by adaptive quadrature over the support pieces
        def integrand(s):
            inner = quad(lambda t: math.exp(-s * t) * haar_eval_piecewise(3, t), 0, 0.5)[0]
            return inner * haar_eval_piecewise(2, s)

        want = quad(integrand, 0, 0.5)[0] + quad(integrand, 0.5, 1)[0]
        assert k2[1, 2] == pytest.approx(want, abs=1e-10)


class TestOperatorCache:
    @pytest.mark.parametrize(
        "kernel",
        [
            Kernel(c1=1.0, sup_bound=2.0),  # constants of another kernel
            dataclasses.replace(exact_problem().kernel, c1=1.0),
            # a Kernel holds only the constants, so a copy with equal ones may
            # stand for slices exp(-2st); the adjoint hard-codes exp(-st), so its
            # right-hand side would be about 20 % off a dense quadrature of that
            # kernel's true adjoint. Any copy is refused at construction
            dataclasses.replace(exact_problem().kernel),
        ],
        ids=["other_eval", "other_c1", "equal_copy"],
    )
    def test_rejects_other_kernels(self, kernel):
        with pytest.raises(ValueError, match="exponential kernel only"):
            OperatorCache(kernel)

    def test_default_kernel_is_the_problem_kernel(self):
        # perfbench passes problem.kernel; the default is that same object,
        # and either cache builds the same Gram matrix and right-hand side
        samples = np.exp(-sample_grid(3))
        plain, passed = OperatorCache(), OperatorCache(exact_problem().kernel)
        assert np.array_equal(plain.gram(3), passed.gram(3))
        assert np.array_equal(plain.rhs(samples, 3), passed.rhs(samples, 3))

    def test_cache_returns_identical_objects(self):
        ops = OperatorCache()
        assert ops.gram(3) is ops.gram(3)
        assert ops.gram(3, side="range") is ops.gram(3)  # symmetric kernel
        with pytest.raises(ValueError):
            ops.gram(3, side="data")

    @pytest.mark.parametrize(
        "product",
        [
            lambda ops: ops.gram(3),
            lambda ops: ops.galerkin(3),
            lambda ops: ops.factor(2, 0.5),
            lambda ops: ops.factor(2, 0.5, galerkin=True),
            lambda ops: ops.data(np.exp(-sample_grid(3)), 3),
        ],
        ids=["gram", "galerkin", "factor", "factor_galerkin", "data"],
    )
    def test_products_are_read_only(self, product):
        # a write into a cached product would change every later run on the cache
        got = product(OperatorCache())
        assert not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got *= 2.0

    def test_cached_rhs_matches_direct_assembly(self):
        # direct: closed-form moment matrices against per-subinterval
        # trapezoid moments M0_j = int_{D_j} f, M1_j = int_{D_j} (s - d_j) f
        ops = OperatorCache()
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
        v_direct = exp_haar_matrix(d, 1)[0].T @ m0 - exp_t_haar_matrix(d, 1).T @ m1
        v_cached = ops.rhs(samples, 1)
        np.testing.assert_allclose(v_cached, v_direct, rtol=1e-13, atol=1e-16)
        np.testing.assert_array_equal(ops.rhs(samples, 1), v_cached)

    def test_builds_call_the_module_globals(self, monkeypatch):
        # a tracer wraps these names of fredreg.assembly and finds every
        # fill, Gram, Galerkin and projection call only through them; each
        # adjoint fill is one exp_haar_matrix call whose result is the held
        # pair, and exp_t_haar_matrix stays a name a tracer can wrap
        calls = {}
        for name in ("exp_haar_matrix", "exp_t_haar_matrix", "assemble_gram",
                     "galerkin_matrix", "project"):
            calls[name] = record_calls(monkeypatch, assembly, name)
        ops = OperatorCache()
        samples = np.exp(-sample_grid(5))

        def seen():
            return {name: len(made) for name, made in calls.items() if made}

        for m, filled in ((3, 1), (5, 2)):  # one fill each; level 5's releases level 3's
            ops.rhs(samples, m)
            assert seen() == {"exp_haar_matrix": filled}
            assert calls["exp_haar_matrix"][-1][2] is ops._store["adjoint"][1]
        ops.gram(3)
        ops.gram(3)
        assert seen() == {"exp_haar_matrix": 3, "assemble_gram": 1}
        ops.galerkin(4)  # the projection of the slice moments: one project, one fill
        assert seen() == {
            "exp_haar_matrix": 4, "assemble_gram": 1, "galerkin_matrix": 1, "project": 1,
        }
        ops.data(samples, 5)
        assert seen() == {
            "exp_haar_matrix": 4, "assemble_gram": 1, "galerkin_matrix": 1, "project": 2,
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
