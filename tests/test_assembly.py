import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from fredreg.assembly import (
    Kernel,
    OperatorCache,
    assemble_gram,
    error_budget,
    exponential_kernel,
    galerkin_matrix,
)
from fredreg.haar import exp_haar_matrix, exp_t_haar_matrix, haar_eval, synthesis_matrix
from fredreg.quadrature import simpson_rule, taylor_partition

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
        assert k.symmetric
        assert k.c1 == pytest.approx(16 / 180)
        assert k.sup_bound == 1.0
        assert k is exponential_kernel()

    def test_symmetry_holds_on_grid(self):
        k = exponential_kernel()
        s = np.linspace(0, 1, 17)
        vals = k.eval(s[:, None], s[None, :])
        assert np.max(np.abs(vals - vals.T)) < 1e-14
        assert np.max(np.abs(vals)) <= k.sup_bound + 1e-15

    def test_rejects_bad_constants(self):
        with pytest.raises(ValueError):
            Kernel(eval=lambda s, t: s * t, symmetric=True, c1=0.0, sup_bound=1.0)


class TestGramAssembly:
    def test_domain_equals_range_for_symmetric_kernel(self):
        k = exponential_kernel()
        for m in (1, 2, 4):
            a = assemble_gram(k, m, side="domain")
            b = assemble_gram(k, m, side="range")
            assert np.max(np.abs(a - b)) < 1e-13

    def test_zero_kernel_gives_zero_matrix(self):
        k = Kernel(
            eval=lambda s, t: np.zeros(np.broadcast(s, t).shape),
            symmetric=True,
            c1=1.0,
            sup_bound=1.0,
        )
        a = assemble_gram(k, 3)
        assert np.max(np.abs(a)) == 0.0

    def test_first_entry_against_dense_oracle(self):
        a = assemble_gram(exponential_kernel(), 1)
        # closed form: sum_l beta_l (int e^{-s_l t} dt)^2 at s = (0, 1/2, 1)
        e0 = np.array([1.0, 2 * (1 - math.exp(-0.5)), 1 - math.exp(-1)])
        want = float(np.dot([1 / 6, 2 / 3, 1 / 6], e0 ** 2))
        assert want == pytest.approx(0.6461110581387559, abs=1e-15)
        assert a[0, 0] == pytest.approx(want, abs=1e-14)
        # dense 2048**2-point midpoint oracle reproduces it at its own accuracy
        assert dense_gram_oracle(1, grid_n=2048)[0, 0] == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_entries_against_dense_oracle(self, m):
        a = assemble_gram(exponential_kernel(), m)
        oracle = dense_gram_oracle(m)
        assert np.max(np.abs(a - oracle)) < 1e-6

    @pytest.mark.parametrize("m", range(1, 7))
    def test_symmetric_psd(self, m):
        a = assemble_gram(exponential_kernel(), m)
        assert np.max(np.abs(a - a.T)) < 1e-13
        assert np.linalg.eigvalsh(a).min() >= -1e-10

    def test_generic_quadrature_path_matches_closed_form(self):
        closed = exponential_kernel()
        generic = Kernel(
            eval=closed.eval, symmetric=True, c1=closed.c1, sup_bound=closed.sup_bound
        )
        for m in (1, 3):
            a = assemble_gram(closed, m)
            b = assemble_gram(generic, m)
            assert np.max(np.abs(a - b)) < 1e-10

    def test_asymmetric_kernel_sides_differ(self):
        k = Kernel(
            eval=lambda s, t: np.exp(-2.0 * np.asarray(s) * np.asarray(t))
            * (1.0 + np.asarray(s)),
            symmetric=False,
            c1=1.0,
            sup_bound=2.0,
        )
        a = assemble_gram(k, 2, side="domain")
        b = assemble_gram(k, 2, side="range")
        assert np.max(np.abs(a - b)) > 1e-3
        for mat in (a, b):
            assert np.linalg.eigvalsh(mat).min() >= -1e-10

    def test_slice_projector_trusted_for_both_sides(self):
        # non-symmetric kernel e^{-2st}(1+s) with closed-form slice
        # projections for both axes; must agree with the quadrature fallback
        from fredreg.haar import exp_t_haar_matrix

        def evaluate(s, t):
            s = np.asarray(s, dtype=float)
            return np.exp(-2.0 * s * np.asarray(t)) * (1.0 + s)

        def projector(c, m, axis):
            c = np.atleast_1d(np.asarray(c, dtype=float))
            if axis == 1:  # t -> (1 + c) e^{-2ct}
                return (1.0 + c)[:, None] * exp_haar_matrix(2.0 * c, m)
            # axis = 0: x -> e^{-2cx} + x e^{-2cx}
            return exp_haar_matrix(2.0 * c, m) + exp_t_haar_matrix(2.0 * c, m)

        closed = Kernel(eval=evaluate, symmetric=False, c1=1.0, sup_bound=2.0,
                        slice_projector=projector)
        generic = Kernel(eval=evaluate, symmetric=False, c1=1.0, sup_bound=2.0)
        for side in ("domain", "range"):
            a = assemble_gram(closed, 2, side=side)
            b = assemble_gram(generic, 2, side=side)
            assert np.max(np.abs(a - b)) < 1e-10

    def test_rejects_level_zero_and_nonfinite(self):
        with pytest.raises(ValueError):
            assemble_gram(exponential_kernel(), 0)
        bad = Kernel(
            eval=lambda s, t: np.full(np.broadcast(s, t).shape, np.nan),
            symmetric=True,
            c1=1.0,
            sup_bound=1.0,
        )
        with pytest.raises(ValueError):
            assemble_gram(bad, 2)


class TestAdjointRhs:
    def test_zero_data(self):
        part = taylor_partition(2)
        samples = np.zeros(part.n_subintervals * 4 + 1)
        v = OperatorCache(exponential_kernel()).rhs(samples, 2)
        assert np.max(np.abs(v)) == 0.0

    def test_constant_data_first_coefficient(self):
        # oracle: <K* 1, Phi_1> = int_0^1 int_0^1 e^{-st} ds dt
        oracle = quad(lambda t: -math.expm1(-t) / t if t > 0 else 1.0, 0, 1)[0]
        assert oracle == pytest.approx(0.7965995992970532, abs=1e-12)
        ops = OperatorCache(exponential_kernel())
        for m in (1, 3):
            samples = np.ones(ops.partition(m).n_subintervals * 4 + 1)
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

    def test_rejects_generic_kernel_and_coarse_samples(self):
        generic = Kernel(
            eval=lambda s, t: np.asarray(s) + np.asarray(t),
            symmetric=True,
            c1=1.0,
            sup_bound=2.0,
        )
        with pytest.raises(ValueError):
            OperatorCache(generic).rhs(np.ones(361), 1)
        with pytest.raises(ValueError):
            OperatorCache(exponential_kernel()).rhs(np.ones(181), 1)

    def test_rejects_copy_with_other_exponential_slices(self):
        # slices exp(-2st) with their closed-form projector: the adjoint
        # hard-codes exp(-st), so this kernel's right-hand side would be
        # about 20 % off a dense quadrature of its true adjoint
        doubled = dataclasses.replace(
            exponential_kernel(),
            eval=lambda s, t: np.exp(-2.0 * np.asarray(s) * np.asarray(t)),
            slice_projector=lambda c, m, axis: exp_haar_matrix(2.0 * np.asarray(c), m),
        )
        with pytest.raises(ValueError, match="exponential_kernel"):
            OperatorCache(doubled).rhs(np.ones(361), 1)


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


class TestGalerkinMatrix:
    def test_first_entry_is_double_integral(self):
        k4 = galerkin_matrix(exponential_kernel(), 4)
        assert k4[0, 0] == pytest.approx(0.7965995992970532, abs=1e-12)

    def test_symmetric(self):
        k4 = galerkin_matrix(exponential_kernel(), 4)
        assert np.max(np.abs(k4 - k4.T)) < 1e-15

    def test_entry_against_quadrature_oracle(self):
        k2 = galerkin_matrix(exponential_kernel(), 2)
        # <Phi_2, K Phi_3> by adaptive quadrature over the support pieces
        def integrand(s):
            inner = quad(lambda t: math.exp(-s * t) * haar_eval(3, t), 0, 0.5)[0]
            return inner * haar_eval(2, s)

        want = quad(integrand, 0, 0.5)[0] + quad(integrand, 0.5, 1)[0]
        assert k2[1, 2] == pytest.approx(want, abs=1e-10)


class TestOperatorCache:
    def test_cache_returns_identical_objects(self):
        ops = OperatorCache(exponential_kernel())
        assert ops.gram(3) is ops.gram(3)
        assert ops.gram(3, side="range") is ops.gram(3)  # symmetric kernel
        assert not ops.gram(3).flags.writeable
        assert ops.partition(2) is ops.partition(2)

    def test_cached_rhs_matches_direct_assembly(self):
        # direct: closed-form moment matrices against per-subinterval
        # trapezoid moments M0_j = int_{D_j} f, M1_j = int_{D_j} (s - d_j) f
        ops = OperatorCache(exponential_kernel())
        n = 360 * 8
        grid = np.arange(n + 1) / n
        samples = np.exp(-grid)
        d = taylor_partition(1).left_endpoints
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
