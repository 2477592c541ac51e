import numpy as np
import pytest

from fredreg.assembly import simpson_rule


def test_simpson_m1_points_and_weights():
    points, weights = simpson_rule(1)
    np.testing.assert_allclose(points, [0.0, 0.5, 1.0])
    np.testing.assert_allclose(weights, [1 / 6, 2 / 3, 1 / 6])


def test_simpson_weight_pattern():
    points, weights = simpson_rule(3)
    n = 2 ** 3
    assert weights[0] == weights[-1] == (1 / 3) / n
    # 1-based interior indices: even -> 4/3, odd -> 2/3 (scaled by 1/2^m)
    for j in range(2, n + 1):
        expected = (4 / 3) / n if j % 2 == 0 else (2 / 3) / n
        assert weights[j - 1] == pytest.approx(expected, abs=0)


@pytest.mark.parametrize("m", range(1, 11))
def test_simpson_weights_sum_to_one(m):
    points, weights = simpson_rule(m)
    assert abs(weights.sum() - 1.0) < 1e-14
    assert np.all(np.diff(points) > 0)
    assert points[0] == 0.0 and points[-1] == 1.0
    assert len(points) == 2 ** m + 1


def test_simpson_exact_on_squares():
    points, weights = simpson_rule(2)
    assert weights @ points ** 2 == pytest.approx(1 / 3, abs=1e-16)


@pytest.mark.parametrize("m", range(1, 7))
def test_simpson_exact_on_cubics(m):
    rng = np.random.default_rng(42 + m)
    points, weights = simpson_rule(m)
    for _ in range(5):
        coeff = rng.uniform(-2, 2, size=4)
        p = np.polynomial.Polynomial(coeff)
        exact = p.integ()(1.0) - p.integ()(0.0)
        assert abs(weights @ p(points) - exact) < 1e-13


def test_simpson_kernel_product_error_bound():
    # |int k(s,x)k(s,z) ds - sum beta_j k(s_j,x)k(s_j,z)| <= c1 / 2**(4m)
    c1 = 16.0 / 180.0
    grid = np.linspace(0.0, 1.0, 9)
    for m in range(1, 5):
        points, weights = simpson_rule(m)
        worst = 0.0
        for x in grid:
            for z in grid:
                exact = 1.0 if x + z == 0 else -np.expm1(-(x + z)) / (x + z)
                approx = weights @ np.exp(-points * (x + z))
                worst = max(worst, abs(approx - exact))
        assert worst <= c1 / 2 ** (4 * m)


def test_simpson_observed_order_at_least_3_8():
    def err(m):
        points, weights = simpson_rule(m)
        x, z = 0.35, 0.8
        exact = -np.expm1(-(x + z)) / (x + z)
        return abs(weights @ np.exp(-points * (x + z)) - exact)

    errors = [err(m) for m in range(1, 6)]
    orders = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert min(orders) >= 3.8
