import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from fredreg import haar
from fredreg.haar import (
    exp_haar_matrix,
    exp_t_haar_matrix,
    haar_eval,
    project,
    split_index,
    _analysis,
    _FILL_ENTRIES,
    _SMALL_C_MOMENT,
    _SMALL_C_WIDTH,
    _gauss_cell_nodes,
    _synthesis,
    _tables,
    _trapezoid_blocks,
)
from fredreg.assembly import _moments, sample_grid, simpson_rule

from _oracles import coefficients, haar_eval_piecewise, join_index, synthesis_matrix


def quad_inner(f, j):
    """Adaptive-quadrature oracle for <f, Phi_j>, split at the support breakpoints."""
    if j == 1:
        return quad(f, 0, 1, limit=200)[0]
    l, p = split_index(j)
    a = 2.0 ** ((l - 1) / 2)
    w = 1.0 / 2 ** (l - 1)
    t0, t1, t2 = (p - 1) * w, (p - 1) * w + w / 2, p * w
    return a * (quad(f, t0, t1, limit=200)[0] - quad(f, t1, t2, limit=200)[0])


def _exp_haar_matrix_ref(c, m):
    """Elementwise formula of ``exp_haar_matrix``: the bit-identity oracle."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    n = 2 ** m
    out = np.empty((len(c), n))
    cs = np.where(c == 0.0, 1.0, c)
    out[:, 0] = np.where(
        c < _SMALL_C_WIDTH,
        1.0 - c / 2.0 + c ** 2 / 6.0 - c ** 3 / 24.0,
        -np.expm1(-cs) / cs,
    )
    if n == 1:
        return out
    amp, left, mid, right = _tables(m)
    A = amp[None, 1:]
    T1 = mid[None, 1:]
    H = (mid - left)[None, 1:]
    W = (right - left)[None, 1:]
    C = c[:, None]
    Cs = np.where(C == 0.0, 1.0, C)
    stable = (A / Cs) * np.exp(-C * T1) * 4.0 * np.sinh(C * H / 2.0) ** 2
    taylor = A * C * H ** 2 * (
        1.0
        - C * T1
        + C ** 2 * (T1 ** 2 / 2.0 + H ** 2 / 12.0)
        - C ** 3 * (T1 ** 3 / 6.0 + T1 * H ** 2 / 12.0)
    )
    out[:, 1:] = np.where(C * W < _SMALL_C_WIDTH, taylor, stable)
    return out


def _exp_t_haar_matrix_ref(c, m):
    """Elementwise formula of ``exp_t_haar_matrix``: the bit-identity oracle."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    n = 2 ** m
    out = np.empty((len(c), n))
    cs = np.where(c == 0.0, 1.0, c)
    direct = np.exp(-cs) * (np.expm1(cs) - cs) / cs ** 2
    taylor1 = (
        0.5 - c / 3.0 + c ** 2 / 8.0 - c ** 3 / 30.0 + c ** 4 / 144.0 - c ** 5 / 840.0
    )
    out[:, 0] = np.where(c < _SMALL_C_MOMENT, taylor1, direct)
    if n == 1:
        return out
    amp, left, mid, right = _tables(m)
    A = amp[None, 1:]
    T0 = left[None, 1:]
    T1 = mid[None, 1:]
    T2 = right[None, 1:]
    H = T1 - T0
    W = T2 - T0
    C = c[:, None]
    Cs = np.where(C == 0.0, 1.0, C)
    bracket = (C * T1 + 1.0) * 4.0 * np.sinh(C * H / 2.0) ** 2 - 2.0 * C * H * np.sinh(C * H)
    stable = (A / Cs ** 2) * np.exp(-C * T1) * bracket

    def moment(a, b):
        return (
            (b ** 2 - a ** 2) / 2.0
            - C * (b ** 3 - a ** 3) / 3.0
            + C ** 2 * (b ** 4 - a ** 4) / 8.0
            - C ** 3 * (b ** 5 - a ** 5) / 30.0
            + C ** 4 * (b ** 6 - a ** 6) / 144.0
        )

    taylor = A * (moment(T0, T1) - moment(T1, T2))
    out[:, 1:] = np.where(C * W < _SMALL_C_WIDTH, taylor, stable)
    return out


def _trapezoid_blocks_ref(samples, n_cells):
    """Index-gather form of ``_trapezoid_blocks``: the bit-identity oracle."""
    samples = np.asarray(samples, dtype=float)
    nsub = len(samples) - 1
    k = nsub // n_cells
    idx = np.arange(n_cells)[:, None] * k + np.arange(k + 1)[None, :]
    w = np.ones(k + 1)
    w[0] = w[-1] = 0.5
    return samples[idx], 1.0 / nsub, w


def _moments_ref(samples, n_cells):
    """``assembly._moments`` on the gathered blocks."""
    blocks, h, w0 = _trapezoid_blocks_ref(samples, n_cells)
    k = len(w0) - 1
    w1 = np.arange(k + 1, dtype=float)
    w1[-1] = k / 2.0
    return h * (blocks @ w0), h * h * (blocks @ w1)


def _cell_integrals_ref(samples, m):
    """The trapezoid cell integrals of ``project``'s sampled branch, on the gathered blocks."""
    blocks, h, w = _trapezoid_blocks_ref(samples, 2 ** m)
    return h * (blocks @ w)


def _dense_product(matrix, x):
    """``matrix @ x`` in extended precision (x86-64's 80-bit long double), rounded once.

    Computed in double, the dense product strays by up to about 3 ulp of
    its largest entry at m = 11 (the pyramid by about 1).
    """
    return (matrix.astype(np.longdouble) @ np.asarray(x, dtype=np.longdouble)).astype(float)


def _project_ref(samples, m):
    """The sampled branch of ``project`` on the gathered blocks and the dense matrix."""
    return _dense_product(synthesis_matrix(m), _cell_integrals_ref(samples, m))


def assert_within_ulps(got, want, ulps=4):
    """``|got - want| <= ulps * eps * max|want|`` entrywise."""
    bound = ulps * np.finfo(float).eps * np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= bound, np.max(np.abs(got - want)) / bound


def _hand_rates():
    """Unsorted rates: 0, a value under the Taylor threshold of every level
    (and one just over it), ordinary values and c = 50; the count is not a
    multiple of the fill block."""
    rng = np.random.default_rng(21)
    widths = 1.0 / 2.0 ** np.arange(10)  # support widths of levels 1..10
    c = np.concatenate([
        [0.0, 50.0, 1.0, 0.5],
        0.5 * _SMALL_C_WIDTH / widths,
        1.5 * _SMALL_C_WIDTH / widths,
        rng.uniform(0.0, 2.0, 300),
        10.0 ** rng.uniform(-12.0, 1.0, 300),
    ])
    rng.shuffle(c)
    assert all(len(c) % max(1, _FILL_ENTRIES // (2 ** m - 1)) != 0 for m in range(1, 10))
    return c


class TestIndexing:
    def test_known_pairs(self):
        assert split_index(2) == (1, 1)
        assert split_index(3) == (2, 1)
        assert split_index(4) == (2, 2)
        assert split_index(5) == (3, 1)
        assert split_index(8) == (3, 4)

    def test_roundtrip(self):
        for j in range(2, 513):
            l, p = split_index(j)
            assert join_index(l, p) == j
            assert 1 <= p <= 2 ** (l - 1)

    def test_rejects(self):
        with pytest.raises(ValueError):
            split_index(1)
        with pytest.raises(ValueError):
            join_index(1, 2)

    @pytest.mark.parametrize("j", [5.5, 2.9, "3", True])
    def test_rejects_an_index_that_is_not_an_integer(self, j):
        # int(j) used to truncate: split_index(5.5) returned (3, 1)
        with pytest.raises(ValueError, match="wavelet index"):
            split_index(j)

    def test_accepts_numpy_integers(self):
        assert split_index(np.int64(5)) == (3, 1)

    @pytest.mark.parametrize("m", range(13))
    def test_tables_match_the_per_index_definition(self, m):
        # the module docstring's support and amplitude of every Phi_j, j >= 2,
        # index by index; the constant Phi_1 has amplitude 1 on [0, 1]
        want = [[1.0], [0.0], [0.5], [1.0]]
        for j in range(2, 2 ** m + 1):
            l, p = split_index(j)
            w = 1.0 / 2 ** (l - 1)
            for col, value in zip(want, (2.0 ** ((l - 1) / 2), (p - 1) * w, (p - 0.5) * w, p * w)):
                col.append(value)
        for got, expected in zip(_tables(m), want):
            np.testing.assert_array_equal(got, expected, strict=True)


class TestEval:
    def test_constant(self):
        assert haar_eval(1, 0.3) == 1.0

    def test_first_wavelet(self):
        assert haar_eval(2, 0.25) == 1.0
        assert haar_eval(2, 0.75) == -1.0

    def test_outside_support(self):
        assert haar_eval(3, 0.6) == 0.0

    def test_amplitude(self):
        assert haar_eval(3, 0.1) == pytest.approx(math.sqrt(2))
        assert haar_eval(5, 0.05) == pytest.approx(2.0)

    def test_left_limit_at_one(self):
        assert haar_eval(1, 1.0) == 1.0
        assert haar_eval(2, 1.0) == -1.0   # last negative piece
        assert haar_eval(3, 1.0) == 0.0    # support ends at 1/2
        assert haar_eval(4, 1.0) == pytest.approx(-math.sqrt(2))

    def test_rejects(self):
        with pytest.raises(ValueError):
            haar_eval(0, 0.5)
        with pytest.raises(ValueError):
            haar_eval(2, -0.01)
        with pytest.raises(ValueError):
            haar_eval(2, 1.01)
        for j in (1, 2):
            with pytest.raises(ValueError):
                haar_eval(j, math.nan)

    @pytest.mark.parametrize("j", [2.9, "3", True])
    def test_rejects_an_index_that_is_not_an_integer(self, j):
        # int(j) used to truncate: haar_eval(2.9, 0.1) returned Phi_2's value
        with pytest.raises(ValueError, match="basis index"):
            haar_eval(j, 0.1)

    def test_accepts_numpy_integers(self):
        assert haar_eval(np.int64(3), 0.1) == haar_eval(3, 0.1)

    def test_zero_dim_array_gives_float(self):
        for j, want in ((1, 1.0), (2, 1.0), (3, math.sqrt(2))):
            got = haar_eval(j, np.array(0.125))
            assert type(got) is float and got == pytest.approx(want)
        assert isinstance(haar_eval(2, np.array([0.25])), np.ndarray)


def moment(matrix, c, j):
    """Entry ``(c, Phi_j)`` of a moment matrix at the coarsest level holding ``Phi_j``."""
    return float(matrix(np.array([c]), (j - 1).bit_length())[0, j - 1])


class TestExponentialInnerProducts:
    def test_zero_rate(self):
        assert moment(exp_haar_matrix, 0.0, 1) == 1.0
        for j in (2, 3, 7, 40):
            assert moment(exp_haar_matrix, 0.0, j) == 0.0

    def test_unit_rate_constant(self):
        assert moment(exp_haar_matrix, 1.0, 1) == pytest.approx(1 - math.exp(-1), abs=1e-15)

    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            c = float(rng.uniform(0, 4))
            j = int(rng.integers(1, 256))
            got = moment(exp_haar_matrix, c, j)
            want = quad_inner(lambda t: math.exp(-c * t), j)
            assert got == pytest.approx(want, abs=1e-13)

    def test_t_weighted_zero_rate(self):
        assert moment(exp_t_haar_matrix, 0.0, 1) == 0.5
        assert moment(exp_t_haar_matrix, 0.0, 2) == -0.25

    def test_t_weighted_against_quadrature_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            c = float(rng.uniform(0, 4))
            j = int(rng.integers(1, 256))
            got = moment(exp_t_haar_matrix, c, j)
            want = quad_inner(lambda t: t * math.exp(-c * t), j)
            assert got == pytest.approx(want, abs=1e-13)

    def test_branch_agreement_near_threshold(self):
        # the Taylor branch and the closed form must agree where they meet
        for j in (1, 2, 9, 33):
            width = 1.0 if j == 1 else 1.0 / 2 ** (split_index(j)[0] - 1)
            for c in (0.9e-6 / width, 1.1e-6 / width):
                want = quad_inner(lambda t: math.exp(-c * t), j)
                assert moment(exp_haar_matrix, c, j) == pytest.approx(want, abs=1e-16)
        for c in (0.999e-3, 1.001e-3):
            want = quad_inner(lambda t: t * math.exp(-c * t), 1)
            assert moment(exp_t_haar_matrix, c, 1) == pytest.approx(want, abs=1e-12)

    def test_matrix_matches_scalar(self):
        # column j of the level-m matrix equals column j at level (j-1).bit_length()
        c = np.array([0.0, 0.3, 1.7])
        m = 4
        for matrix in (exp_haar_matrix, exp_t_haar_matrix):
            full = matrix(c, m)
            for j in range(1, 2 ** m + 1):
                coarse = matrix(c, (j - 1).bit_length())
                np.testing.assert_allclose(full[:, j - 1], coarse[:, j - 1], rtol=0, atol=1e-16)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            exp_haar_matrix(np.array([-1.0]), 0)

    @pytest.mark.parametrize("c", [710.0, 1500.0, 3000.0])
    def test_rejects_rates_whose_moments_overflow(self, c):
        # above log(float max) expm1 and sinh**2 overflow to inf and give NaN
        for matrix in (exp_haar_matrix, exp_t_haar_matrix):
            with pytest.raises(ValueError, match="709.78"):
                matrix(np.array([0.5, c]), 2)

    def test_moments_finite_up_to_the_rate_bound(self):
        c = np.linspace(0.0, math.log(np.finfo(float).max), 201)
        for m in (0, 1, 5, 10):
            for matrix in (exp_haar_matrix, exp_t_haar_matrix):
                assert np.all(np.isfinite(matrix(c, m)))


def _fill_inputs(m):
    """The four rate sets of the fill oracles at level ``m``."""
    return {
        "partition": sample_grid(m)[:-1],
        "simpson": simpson_rule(m).points,
        "gauss": _gauss_cell_nodes(m, 4)[0],
        "hand": _hand_rates(),
    }


def _pair(c, m, **kwargs):
    """Both moment matrices from one pass: ``exp_haar_matrix`` with ``t_out``."""
    t_out = kwargs.pop("t_out", None)
    if t_out is None:
        t_out = np.empty((len(c), 2 ** m))
    return exp_haar_matrix(c, m, t_out=t_out, **kwargs), t_out


class TestMomentMatrixFill:
    """The whole-row blocked fill against the elementwise formulas."""

    @pytest.mark.parametrize("m", range(1, 10))
    def test_bit_identical_to_elementwise_formula(self, m):
        # each matrix alone and the one-pass pair; chunks of about 3000
        # rows are split in two halves (one helper thread) from m = 4 on
        for name, c in _fill_inputs(m).items():
            # the formulas are row-wise, so compare in row chunks to bound
            # the oracle's temporaries (ten full-size arrays)
            for rows in np.array_split(np.arange(len(c)), max(1, len(c) // 3000)):
                want0 = _exp_haar_matrix_ref(c[rows], m)
                want1 = _exp_t_haar_matrix_ref(c[rows], m)
                assert np.array_equal(exp_haar_matrix(c[rows], m), want0), name
                assert np.array_equal(exp_t_haar_matrix(c[rows], m), want1), name
                got0, got1 = _pair(c[rows], m)
                assert np.array_equal(got0, want0), ("pair", name)
                assert np.array_equal(got1, want1), ("pair", name)

    @pytest.mark.parametrize("m", range(1, 10))
    def test_partial_fill_into_prefilled_array_equals_full_fill(self, m):
        # ``start = l`` keeps the first 2**(l-1) columns of ``out`` (and of
        # ``t_out``) and writes the rest; about 2000 evenly spaced rows per rate set
        for name, c in _fill_inputs(m).items():
            c = c[:: max(1, len(c) // 2000)]
            fills = ((exp_haar_matrix, (exp_haar_matrix(c, m),)), (_pair, _pair(c, m)))
            for fill, full in fills:
                for start in range(1, m + 1):
                    held = 2 ** (start - 1)
                    outs = [f.copy() for f in full]
                    for out in outs:
                        out[:, held:] = np.nan
                    kwargs = {"t_out": outs[1]} if len(outs) == 2 else {}
                    got = fill(c, m, out=outs[0], start=start, **kwargs)
                    assert (got[0] if fill is _pair else got) is outs[0]
                    for out, want in zip(outs, full):
                        assert np.array_equal(out, want), (fill.__name__, name, start)
                        out[:, :held] = -1.0
                    fill(c, m, out=outs[0], start=start, **kwargs)
                    assert all((out[:, :held] == -1.0).all() for out in outs)

    def test_fill_into_strided_rows_equals_full_fill(self):
        c = _hand_rates()
        full = exp_haar_matrix(c, 6)
        out = np.full((2 * len(c), 2 ** 6), np.nan)
        exp_haar_matrix(c, 6, out=out[1::2])
        assert np.array_equal(out[1::2], full)
        assert np.isnan(out[::2]).all()
        # the pair, over enough rows that the helper thread fills half of them
        c = np.tile(c, 8)
        full = _pair(c, 6)
        outs = [np.full((2 * len(c), 2 ** 6), np.nan) for _ in full]
        _pair(c, 6, out=outs[0][1::2], t_out=outs[1][1::2])
        for out, want in zip(outs, full):
            assert np.array_equal(out[1::2], want)
            assert np.isnan(out[::2]).all()

    def test_no_rates_give_no_rows(self):
        for fill in (exp_haar_matrix, exp_t_haar_matrix):
            assert fill([], 3).shape == (0, 8)
        assert [a.shape for a in _pair([], 3)] == [(0, 8), (0, 8)]

    def test_rejects_bad_output_or_start(self):
        c = np.linspace(0.0, 2.0, 5)
        with pytest.raises(ValueError, match="needs out"):
            exp_haar_matrix(c, 3, start=2)
        with pytest.raises(ValueError, match="shape"):
            exp_haar_matrix(c, 3, out=np.empty((5, 4)))
        with pytest.raises(ValueError, match="float64"):
            exp_haar_matrix(c, 3, out=np.empty((5, 8), dtype=np.float32))
        for start in (-1, 4, True, 1.0):
            with pytest.raises(ValueError, match="start"):
                exp_haar_matrix(c, 3, out=np.empty((5, 8)), start=start)
        for fill in (exp_haar_matrix, exp_t_haar_matrix):
            for m in (-1, 2.5, True):
                with pytest.raises(ValueError, match="level"):
                    fill(c, m)
        for t_out in (np.empty((5, 4)), np.empty((5, 8), dtype=np.float32)):
            with pytest.raises(ValueError, match="shape"):
                exp_haar_matrix(c, 3, t_out=t_out)

    @pytest.mark.parametrize("failing_half", ["helper", "caller"])
    def test_an_exception_in_either_half_reaches_the_caller(self, monkeypatch, failing_half):
        # the helper is joined before the error propagates: no thread is left
        real = haar._in_halves

        def in_halves(work, n, step):
            def failing(first, stop):
                on_helper = threading.current_thread() is not threading.main_thread()
                if on_helper == (failing_half == "helper"):
                    raise RuntimeError(f"{failing_half} half failed")
                work(first, stop)

            real(failing, n, step)

        monkeypatch.setattr(haar, "_in_halves", in_halves)
        before = threading.active_count()
        c = sample_grid(6)[:-1]
        with pytest.raises(RuntimeError, match=f"{failing_half} half failed"):
            _pair(c, 6)
        assert threading.active_count() == before

    def test_concurrent_fills_under_frequent_switching(self):
        # four callers at once, each with its helper, switching every 1 us:
        # every result is bit-identical to the elementwise formulas
        c = np.tile(_hand_rates(), 4)
        want = (_exp_haar_matrix_ref(c, 6), _exp_t_haar_matrix_ref(c, 6))
        results = [None] * 4

        def call(i):
            results[i] = _pair(c, 6)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(i,)) for i in range(4)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for got in results:
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_one_block_runs_on_the_calling_thread(self, monkeypatch):
        started = []
        monkeypatch.setattr(threading, "Thread", lambda **kw: started.append(kw))
        got = _pair(_hand_rates(), 3)  # 630 rows of 7 wavelet columns: one block
        assert started == []
        assert np.array_equal(got[0], _exp_haar_matrix_ref(_hand_rates(), 3))

    def test_peak_memory_is_the_output(self):
        c = sample_grid(8)[:-1]
        _tables(8)
        for fill in (exp_haar_matrix, exp_t_haar_matrix, _pair):
            tracemalloc.start()
            try:
                outs = fill(c, 8)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            outs = outs if isinstance(outs, tuple) else (outs,)
            assert peak <= 1.25 * sum(out.nbytes for out in outs), fill.__name__
            del outs


def test_cli_import_loads_no_numpy_polynomial():
    # leggauss is imported inside _gauss_cell_nodes, reached only from the
    # Galerkin matrix and callable projection
    code = "import sys, fredreg.cli; print([m for m in sys.modules if m.startswith('numpy.polynomial')])"
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


class TestTrapezoidBlocks:
    """The reshape-built cell blocks against the index gather they replace."""

    @staticmethod
    def _inputs(m):
        rng = np.random.default_rng(m)
        n = len(sample_grid(m))
        return {
            "float": rng.standard_normal(n),
            # every other sample of a twice-finer grid: a strided view
            "strided": rng.standard_normal(2 * n - 1)[::2],
            "int": rng.integers(-1000, 1000, n),
        }

    @pytest.mark.parametrize("m", range(1, 9))
    def test_blocks_equal_index_gather(self, m):
        cell_counts = [180 * 2 ** l for l in range(m + 1)]
        cell_counts += [2 ** l for l in range(m + 1)]
        for name, samples in self._inputs(m).items():
            for n_cells in cell_counts:
                blocks, h, w = _trapezoid_blocks(samples, n_cells)
                ref, h_ref, w_ref = _trapezoid_blocks_ref(samples, n_cells)
                assert blocks.dtype == ref.dtype == np.float64, name
                assert blocks.flags.c_contiguous, (name, n_cells)
                assert np.array_equal(blocks, ref), (name, n_cells)
                assert h == h_ref and np.array_equal(w, w_ref), (name, n_cells)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_moments_and_projection_equal_gather_formulas(self, m):
        # bit for bit: the moments, and the cell integrals the projection
        # transforms (the transform itself: test_projection_matches_gather_formula)
        for name, samples in self._inputs(m).items():
            for l in range(m + 1):
                got = _moments(samples, l)  # over the 180 * 2**l cells of sample_grid(l)
                want = _moments_ref(samples, 180 * 2 ** l)
                assert all(map(np.array_equal, got, want)), (name, l)
                blocks, h, w = _trapezoid_blocks(samples, 2 ** l)
                assert np.array_equal(h * (blocks @ w), _cell_integrals_ref(samples, l)), (name, l)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_projection_matches_gather_formula(self, m):
        # the pyramid sums in another order than the dense matrix product
        for name, samples in self._inputs(m).items():
            for l in range(m + 1):
                assert_within_ulps(project(samples, l).values, _project_ref(samples, l))

    def test_rejects_coarse_grid_and_short_input(self):
        with pytest.raises(ValueError, match="does not refine"):
            _trapezoid_blocks(np.zeros(13), 8)
        with pytest.raises(ValueError, match="at least 2 values"):
            _trapezoid_blocks(np.zeros(1), 1)


class TestPyramidTransform:
    """The O(2**m) transform pair against the dense matrix and formulas it replaced."""

    @pytest.mark.parametrize("m", range(12))
    def test_pair_matches_synthesis_matrix(self, m):
        rng = np.random.default_rng(100 + m)
        s = synthesis_matrix(m)
        x = rng.standard_normal(2 ** m)
        xs = rng.standard_normal((2 ** m, 3))
        assert_within_ulps(_analysis(x, m), _dense_product(s, x))
        assert_within_ulps(_analysis(xs, m), _dense_product(s, xs))
        assert_within_ulps(_synthesis(x, m), _dense_product(s.T, x))

    def test_projection_prefix_is_the_coarser_projection(self):
        # run_adaptive projects the data once, at m_cap, and reads prefixes
        grid = sample_grid(8)
        noise = 0.01 * np.random.default_rng(4).uniform(-1.0, 1.0, len(grid))
        samples = np.exp(-grid) * (1.0 + grid) + noise
        fine = project(samples, 8).values
        for m in range(9):
            assert_within_ulps(fine[: 2 ** m], project(samples, m).values)

    def test_haar_eval_equals_the_piecewise_formula(self):
        rng = np.random.default_rng(31)
        x = np.concatenate([rng.uniform(0, 1, 200), np.arange(1025) / 1024, [1.0]])
        scalars = (float(x[0]), 0.5, 1.0, np.float64(0.25), np.array(0.75))
        for j in [*range(1, 601), 2 ** 12, 2 ** 13]:
            got, want = haar_eval(j, x), haar_eval_piecewise(j, x)
            assert got.dtype == want.dtype and np.array_equal(got, want), j
            for xi in scalars:
                got, want = haar_eval(j, xi), haar_eval_piecewise(j, xi)
                assert type(got) is type(want) is float and got == want, (j, xi)

    def test_cell_values_memory_is_linear(self):
        # the dense synthesis matrix took 32 MB at m = 11 and lru_cache kept it
        coeffs = coefficients(np.random.default_rng(3).standard_normal(2 ** 11))
        _tables.cache_clear()  # count the amplitude table too
        tracemalloc.start()
        try:
            cells = coeffs.cell_values()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * cells.nbytes
        assert retained <= 8 * cells.nbytes


class TestProjection:
    def test_constant_function(self):
        coeffs = project(lambda t: np.ones_like(t), 3)
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_allclose(coeffs.values, expected, atol=1e-15)

    def test_basis_function_callable(self):
        coeffs = project(lambda t: haar_eval(5, t), 3)
        expected = np.zeros(8)
        expected[4] = 1.0
        np.testing.assert_allclose(coeffs.values, expected, atol=1e-12)

    def test_identity_function_m1(self):
        # hand oracle: <t, 1> = 1/2 and <t, Phi_2> = int_0^.5 t - int_.5^1 t = -1/4
        want = np.array([quad_inner(lambda t: t, 1), quad_inner(lambda t: t, 2)])
        np.testing.assert_allclose(want, [0.5, -0.25], atol=1e-14)
        np.testing.assert_allclose(project(lambda t: t, 1).values, want, atol=1e-15)

    def test_sampled_basis_function(self):
        n = 1440
        grid = np.arange(n + 1) / n
        samples = haar_eval(2, grid)
        coeffs = project(samples, 2)
        assert coeffs.values[1] == pytest.approx(1.0, abs=2e-3)
        assert abs(coeffs.values[0]) < 2e-3

    def test_sampled_matches_callable_on_smooth_function(self):
        n = 2880
        grid = np.arange(n + 1) / n
        f = lambda t: np.exp(-t) * np.sin(3 * t)
        got = project(np.asarray(f(grid)), 4).values
        want = project(f, 4).values
        np.testing.assert_allclose(got, want, atol=1e-7)

    def test_rejects_coarse_grid(self):
        samples = np.linspace(0, 1, 5)  # 4 subintervals < 2**3
        with pytest.raises(ValueError):
            project(samples, 3)
        with pytest.raises(ValueError):
            project(np.linspace(0, 1, 13), 3)  # 12 not divisible by 8


class TestSpanInvariants:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_gram_identity(self, m):
        s = synthesis_matrix(m)
        gram = (s @ s.T) / 2 ** m
        assert np.max(np.abs(gram - np.eye(2 ** m))) < 1e-12

    def test_parseval_on_aligned_step_functions(self):
        rng = np.random.default_rng(11)
        m = 5
        cell_vals = rng.uniform(-2, 2, 2 ** m)
        n = 2 ** m * 16
        grid = np.arange(n + 1) / n
        idx = np.minimum((grid * 2 ** m).astype(int), 2 ** m - 1)
        coeffs = project(
            lambda t: cell_vals[np.minimum((np.asarray(t) * 2 ** m).astype(int), 2 ** m - 1)],
            m,
        )
        norm_sq = np.sum(cell_vals ** 2) / 2 ** m
        assert np.sum(coeffs.values ** 2) == pytest.approx(norm_sq, abs=1e-12)

    def test_projection_error_decreases_to_zero(self):
        # ||P_m f - f|| for f(t) = t, computed exactly: ||f||^2 - sum coeffs^2
        f_norm_sq = 1.0 / 3.0
        errors = []
        for m in range(1, 9):
            coeffs = project(lambda t: t, m)
            err_sq = f_norm_sq - float(np.sum(coeffs.values ** 2))
            errors.append(math.sqrt(max(err_sq, 0.0)))
        assert all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))
        # error halves per level for this f; level 8 sits at 2**-8 / (2 sqrt(3))
        ratios = [b / a for a, b in zip(errors, errors[1:])]
        assert max(ratios) < 0.51
        assert errors[-1] < 2.0 ** -8

    def test_evaluate_left_limit(self):
        coeffs = coefficients([1.0, 0.5, 0.25, 0.0])
        cells = coeffs.cell_values()
        assert coeffs.evaluate(1.0) == pytest.approx(cells[-1])

    def test_evaluate_rejects_points_outside_unit_interval(self):
        coeffs = coefficients([1.0, 0.5, 0.25, 0.0])
        for x in (-0.01, 1.01, math.nan, np.array([0.5, math.nan])):
            with pytest.raises(ValueError):
                coeffs.evaluate(x)

    def test_evaluate_zero_dim_array_gives_float(self):
        coeffs = coefficients([1.0, 0.5, 0.25, 0.0])
        cells = coeffs.cell_values()
        for x in (np.array(0.1), np.float64(0.1), 0.1):
            got = coeffs.evaluate(x)
            assert type(got) is float and got == cells[0]
        assert isinstance(coeffs.evaluate(np.array([0.1])), np.ndarray)
