import math
import re
from decimal import Decimal, localcontext
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from fredreg import haar
from fredreg import OperatorCache, SolverConfig, exact_problem, run_adaptive, run_fixed
from fredreg.haar import (
    evaluate,
    exp_haar_matrix,
    exp_t_haar_matrix,
    project,
    _analysis,
    _FILL_ENTRIES,
    _SMALL_C_MOMENT,
    _ZERO_RATE,
    _synthesis,
    _tables,
    _trapezoid_blocks,
)
from fredreg.assembly import _moments, assemble_gram, sample_grid, simpson_rule

from _oracles import (
    EXTENDED,
    decimal_moments,
    extended_moments,
    gauss_cell_nodes,
    haar_eval_piecewise,
    join_index,
    record_calls,
    run_python,
    split_index,
    supports,
    synthesis_matrix,
    trapezoid_gather,
    trapezoid_moments,
)


def _ref_rates(c, m):
    """Rates below the floor as 0 and the zero rates as 1, and the level's column tables."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    c = np.where(c < _ZERO_RATE, 0.0, c)
    (amp, mid), left = _tables(m), supports(m)[0]
    return c, np.where(c == 0.0, 1.0, c), amp[None, 1:], mid[None, 1:], (mid - left)[None, 1:]


def _exp_haar_matrix_ref(c, m):
    """Elementwise formula of ``E``, ``[0]`` of ``exp_haar_matrix``: the bit-identity oracle."""
    c, cs, A, T1, H = _ref_rates(c, m)
    out = np.empty((len(c), 2 ** m))
    out[:, 0] = np.where(c == 0.0, 1.0, -np.expm1(-cs) / cs)
    C = cs[:, None]
    stable = (A / C) * np.exp(-C * T1) * 4.0 * np.sinh(C * H / 2.0) ** 2
    out[:, 1:] = np.where(c[:, None] == 0.0, 0.0, stable)
    return out


def _exp_t_haar_matrix_ref(c, m):
    """Elementwise formula of ``exp_t_haar_matrix``: the bit-identity oracle."""
    c, cs, A, T1, H = _ref_rates(c, m)
    out = np.empty((len(c), 2 ** m))
    direct = np.exp(-cs) * (np.expm1(cs) - cs) / cs ** 2
    series = (
        0.5 - c / 3.0 + c ** 2 / 8.0 - c ** 3 / 30.0 + c ** 4 / 144.0 - c ** 5 / 840.0
    )
    out[:, 0] = np.where(c < _SMALL_C_MOMENT, series, direct)
    C = cs[:, None]
    bracket = (C * T1 + 1.0) * 4.0 * np.sinh(C * H / 2.0) ** 2 - 2.0 * C * H * np.sinh(C * H)
    stable = (A / C ** 2) * np.exp(-C * T1) * bracket
    out[:, 1:] = np.where(c[:, None] == 0.0, -A * H * H, stable)
    return out


def _dense_product(matrix, x):
    """``matrix @ x`` in extended precision (x86-64's 80-bit long double), rounded once.

    Computed in double, the dense product strays by up to about 3 ulp of
    its largest entry at m = 11 (the pyramid by about 1).
    """
    return (matrix.astype(np.longdouble) @ np.asarray(x, dtype=np.longdouble)).astype(float)


def _project_ref(samples, m):
    """The sampled branch of ``project`` on the gathered blocks and the dense matrix."""
    return _dense_product(synthesis_matrix(m), trapezoid_moments(samples, 2 ** m)[0])


def assert_within_ulps(got, want, ulps=4):
    """``|got - want| <= ulps * eps * max|want|`` entrywise."""
    bound = ulps * np.finfo(float).eps * np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= bound, np.max(np.abs(got - want)) / bound


def _hand_rates():
    """Unsorted rates: 0, a value with ``c * width`` under 1e-6 at every level
    (and one just over it), ordinary values and c = 50; the count is not a
    multiple of the fill block. Without the ordinary 0.25 it would be 624,
    which is 13 blocks of 48 rows at m = 9."""
    rng = np.random.default_rng(21)
    widths = 1.0 / 2.0 ** np.arange(10)  # support widths of levels 1..10
    c = np.concatenate([
        [0.0, 50.0, 1.0, 0.5, 0.25],
        0.5 * 1e-6 / widths,
        1.5 * 1e-6 / widths,
        rng.uniform(0.0, 2.0, 300),
        10.0 ** rng.uniform(-12.0, 1.0, 300),
    ])
    rng.shuffle(c)
    assert all(len(c) % max(1, _FILL_ENTRIES // 2 ** m) != 0 for m in range(1, 10))
    return c


class TestIndexing:
    """The oracle's index split, and the tables of ``fredreg.haar`` against it."""

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

    @pytest.mark.parametrize("m", range(13))
    def test_tables_match_the_per_index_definition(self, m):
        # the module docstring's amplitude and support midpoint of every Phi_j,
        # j >= 2, index by index; the constant Phi_1 has amplitude 1 on [0, 1]
        want = [[1.0], [0.5]]
        for j in range(2, 2 ** m + 1):
            l, p = split_index(j)
            w = 1.0 / 2 ** (l - 1)
            for col, value in zip(want, (2.0 ** ((l - 1) / 2), (p - 0.5) * w)):
                col.append(value)
        for got, expected in zip(_tables(m), want):
            np.testing.assert_array_equal(got, expected, strict=True)


def unit(j, m):
    """The unit vector ``e_j`` of the level-``m`` span, ``2**m >= j``."""
    e = np.zeros(2 ** m)
    e[j - 1] = 1.0
    return e


def phi(j, x):
    """``Phi_j``, ``j <= 8``, at ``x``: :func:`evaluate` of ``e_j`` in the level-3 span."""
    return evaluate(unit(j, 3), x)


class TestEval:
    """``Phi_j`` is :func:`evaluate` of the unit vector ``e_j``: values by hand."""

    def test_constant(self):
        assert phi(1, 0.3) == 1.0

    def test_first_wavelet(self):
        assert phi(2, 0.25) == 1.0
        assert phi(2, 0.75) == -1.0

    def test_outside_support(self):
        assert phi(3, 0.6) == 0.0

    def test_amplitude(self):
        assert phi(3, 0.1) == pytest.approx(math.sqrt(2))
        assert phi(5, 0.05) == pytest.approx(2.0)

    def test_left_limit_at_one(self):
        assert phi(1, 1.0) == 1.0
        assert phi(2, 1.0) == -1.0   # last negative piece
        assert phi(3, 1.0) == 0.0    # support ends at 1/2
        assert phi(4, 1.0) == pytest.approx(-math.sqrt(2))


class TestEvaluate:
    """Haar coefficients are plain 1-d arrays whose length ``2**m`` gives the level."""

    @pytest.mark.parametrize(
        "coeffs", [np.zeros(0), np.zeros(3), np.zeros(6), np.zeros((2, 2)), np.float64(1.0)],
        ids=["0", "3", "6", "2d", "0d"],
    )
    def test_rejects_coefficients_of_no_level(self, coeffs):
        with pytest.raises(ValueError, match="length 2\\*\\*m"):
            evaluate(coeffs, 0.5)

    def test_project_and_solution_are_read_only(self):
        m_cap = 2
        samples = exact_problem().exact_rhs(sample_grid(m_cap))
        ops, config = OperatorCache(), SolverConfig(m_cap=m_cap)
        outcomes = [
            run_adaptive(ops, samples, 1e-3, config),
            run_fixed(ops, samples, 1e-3, config, m_cap),
        ]
        results = [project(samples, m_cap), project(lambda t: t, 3), ops.data(samples, m_cap)]
        results += [o.solution for o in outcomes]
        for coeffs in results:
            assert coeffs.dtype == np.float64 and coeffs.ndim == 1
            assert not coeffs.flags.writeable
        assert [len(o.solution) for o in outcomes] == [2 ** o.m_final for o in outcomes]

    def test_projecting_a_writable_array_leaves_it_writable(self):
        # the result is the pyramid's own array, never the caller's, frozen or not
        samples = np.linspace(0.0, 1.0, 9)
        coeffs = project(samples, 3)
        assert samples.flags.writeable
        samples[0] = 5.0
        assert coeffs[0] == project(np.linspace(0.0, 1.0, 9), 3)[0]


def moment(matrix, c, j):
    """Entry ``(c, Phi_j)`` of a moment matrix at the coarsest level holding ``Phi_j``."""
    return float(matrix(np.array([c]), (j - 1).bit_length())[0, j - 1])


def _exp_matrix(c, m):
    """``E`` alone: ``[0]`` of the pair that ``exp_haar_matrix`` returns."""
    return exp_haar_matrix(c, m)[0]


class TestExponentialInnerProducts:
    def test_zero_rate(self):
        assert moment(_exp_matrix, 0.0, 1) == 1.0
        for j in (2, 3, 7, 40):
            assert moment(_exp_matrix, 0.0, j) == 0.0

    def test_unit_rate_constant(self):
        assert moment(_exp_matrix, 1.0, 1) == pytest.approx(1 - math.exp(-1), abs=1e-15)

    def test_t_weighted_zero_rate(self):
        assert moment(exp_t_haar_matrix, 0.0, 1) == 0.5
        assert moment(exp_t_haar_matrix, 0.0, 2) == -0.25

    def test_matrix_matches_scalar(self):
        # column j of the level-m matrix equals column j at level (j-1).bit_length()
        c = np.array([0.0, 0.3, 1.7])
        m = 4
        for matrix in (_exp_matrix, exp_t_haar_matrix):
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

    @pytest.mark.parametrize("shape", [(1, 2), (2, 1), (2, 2)])
    def test_rejects_rates_of_more_than_one_dimension(self, shape):
        # refused before anything is allocated: at level 20 a row is 8 MB
        c = np.full(shape, 0.1)
        want = f"decay rates must be a scalar or a 1-d array, got shape {shape}"
        for matrix in (exp_haar_matrix, exp_t_haar_matrix):
            assert np.array_equal(matrix(0.1, 3), matrix([0.1], 3))
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=re.escape(want)):
                    matrix(c, 20)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 ** 20, matrix.__name__

    def test_rates_below_the_floor_give_the_zero_rate_row(self):
        # below 1e-100 a rate is taken as 0 (the closed forms' factors
        # underflow from about 1e-150); just above it the row is finite and
        # next to the limits. What numpy warns of by default raises here
        # (underflow it ignores: column 0's series underflows harmlessly)
        zero = np.array([0.0])
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            for matrix in (_exp_matrix, exp_t_haar_matrix):
                want = matrix(zero, 8)[0]
                got = matrix(np.array([5e-324, 1e-300, 1e-160, 1e-101]), 8)
                assert all(row.tobytes() == want.tobytes() for row in got), matrix.__name__
                above = matrix(np.array([1e-99]), 8)[0]
                assert np.all(np.isfinite(above))
                assert np.max(np.abs(above - want)) <= 1e-98, matrix.__name__

    def test_moments_finite_up_to_the_rate_bound(self):
        c = np.linspace(0.0, math.log(np.finfo(float).max), 201)
        for m in (0, 1, 5, 10):
            for matrix in (exp_haar_matrix, exp_t_haar_matrix):
                assert np.all(np.isfinite(matrix(c, m)))


def _draws(seed):
    """40 pairs ``(c, j)``, ``c`` uniform in [0, 4) and ``j`` in 1..255."""
    rng = np.random.default_rng(seed)
    return [(float(rng.uniform(0, 4)), int(rng.integers(1, 256))) for _ in range(40)]


class TestMomentDecimalOracle:
    """Both moment matrices against exact antiderivatives in 60 digits.

    Whole rows at m = 8, and single entries at the coarsest level holding them.
    """

    # both sides of c * width = 1e-6 at j = 1, 2, 9 and 33 (widths 1, 1, 1/8, 1/32)
    SMALL = tuple(
        (c / w, j) for j, w in ((1, 1.0), (2, 1.0), (9, 0.125), (33, 0.03125))
        for c in (0.9e-6, 1.1e-6)
    )
    # c = 0; tiny rates, and both sides of c * width = 1e-6 at widths 1/4,
    # 1/8 and 1/128; the smallest non-zero rates of sample_grid(8) (the
    # level-8 rows with c * width < 1e-6); both sides of the j = 1
    # t-moment's series (c < 1e-3), 1e-6 from its end and with the worst
    # rates of sample_grid(8) and sample_grid(6) above it; moderate and
    # large rates; the rates of SMALL
    RATES = (
        0.0, 1e-20, 1e-9, 3.9e-6, 7.8e-6, 1 / 46080, 2 / 46080, 5 / 46080, 1.27e-4, 1.29e-4,
        0.999e-3, 1e-3, 1.001e-3, 50 / 46080, 14 / 11520, 1.5e-3, 0.5, 1.0, 50.0,
    ) + tuple(sorted({c for c, _ in SMALL}))
    DRAWS = _draws(7) + _draws(8)

    @pytest.mark.parametrize(
        "weight, matrix", [(0, _exp_matrix), (1, exp_t_haar_matrix)],
        ids=["0-exp_haar_matrix", "1-exp_t_haar_matrix"],
    )
    def test_each_row_within_2e_13_of_its_largest_entry(self, weight, matrix):
        # measured worst 1.83e-13: column 0 of the t-moment at c = 50/46080,
        # just above the series branch, where the closed form cancels about
        # 3 digits (1.21e-13 at c = 14/11520, 7.6e-14 at c = 1.5e-3). The
        # wavelet columns' closed forms hold to roundoff: worst 2.64e-15
        got = matrix(np.array(self.RATES), 8)
        with localcontext() as ctx:
            ctx.prec = 60
            for c, row in zip(self.RATES, got):
                want = decimal_moments(c, 8, weight)
                errs = [abs(Decimal(float(g)) - w) for g, w in zip(row, want)]
                scale = max(abs(w) for w in want)
                assert max(errs) <= Decimal("2e-13") * scale, (c, float(max(errs) / scale))
                assert max(errs[1:]) <= Decimal("5e-15") * scale, (c, float(max(errs[1:]) / scale))
            # every draw's own entry within 1e-13, and the exp moment's SMALL
            # entries within 1e-16: measured worst 1.7e-17 and 3.8e-17
            entries = [(c, j, "1e-13") for c, j in self.DRAWS]
            entries += [(c, j, "1e-16") for c, j in self.SMALL if weight == 0]
            for c, j, bound in entries:
                err = abs(Decimal(moment(matrix, c, j)) - decimal_moments(c, 8, weight, [j])[0])
                assert err <= Decimal(bound), (c, j, float(err))

    @pytest.mark.skipif(
        not EXTENDED,
        reason=f"the 80-bit closed forms need a long double of 64 mantissa bits or "
        f"more; numpy's has {np.finfo(np.longdouble).nmant + 1} here",
    )
    @pytest.mark.parametrize("weight", [0, 1])
    def test_80_bit_closed_forms_within_1e_17_of_each_row_largest_entry(self, weight):
        # the long double moments the 80-bit run is built from; measured
        # worst 1.1e-18, at c = 50. At 60 digits the antiderivatives
        # themselves lose up to 3e-18 at c = 1e-20, so this check takes 80
        got = extended_moments(np.array(self.RATES), 8, weight)
        with localcontext() as ctx:
            ctx.prec = 80
            for c, row in zip(self.RATES, got):
                want = decimal_moments(c, 8, weight)
                # a 64-bit mantissa is the exact sum of two doubles
                exact = [Decimal(float(g)) + Decimal(float(g - float(g))) for g in row]
                err = max(abs(g - w) for g, w in zip(exact, want))
                scale = max(abs(w) for w in want)
                assert err <= Decimal("1e-17") * scale, (c, float(err / scale))


def _fill_inputs(m):
    """The four rate sets of the fill oracles at level ``m``."""
    return {
        "partition": sample_grid(m)[:-1],
        "simpson": simpson_rule(m)[0],
        "gauss": gauss_cell_nodes(m)[0],
        "hand": _hand_rates(),
    }


class TestMomentMatrixFill:
    """The whole-row blocked fill, split over two threads, against the elementwise formulas."""

    @pytest.mark.parametrize("m", range(1, 10))
    def test_bit_identical_to_elementwise_formula(self, m):
        # the one-pass pair and exp_t_haar_matrix's copy of its [1]; chunks
        # of about 3000 rows take more than one block from m = 4 on
        for name, c in _fill_inputs(m).items():
            # the formulas are row-wise, so compare in row chunks to bound
            # the oracle's temporaries (ten full-size arrays)
            for rows in np.array_split(np.arange(len(c)), max(1, len(c) // 3000)):
                want0 = _exp_haar_matrix_ref(c[rows], m)
                want1 = _exp_t_haar_matrix_ref(c[rows], m)
                got0, got1 = exp_haar_matrix(c[rows], m)
                assert np.array_equal(got0, want0), name
                assert np.array_equal(got1, want1), name
                assert np.array_equal(exp_t_haar_matrix(c[rows], m), want1), name

    def test_no_rates_give_no_rows(self):
        assert exp_haar_matrix([], 3).shape == (2, 0, 8)
        assert exp_t_haar_matrix([], 3).shape == (0, 8)

    @pytest.mark.parametrize(
        "c, m",
        [(0.7, 5), ([0.7], 5), (np.tile(_hand_rates(), 2), 6), (_hand_rates(), 0)],
        ids=["scalar", "one_row", "blocks", "level_0"],
    )
    def test_every_fill_returns_the_pair_as_one_new_array(self, c, m):
        # E in [0] and E_t in [1] of one C-contiguous array of its own, for
        # any rates and level: the 1250 rows at m = 6 fill four blocks
        got = exp_haar_matrix(c, m)
        assert got.shape == (2, np.size(c), 2 ** m)
        assert got.flags.c_contiguous and got.base is None
        assert np.array_equal(got[0], _exp_haar_matrix_ref(c, m))
        assert np.array_equal(got[1], _exp_t_haar_matrix_ref(c, m))

    @pytest.mark.parametrize("m", range(1, 9))
    def test_exp_t_haar_matrix_is_one_fill_copied_out(self, monkeypatch, m):
        # each call makes one pair fill and returns its [1] as a new array;
        # the hand rates take more than one block from m = 6 on and the
        # partition ends from m = 4 on, so the helper thread fills part of them
        fills = record_calls(monkeypatch, haar, "exp_haar_matrix")
        for c in (_hand_rates(), sample_grid(m)[:-1]):
            got = exp_t_haar_matrix(c, m)
            (_, _, pair), = fills
            fills.clear()
            assert got.flags.c_contiguous and got.base is None
            assert np.array_equal(got, pair[1])

    @pytest.mark.parametrize("m", range(1, 9))
    def test_gram_matrix_is_built_from_the_e_half(self, m):
        # the Gram matrix reads [0] of its fill's pair: the same weighted
        # product of the elementwise E gives it bit for bit
        points, weights = simpson_rule(m)
        p = _exp_haar_matrix_ref(points, m)
        a = p.T @ (weights[:, None] * p)
        assert np.array_equal(assemble_gram(m), 0.5 * (a + a.T))

    def test_concurrent_fills_under_frequent_switching(self):
        # four callers at once, switching every 1 us:
        # every result is bit-identical to the elementwise formulas
        c = np.tile(_hand_rates(), 4)
        want = (_exp_haar_matrix_ref(c, 6), _exp_t_haar_matrix_ref(c, 6))
        results = [None] * 4

        def call(i):
            results[i] = exp_haar_matrix(c, 6)

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

    @pytest.mark.parametrize("half", ["caller", "helper"])
    def test_an_exception_of_either_half_reaches_the_caller(self, monkeypatch, half):
        # the helper thread is joined whichever half raises
        fill_rows, caller = haar._fill_rows, threading.get_ident()

        def failing(*args):
            if (threading.get_ident() == caller) == (half == "caller"):
                raise ArithmeticError(half)
            fill_rows(*args)

        monkeypatch.setattr(haar, "_fill_rows", failing)
        threads = threading.active_count()
        with pytest.raises(ArithmeticError, match=half):
            exp_haar_matrix(_hand_rates(), 6)  # 625 rows: two blocks of at most 384
        assert threading.active_count() == threads

    def test_a_fill_of_one_block_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a one-block fill started a thread")

        monkeypatch.setattr(threading, "Thread", no_thread)
        c = _hand_rates()[: _FILL_ENTRIES // 2 ** 6]
        got0, got1 = exp_haar_matrix(c, 6)
        assert np.array_equal(got0, _exp_haar_matrix_ref(c, 6))
        assert np.array_equal(got1, _exp_t_haar_matrix_ref(c, 6))

    def test_peak_memory_is_the_output(self):
        # the pair plus at most 2 MiB of block and rate-vector temporaries;
        # at m = 8 that is also within a quarter of the pair
        for m in (6, 8):
            c = sample_grid(m)[:-1]
            _tables(m)
            tracemalloc.start()
            try:
                held = exp_haar_matrix(c, m).nbytes
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= held + 2 * 2 ** 20, m
            assert m < 8 or peak <= 1.25 * held, m

    def test_column0_peak_memory_is_two_rate_vectors(self):
        # the closed form over every rate and the series over the small
        # rates alone hold about two rate vectors at the peak; both branches
        # over every rate, picked by np.where, hold about three
        zero, cs = haar._rates(sample_grid(8)[:-1])
        for column0 in (haar._column0_exp, haar._column0_exp_t):
            tracemalloc.start()
            try:
                column0(zero, cs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2.5 * 8 * len(cs), column0.__name__


def test_cli_import_loads_no_numpy_polynomial():
    # the Gauss-Legendre rules of the Galerkin matrix and callable projection
    # are constants: neither the import nor a fixed-scheme solve loads leggauss
    code = """
import contextlib, io, sys
import fredreg.cli
from fredreg.assembly import galerkin_matrix
from fredreg.haar import project
with contextlib.redirect_stdout(io.StringIO()):
    status = fredreg.cli.main(["solve", "--scheme", "both", "--noise", "0.05"])
galerkin_matrix(4)
project(lambda t: t, 3)
print(status, [m for m in sys.modules if m.startswith("numpy.polynomial")])
"""
    done = run_python(["-c", code])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0 []"


@pytest.mark.parametrize("n", [8])
def test_constant_rules_are_gauss_legendre(n):
    from numpy.polynomial.legendre import leggauss

    # the rule callable project mirrors from its constant positive half
    half_x, half_w = (np.array(v) for v in haar._GAUSS_LEGENDRE_HALF)
    x = np.concatenate((-half_x[::-1], half_x))
    w = np.concatenate((half_w[::-1], half_w))
    assert x.shape == w.shape == (n,)
    np.testing.assert_array_equal(x, -x[::-1])
    assert np.all(np.diff(x) > 0) and -1.0 < x[0] and x[-1] < 1.0
    np.testing.assert_array_equal(w, w[::-1])
    assert np.all(w > 0)
    np.testing.assert_allclose(w.sum(), 2.0, rtol=0, atol=4 * np.spacing(2.0))
    # exact on every monomial of degree <= 2n - 1: int_{-1}^{1} x**k dx
    for k in range(2 * n):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(np.dot(w, x ** k) - exact) <= 4 * np.spacing(2.0), k
    gx, gw = leggauss(n)
    for got, want in ((x, gx), (w, gw)):
        assert np.all(np.abs(got - want) <= np.spacing(np.abs(want))), n


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
                ref, h_ref, w_ref, _ = trapezoid_gather(samples, n_cells)
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
                want = trapezoid_moments(samples, 180 * 2 ** l)
                assert all(map(np.array_equal, got, want)), (name, l)
                blocks, h, w = _trapezoid_blocks(samples, 2 ** l)
                want = trapezoid_moments(samples, 2 ** l)[0]
                assert np.array_equal(h * (blocks @ w), want), (name, l)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_projection_matches_gather_formula(self, m):
        # the pyramid sums in another order than the dense matrix product
        for name, samples in self._inputs(m).items():
            for l in range(m + 1):
                assert_within_ulps(project(samples, l), _project_ref(samples, l))

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
        fine = project(samples, 8)
        for m in range(9):
            assert_within_ulps(fine[: 2 ** m], project(samples, m))

    def test_evaluate_of_a_unit_vector_equals_the_piecewise_formula(self):
        # e_j gives Phi_j in the coarsest span holding it and in a finer one;
        # an array of points, also of one, gives an array, a scalar a float
        rng = np.random.default_rng(31)
        x = np.concatenate([rng.uniform(0, 1, 200), np.arange(1025) / 1024, [1.0]])
        scalars = (float(x[0]), 0.5, 1.0, np.float64(0.25), np.array(0.75))
        for j in [*range(1, 601), 2 ** 12, 2 ** 13]:
            coarsest = 0 if j == 1 else split_index(j)[0]
            for e in (unit(j, coarsest), unit(j, coarsest + 1)):
                for points in (x, x[-1:]):
                    got, want = evaluate(e, points), haar_eval_piecewise(j, points)
                    assert type(got) is type(want) is np.ndarray, (j, len(e))
                    assert got.dtype == want.dtype and np.array_equal(got, want), (j, len(e))
                for xi in scalars:
                    got, want = evaluate(e, xi), haar_eval_piecewise(j, xi)
                    assert type(got) is type(want) is float and got == want, (j, len(e), xi)

    def test_cell_values_memory_is_linear(self):
        # the dense synthesis matrix took 32 MB at m = 11 and lru_cache kept it
        coeffs = np.random.default_rng(3).standard_normal(2 ** 11)
        _tables.cache_clear()  # count the amplitude table too
        tracemalloc.start()
        try:
            cells = _synthesis(coeffs, 11)
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
        np.testing.assert_allclose(coeffs, expected, atol=1e-15)

    def test_basis_function_callable(self):
        coeffs = project(lambda t: haar_eval_piecewise(5, t), 3)
        expected = np.zeros(8)
        expected[4] = 1.0
        np.testing.assert_allclose(coeffs, expected, atol=1e-12)

    def test_identity_function_m1(self):
        # by hand: <t, 1> = 1/2 and <t, Phi_2> = int_0^.5 t - int_.5^1 t = -1/4
        np.testing.assert_allclose(project(lambda t: t, 1), [0.5, -0.25], atol=1e-15)

    def test_sampled_basis_function(self):
        n = 1440
        grid = np.arange(n + 1) / n
        samples = haar_eval_piecewise(2, grid)
        coeffs = project(samples, 2)
        assert coeffs[1] == pytest.approx(1.0, abs=2e-3)
        assert abs(coeffs[0]) < 2e-3

    def test_sampled_matches_callable_on_smooth_function(self):
        n = 2880
        grid = np.arange(n + 1) / n
        f = lambda t: np.exp(-t) * np.sin(3 * t)
        got = project(np.asarray(f(grid)), 4)
        want = project(f, 4)
        np.testing.assert_allclose(got, want, atol=1e-7)

    def test_vector_valued_callable_projects_each_column(self):
        fs = (lambda t: t, lambda t: np.cos(3 * t), lambda t: t ** 2 * np.exp(-t))
        for m in range(11):
            got = project(lambda t: np.stack([f(t) for f in fs], axis=1), m)
            assert got.shape == (2 ** m, 3) and not got.flags.writeable, m
            for k, f in enumerate(fs):
                # the cell sums reduce in another order than the scalar's
                want = project(f, m)
                assert np.max(np.abs(got[:, k] - want)) <= 1e-15 * np.max(np.abs(want)), (m, k)
        square = project(lambda t: np.moveaxis(np.array([[t, 2 * t], [3 * t, t * t]]), -1, 0), 4)
        assert square.shape == (16, 2, 2)
        np.testing.assert_allclose(square[:, 1, 0], 3 * project(lambda t: t, 4), atol=1e-15)

    def test_rejects_coarse_grid(self):
        samples = np.linspace(0, 1, 5)  # 4 subintervals < 2**3
        with pytest.raises(ValueError):
            project(samples, 3)
        with pytest.raises(ValueError):
            project(np.linspace(0, 1, 13), 3)  # 12 not divisible by 8


class TestSpanInvariants:
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
        assert np.sum(coeffs ** 2) == pytest.approx(norm_sq, abs=1e-12)

    def test_projection_error_decreases_to_zero(self):
        # ||P_m f - f|| for f(t) = t, computed exactly: ||f||^2 - sum coeffs^2
        f_norm_sq = 1.0 / 3.0
        errors = []
        for m in range(1, 9):
            coeffs = project(lambda t: t, m)
            err_sq = f_norm_sq - float(np.sum(coeffs ** 2))
            errors.append(math.sqrt(max(err_sq, 0.0)))
        assert all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))
        # error halves per level for this f; level 8 sits at 2**-8 / (2 sqrt(3))
        ratios = [b / a for a, b in zip(errors, errors[1:])]
        assert max(ratios) < 0.51
        assert errors[-1] < 2.0 ** -8

    def test_evaluate_rejects_points_outside_unit_interval(self):
        # the points are checked before synthesis, so any coefficients do
        for x in (-0.01, 1.01, math.nan, np.array([0.5, math.nan])):
            with pytest.raises(ValueError, match="evaluation points"):
                evaluate(np.array([1.0, 0.5, 0.25, 0.0]), x)
