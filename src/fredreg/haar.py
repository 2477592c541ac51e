"""Haar orthonormal basis on [0,1].

The basis is indexed ``j = 1..2**m`` for the span of dimension ``2**m``:
``Phi_1 = 1`` and, for ``j = 2**(l-1) + p`` with level ``l >= 1`` and
offset ``1 <= p <= 2**(l-1)``,

    Phi_j =  2**((l-1)/2)   on [ (p-1)/2**(l-1), (p-1/2)/2**(l-1) )
            -2**((l-1)/2)   on [ (p-1/2)/2**(l-1), p/2**(l-1) )
             0              elsewhere.

All supports are right-open; the point ``x = 1`` is evaluated by its
left limit so that evaluation is defined on the closed interval.

Besides pointwise evaluation the module provides closed-form inner
products of the basis against exponentials ``exp(-c*t)`` (and their
``t``-weighted variant), the pyramid transform between the basis and
the finest cells, projection onto the span, and a coefficient
container.
"""

import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Below this value of c * (support width), the exponential inner products
# switch to truncated Taylor expansions of the piece integrals.
_SMALL_C_WIDTH = 1e-6
# Branch point for the j = 1 moment integrals (shared with the benchmark
# right-hand side, which is the same function).
_SMALL_C_MOMENT = 1e-3
# Entries per block of the whole-row wavelet fill; bounds each temporary
# array of one block at this many doubles (256 KB).
_FILL_ENTRIES = 32768
# Above this rate expm1(c) overflows (and sinh(c*h/2)**2 from about twice
# it), so the moment formulas would give NaN.
_MAX_RATE = float(np.log(np.finfo(float).max))


def _check_level(name, value, minimum):
    """Reject a level, count or index that is not an integer ``>= minimum``.

    A bool is not an integer here. Raises ``ValueError``, which the
    command line reports as a configuration error (exit 2).
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def split_index(j):
    """Decompose ``j >= 2`` into its (level, offset) pair ``j = 2**(l-1) + p``."""
    _check_level("wavelet index", j, 2)
    j = int(j)  # np.int64 has no bit_length
    l = (j - 1).bit_length()
    p = j - 2 ** (l - 1)
    return l, p


@lru_cache(maxsize=None)
def _tables(m):
    """Per-index arrays (amplitude, left, midpoint, right) for j = 1..2**m.

    Entry 0 (j = 1) describes the constant function; its support fields
    are set to the full interval and are not used by the fast paths.
    """
    n = 2 ** m
    amp, left, width = np.ones(n), np.zeros(n), np.ones(n)
    for l in range(1, m + 1):
        # j = k + p for offsets p = 1..k share the support width 1/k; every
        # left end, width, midpoint and right end is an exact dyadic number
        k = 2 ** (l - 1)
        amp[k : 2 * k] = 2.0 ** ((l - 1) / 2.0)
        left[k : 2 * k] = np.arange(k) * (1.0 / k)
        width[k : 2 * k] = 1.0 / k
    mid, right = left + width / 2.0, left + width
    for a in (amp, left, mid, right):
        a.setflags(write=False)
    return amp, left, mid, right


def haar_eval(j, x):
    """Evaluate ``Phi_j`` at points ``x`` in [0,1].

    ``x = 1`` uses the left-limit convention; values outside [0,1] are
    rejected. Returns a scalar for scalar input, else an ndarray.
    """
    _check_level("basis index", j, 1)
    level = (int(j) - 1).bit_length()  # the coarsest span holding Phi_j
    unit = np.zeros(2 ** level)
    unit[j - 1] = 1.0
    return HaarCoefficients(level=level, values=unit).evaluate(x)


# ---------------------------------------------------------------------------
# inner products against exponentials
# ---------------------------------------------------------------------------

def _rates(c):
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if np.any(c < 0) or not np.all(np.isfinite(c)):
        raise ValueError("decay rates must be finite and >= 0")
    if np.any(c > _MAX_RATE):
        raise ValueError(f"decay rates must be <= log(float max) = {_MAX_RATE}")
    return c


def _wavelet_levels(m, first=1):
    """Per level ``l = first..m``: column slice, amplitude, piece and support width.

    Amplitude and widths are constant within a level (the widths are
    exact dyadic numbers), so the level's first column of :func:`_tables`
    gives them for every column of the level, bit for bit.
    """
    amp, left, mid, right = _tables(m)
    for l in range(first, m + 1):
        j = 2 ** (l - 1)
        yield slice(j, 2 * j), amp[j], mid[j] - left[j], right[j] - left[j]


def _column0_exp(c, cs):
    taylor = 1.0 - c / 2.0 + c ** 2 / 6.0 - c ** 3 / 24.0
    return np.where(c < _SMALL_C_WIDTH, taylor, -np.expm1(-cs) / cs)


def _column0_exp_t(c, cs):
    taylor1 = 0.5 - c / 3.0 + c ** 2 / 8.0 - c ** 3 / 30.0 + c ** 4 / 144.0 - c ** 5 / 840.0
    return np.where(c < _SMALL_C_MOMENT, taylor1, np.exp(-cs) * (np.expm1(cs) - cs) / cs ** 2)


def _taylor_exp(C, A, T0, T1, T2):
    # A * (int_{T0}^{T1} - int_{T1}^{T2}) exp(-c t) dt, truncated Taylor in c
    H = T1 - T0
    return A * C * H ** 2 * (
        1.0
        - C * T1
        + C ** 2 * (T1 ** 2 / 2.0 + H ** 2 / 12.0)
        - C ** 3 * (T1 ** 3 / 6.0 + T1 * H ** 2 / 12.0)
    )


def _taylor_exp_t(C, A, T0, T1, T2):
    def moment(a, b):
        # int_a^b t exp(-c t) dt, truncated Taylor in c
        return (
            (b ** 2 - a ** 2) / 2.0
            - C * (b ** 3 - a ** 3) / 3.0
            + C ** 2 * (b ** 4 - a ** 4) / 8.0
            - C ** 3 * (b ** 5 - a ** 5) / 30.0
            + C ** 4 * (b ** 6 - a ** 6) / 144.0
        )

    return A * (moment(T0, T1) - moment(T1, T2))


def _output(out, c, m, start):
    """``out`` once checked, or a new array for None (which needs ``start = 0``)."""
    if out is None:
        if start > 0:
            raise ValueError("a fill from a wavelet level needs out holding the columns before it")
        return np.empty((len(c), 2 ** m))
    if out.shape != (len(c), 2 ** m) or out.dtype != np.float64:
        raise ValueError(
            f"out must be a float64 array of shape {(len(c), 2 ** m)}, "
            f"got {out.dtype} {out.shape}"
        )
    return out


def _in_halves(work, n, step):
    """``work(0, half)`` here and ``work(half, n)`` on one helper thread, unless ``n <= step``.

    The split is fixed, so the bits do not depend on the core count. The
    helper is joined before this returns; its exception is raised here.
    """
    if n <= step:
        return work(0, n)
    half, failed = (n + 1) // 2, []

    def helper():
        try:
            work(half, n)
        except BaseException as error:
            failed.append(error)

    thread = threading.Thread(target=helper)
    thread.start()
    try:
        work(0, half)
    finally:
        thread.join()
    if failed:
        raise failed[0]


def _fill(c, m, start, outs, wanted):
    """The pair (:func:`exp_haar_matrix`, :func:`exp_t_haar_matrix`) written into ``outs``.

    Checks the inputs; an output not ``wanted`` is None and skipped. Per block,
    ``x = -c*mid``, ``e = exp(x)`` and ``sinh(c*h/2)**2`` serve both; ``x`` and
    ``e`` reuse two arrays per half (no block hands memory back to the system to
    fault it in again), and each output is formed contiguously, then copied.
    """
    c = _rates(c)
    _check_level("level", m, 0)
    if isinstance(start, bool) or not isinstance(start, (int, np.integer)) or not 0 <= start <= m:
        raise ValueError(f"start must be an integer in [0, {m}], got {start!r}")
    out, t_out = outs = [_output(o, c, m, start) if w else None for o, w in zip(outs, wanted)]
    cs = np.where(c == 0.0, 1.0, c)
    pairs = ((out, _column0_exp, _taylor_exp), (t_out, _column0_exp_t, _taylor_exp_t))
    outputs = [pair for pair in pairs if pair[0] is not None]
    for target, column0, _ in outputs if start == 0 else ():
        target[:, 0] = column0(c, cs)
    levels = list(_wavelet_levels(m, max(start, 1)))
    if not levels:
        return outs
    col0 = levels[0][0].start
    n_cols = 2 ** m - col0
    counts = [cols.stop - cols.start for cols, *_ in levels]
    A = np.array([[a for _, a, _, _ in levels]])
    H = np.array([[h for _, _, h, _ in levels]])
    tables = _tables(m)
    mid = tables[2][None, col0:]
    C, Cs = c[:, None], cs[:, None]
    step = max(1, _FILL_ENTRIES // n_cols)  # rows per block

    def expand(factor):
        return np.repeat(factor, counts, axis=1)

    def fill_rows(first, stop):
        x_buf, e_buf = np.empty((2, min(step, stop - first), n_cols))
        for r0 in range(first, stop, step):
            rows = slice(r0, min(r0 + step, stop))
            Cr, Csr = C[rows], Cs[rows]
            x = np.multiply(-Cr, mid, out=x_buf[: len(Cr)])  # -(c * mid), exactly
            e = np.exp(x, out=e_buf[: len(Cr)])
            sinh2 = expand(np.sinh(Cr * H / 2.0) ** 2)
            if out is not None:
                plain = expand(A / Csr)
                plain *= e
                plain *= 4.0
                plain *= sinh2
                out[rows, col0:] = plain
            if t_out is not None:
                np.subtract(1.0, x, out=x)  # c * mid + 1.0, exactly
                x *= 4.0
                x *= sinh2
                x -= expand(2.0 * Cr * H * np.sinh(Cr * H))
                e *= expand(A / Csr ** 2)
                x *= e
                t_out[rows, col0:] = x

    _in_halves(fill_rows, len(c), step)
    for cols, _, _, w in levels:
        small = c * w < _SMALL_C_WIDTH
        for target, _, taylor in outputs if small.any() else ():
            target[small, cols] = taylor(C[small], *(t[None, cols] for t in tables))
    return outs


def exp_haar_matrix(c, m, *, out=None, start=0, t_out=None):
    """Matrix of ``int_0^1 exp(-c_k t) Phi_j(t) dt`` for ``j = 1..2**m``.

    Parameters
    ----------
    c : array_like
        Decay rates in ``[0, log(float max) ~ 709.78]``, one per row.
    m : int
        Span level; the result has shape ``(len(c), 2**m)``.
    out : ndarray, optional
        Float64 array of that shape to write into (a view is fine); it
        is returned. A new array by default.
    start : int
        First level filled: 0 (the default) fills every column; ``l >= 1``
        fills the wavelet columns of levels ``l..m`` only and leaves the
        first ``2**(l-1)`` columns of ``out`` as they are.
    t_out : ndarray, optional
        A second such array; the same pass writes :func:`exp_t_haar_matrix`
        of ``c``, ``m`` and ``start`` into it.

    The wavelet columns use the cancellation-free form
    ``((A/c) * exp(-c*mid) * 4) * sinh(c*h/2)**2`` (``A`` the amplitude,
    ``h`` the piece width), with a Taylor branch when ``c`` times the
    support width is below 1e-6. Column ``j = 1`` is ``-expm1(-c)/c``.

    The wavelet columns are filled in blocks of whole rows (32 768
    entries), the first half of the rows on the calling thread and the
    second on one helper thread: ``exp`` once per entry for both outputs,
    every factor of the row and level alone once per row and level. Every
    entry keeps the operation sequence of the elementwise formula, so the
    result is bit-identical to it on any number of cores; peak memory is
    the results plus one block per thread.
    """
    return _fill(c, m, start, (out, t_out), (True, t_out is not None))[0]


def exp_t_haar_matrix(c, m):
    """Matrix of ``int_0^1 t exp(-c_k t) Phi_j(t) dt``, shape ``(len(c), 2**m)``.

    Companion of :func:`exp_haar_matrix` for the t-weighted moment that
    appears in the first-order Taylor replacement of the adjoint; to write
    it into an array, or from a level on, pass that array as
    ``exp_haar_matrix``'s ``t_out``. The wavelet columns are
    ``((A/c**2) * exp(-c*mid)) * bracket`` with
    ``bracket = ((c*mid + 1) * 4) * sinh(c*h/2)**2 - 2*c*h*sinh(c*h)``,
    filled like :func:`exp_haar_matrix` and bit-identical to the formula.
    """
    return _fill(c, m, 0, (None, None), (False, True))[1]


# ---------------------------------------------------------------------------
# the pyramid transform pair and projection
# ---------------------------------------------------------------------------

def _analysis(cells, m):
    """``<f, Phi_j>``, ``j = 1..2**m``, from the integrals of ``f`` over the ``2**m`` finest cells.

    The Haar pyramid (Mallat, IEEE PAMI 1989), along axis 0: per level,
    pairwise differences of the cell integrals give the wavelet
    coefficients before their amplitude, pairwise sums the integrals
    one level coarser. O(2**m) time and memory.
    """
    out = np.empty(cells.shape)
    for l in range(m, 0, -1):
        np.subtract(cells[0::2], cells[1::2], out=out[2 ** (l - 1): 2 ** l])
        cells = cells[0::2] + cells[1::2]
    out[0] = cells[0]
    # out.T puts axis 0 last, where the amplitudes broadcast
    np.multiply(out.T, _tables(m)[0], out=out.T)
    return out


def _synthesis(coeffs, m):
    """Values of ``sum_j coeffs[j-1] Phi_j``, ``j = 1..2**m``, on the ``2**m`` finest cells.

    The inverse pyramid: per level, a cell's value ``v`` and its scaled
    wavelet coefficient ``d`` give ``v + d`` and ``v - d`` on its halves.
    """
    scaled = coeffs * _tables(m)[0]
    values = scaled[:1]
    for l in range(1, m + 1):
        detail = scaled[2 ** (l - 1): 2 ** l]
        halves = np.empty(2 ** l)
        np.add(values, detail, out=halves[0::2])
        np.subtract(values, detail, out=halves[1::2])
        values = halves
    return values


@dataclass(frozen=True)
class HaarCoefficients:
    """Coefficients of a function in the span of ``{Phi_1..Phi_{2**level}}``."""

    level: int
    values: np.ndarray

    def __post_init__(self):
        _check_level("level", self.level, 0)
        v = np.ascontiguousarray(self.values, dtype=float)
        if len(v) != 2 ** self.level:
            raise ValueError(
                f"level {self.level} needs {2 ** self.level} coefficients, got {len(v)}"
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def cell_values(self):
        """Values of the represented step function on the finest cells."""
        return _synthesis(self.values, self.level)

    def evaluate(self, x):
        """Pointwise evaluation on [0,1]; ``x = 1`` takes the left limit."""
        xa = np.asarray(x, dtype=float)
        if not np.all((xa >= 0.0) & (xa <= 1.0)):  # NaN fails both
            raise ValueError("evaluation points must lie in [0, 1]")
        n = 2 ** self.level
        idx = np.minimum((xa * n).astype(int), n - 1)
        out = self.cell_values()[idx]
        return float(out) if np.ndim(x) == 0 else out


def _gauss_cell_nodes(m, nodes_per_cell):
    # imported by its only user, so a run without Galerkin matrix or callable
    # project never loads it (sweep's set-up builds the Galerkin matrix)
    from numpy.polynomial.legendre import leggauss
    gx, gw = leggauss(nodes_per_cell)
    n = 2 ** m
    w = 1.0 / n
    t = (np.arange(n)[:, None] * w + (gx[None, :] + 1.0) * w / 2.0).ravel()
    tw = np.tile(gw * w / 2.0, n)
    return t, tw


def _check_grid(samples, n_cells):
    """Uniform-grid samples as a float array; raises unless they refine ``n_cells`` cells."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or len(samples) < 2:
        raise ValueError("samples must be a 1-d array of at least 2 values")
    if (len(samples) - 1) % n_cells != 0:
        raise ValueError(
            f"sample grid with {len(samples) - 1} subintervals does not refine the "
            f"grid of {n_cells} cells"
        )
    return samples


def _trapezoid_blocks(samples, n_cells):
    """Cut uniform-grid samples into the blocks of ``n_cells`` equal cells.

    Returns ``(blocks, h, w)``: ``blocks[i]`` holds the ``k + 1`` samples
    on cell ``i`` (end samples shared with the neighbours), ``h`` is the
    grid step and ``w`` the trapezoid weights, so that ``h * (blocks @ w)``
    integrates the samples over every cell. The grid must refine the cells.
    """
    samples = _check_grid(samples, n_cells)
    nsub = len(samples) - 1
    k = nsub // n_cells
    # Row i is samples[i*k : i*k + k + 1]: its first k values are row i of
    # samples[:-1] cut into rows of k, its last is the shared end sample.
    blocks = np.empty((n_cells, k + 1))
    blocks[:, :k] = samples[:-1].reshape(n_cells, k)
    blocks[:, k] = samples[k::k]
    w = np.ones(k + 1)
    w[0] = w[-1] = 0.5
    return blocks, 1.0 / nsub, w


def project(f, m):
    """Project a function or uniform-grid samples onto the level-``m`` span.

    Parameters
    ----------
    f : callable or array_like
        Either a function on [0,1] (vectorized over ndarray input), or
        samples on the uniform grid ``i/N, i = 0..N``. The sample grid
        must refine the level-``m`` dyadic grid (``N`` divisible by
        ``2**m``), otherwise a ``ValueError`` is raised.
    m : int
        Target level; the result is a :class:`HaarCoefficients` of
        length ``2**m``.

    Callable input is integrated per dyadic cell by 4-point
    Gauss-Legendre (exact for polynomials of degree <= 7 and for step
    functions aligned to the grid). Sampled input uses the composite
    trapezoid rule on each finest cell.
    """
    _check_level("level", m, 0)
    n = 2 ** m
    if callable(f):
        t, tw = _gauss_cell_nodes(m, 4)
        vals = np.asarray(f(t), dtype=float)
        cell_ints = (vals * tw).reshape(n, -1).sum(axis=1)
    else:
        blocks, h, w = _trapezoid_blocks(f, n)
        cell_ints = h * (blocks @ w)
    return HaarCoefficients(level=m, values=_analysis(cell_ints, m))
