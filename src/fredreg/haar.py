"""Haar orthonormal basis on [0,1].

The basis is indexed ``j = 1..2**m`` for the span of dimension ``2**m``:
``Phi_1 = 1`` and, for ``j = 2**(l-1) + p`` with level ``l >= 1`` and
offset ``1 <= p <= 2**(l-1)``,

    Phi_j =  2**((l-1)/2)   on [ (p-1)/2**(l-1), (p-1/2)/2**(l-1) )
            -2**((l-1)/2)   on [ (p-1/2)/2**(l-1), p/2**(l-1) )
             0              elsewhere.

All supports are right-open; the point ``x = 1`` is evaluated by its
left limit so that evaluation is defined on the closed interval.

The module provides the closed-form inner products of the basis against
exponentials ``exp(-c*t)`` and their ``t``-weighted variant, always
filled together as one pair by :func:`exp_haar_matrix` (every
:func:`exp_t_haar_matrix` call is one such fill, its ``[1]`` copied
out), the pyramid transform between the basis and the finest cells,
projection onto the span and one evaluator, :func:`evaluate`. Coefficients are
plain float64 arrays whose length ``2**m`` gives their level; the spans
nest, so zero-padding embeds a coarser vector exactly, and ``Phi_j`` is
``evaluate(e_j, x)`` for the unit vector ``e_j`` of any length
``2**m >= j``. Callable projection, which may be vector-valued,
integrates each cell by an 8-point Gauss-Legendre rule held as
constants; the Galerkin matrix is that projection of the slice moments.
A moment fill of more than one block runs half its rows on one helper
thread, joined before it returns; all else runs on the calling thread.
"""

import threading
from functools import lru_cache, partial

import numpy as np

# Rates below this floor are taken as 0, which moves no entry by more than
# about 1e-100 of its row's largest; above it no factor of the closed forms
# underflows at any level whose matrices fit in memory.
_ZERO_RATE = 1e-100
# Below this rate column 0 of the t-weighted moment is its truncated
# series, where the closed form cancels.
_SMALL_C_MOMENT = 1e-3
# Entries per block of the whole-row wavelet fill. Each half of a fill holds
# one block's -c*mid and exp(-c*mid), 2 x 192 KiB; 32768 entries filled no
# faster and raised a level-8 fill's temporaries from 1.4 to 1.7 MiB.
_FILL_ENTRIES = 24576
# Above this rate expm1(c) overflows (and sinh(c*h/2)**2 from about twice
# it), so the moment formulas would give NaN.
_MAX_RATE = float(np.log(np.finfo(float).max))


def _check_level(name, value, minimum):
    """Reject a level, count or seed that is not an integer ``>= minimum``.

    A bool is not an integer here. Raises ``ValueError``, which the
    command line reports as a configuration error (exit 2).
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


@lru_cache(maxsize=None)
def _tables(m):
    """Per-index arrays (amplitude, support midpoint) for j = 1..2**m.

    Entry 0 (j = 1) describes the constant function; its midpoint is that
    of the full interval and is not used by the fast paths.
    """
    n = 2 ** m
    amp, mid = np.ones(n), np.full(n, 0.5)
    for l in range(1, m + 1):
        # j = k + p for offsets p = 1..k share the support width 1/k; every
        # midpoint (p - 1/2)/k is an exact dyadic number
        k = 2 ** (l - 1)
        amp[k : 2 * k] = 2.0 ** ((l - 1) / 2.0)
        mid[k : 2 * k] = np.arange(k) * (1.0 / k) + 0.5 / k
    for a in (amp, mid):
        a.setflags(write=False)
    return amp, mid


def evaluate(coeffs, x):
    """Evaluate ``sum_j coeffs[j-1] Phi_j`` at points ``x`` in [0,1].

    ``coeffs`` is a non-empty 1-d array whose length ``2**m`` gives the
    level; any other shape raises ``ValueError``, as do points outside
    [0,1] or NaN. ``x = 1`` takes the left limit. Returns a float for
    scalar input, else an ndarray.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    n = len(coeffs) if coeffs.ndim == 1 else 0
    if n == 0 or n & (n - 1):
        raise ValueError(
            f"coefficients must be a 1-d array of length 2**m, got shape {coeffs.shape}"
        )
    xa = np.asarray(x, dtype=float)
    if not np.all((xa >= 0.0) & (xa <= 1.0)):  # NaN fails both
        raise ValueError("evaluation points must lie in [0, 1]")
    idx = np.minimum((xa * n).astype(int), n - 1)
    out = _synthesis(coeffs, n.bit_length() - 1)[idx]
    return float(out) if np.ndim(x) == 0 else out


# ---------------------------------------------------------------------------
# inner products against exponentials
# ---------------------------------------------------------------------------

def _rates(c, name="decay rates"):
    """Checked rates as ``(zero, cs)``: the mask of the rates below ``_ZERO_RATE``,
    taken as 0, and the rates with 1 in their place, so no formula divides by 0.
    A refusal calls the rates ``name``, the caller's name for its argument."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if c.ndim != 1:
        raise ValueError(f"{name} must be a scalar or a 1-d array, got shape {c.shape}")
    if np.any(c < 0) or not np.all(np.isfinite(c)):
        raise ValueError(f"{name} must be finite and >= 0")
    if np.any(c > _MAX_RATE):
        raise ValueError(f"{name} must be <= log(float max) = {_MAX_RATE}")
    zero = c < _ZERO_RATE
    return zero, np.where(zero, 1.0, c)


# Column j = 1 over every rate, then its c = 0 limit over the zero rates;
# the t-weighted one writes its truncated series over the small rates
def _column0_exp(zero, cs):
    col = -np.expm1(-cs) / cs
    col[zero] = 1.0
    return col


def _column0_exp_t(zero, cs):
    col = np.exp(-cs) * (np.expm1(cs) - cs) / cs ** 2
    small = cs < _SMALL_C_MOMENT
    t = cs[small]
    col[small] = 0.5 - t / 3.0 + t ** 2 / 8.0 - t ** 3 / 30.0 + t ** 4 / 144.0 - t ** 5 / 840.0
    col[zero] = 0.5
    return col


def exp_haar_matrix(c, m):
    """Moments of ``exp(-c_k t)`` and ``t exp(-c_k t)`` against ``Phi_j``, ``j = 1..2**m``.

    Parameters
    ----------
    c : float or 1-d array_like
        Decay rates in ``[0, log(float max) ~ 709.78]``, one per row.
    m : int
        Span level.

    Returns
    -------
    ndarray
        One new ``(2, len(c), 2**m)`` array: ``E``, the matrix of
        ``int_0^1 exp(-c_k t) Phi_j(t) dt``, in ``[0]``, and the t-weighted
        ``E_t`` of :func:`exp_t_haar_matrix` in ``[1]``.

    Every entry is one closed form. The wavelet columns of ``E`` use the
    cancellation-free ``((A/c) * exp(-c*mid) * 4) * sinh(c*h/2)**2``
    (``A`` the amplitude, ``h`` the piece width); its column ``j = 1`` is
    ``-expm1(-c)/c``. A rate below ``1e-100`` is taken as 0, and the
    ``c = 0`` row is written from the limits: 1 in column 0 of ``E`` and 0
    in its wavelet columns (``E_t``: 1/2 and ``-A*h*h``).

    The wavelet columns are filled in blocks of whole rows (24 576
    entries), the first half of the blocks here and the rest on one helper
    thread, always joined, whose exception is raised here; one block
    starts no thread. Each block writes its products straight into the
    result, with ``exp`` once per entry and each factor of the row and
    level, ``4*sinh(c*h/2)**2`` among them, once. Scaling by 4 is exact
    and no factor exceeds about 1e154, so both matrices are bit-identical
    to their elementwise formulas. Peak memory is the result plus under
    2 MiB of temporaries (per half one block's ``-c*mid`` and ``exp(-c*mid)``).
    """
    zero, cs = _rates(c)
    _check_level("level", m, 0)
    n = len(cs)
    pair = np.empty((2, n, 2 ** m))
    out, out_t = pair
    if m:
        amp, mid = _tables(m)
        counts = 2 ** np.arange(m)  # wavelet level l has 2**(l-1) columns, from column 2**(l-1)
        A, H = amp[counts], 0.5 / counts  # H: the piece width of level l, an exact dyadic number
        level = np.repeat(np.arange(m), np.maximum(counts, 2))  # level 1 also spans column 0
        step = max(1, _FILL_ENTRIES // 2 ** m)  # rows per block
        fill = partial(_fill_rows, pair, cs, mid, A, H, level, step)
        half = (-(-n // step) + 1) // 2 * step
        if half >= n:
            fill(slice(0, n))
        else:
            errors = []

            def helper():
                try:
                    fill(slice(half, n))
                except BaseException as exc:
                    errors.append(exc)

            thread = threading.Thread(target=helper)
            thread.start()
            try:
                fill(slice(0, half))
            finally:
                thread.join()
            if errors:
                raise errors[0]
        # the blocks took the zero rates as 1: their rows get the c = 0 limits
        out[zero, 1:] = 0.0
        out_t[zero, 1:] = (-A * H * H)[level[1:]]
    out[:, 0] = _column0_exp(zero, cs)
    out_t[:, 0] = _column0_exp_t(zero, cs)
    return pair


def _fill_rows(pair, cs, mid, A, H, level, step, rows):
    """Write the wavelet columns of both matrices of ``pair[:, rows]`` in blocks
    of ``step`` whole rows; ``A`` and ``H`` hold each level's amplitude and piece
    width, ``level`` each column's level. Column 0 gets level 1's values."""
    scratch = np.empty((2, min(step, rows.stop - rows.start), len(mid)))
    for r0 in range(rows.start, rows.stop, step):
        r = slice(r0, min(r0 + step, rows.stop))
        x, e = scratch[:, : r.stop - r0]
        o, Cr = pair[0, r], cs[r, None]
        CH = Cr * H
        np.multiply(-Cr, mid, out=x)  # -(c * mid), exactly
        np.exp(x, out=e)
        o_t = np.subtract(1.0, x, out=pair[1, r])  # c * mid + 1.0, exactly
        # each factor of the row and level goes to every column of its level
        np.take(A / Cr, level, axis=1, out=o, mode="clip")
        o *= e
        np.take(4.0 * np.sinh(CH / 2.0) ** 2, level, axis=1, out=x, mode="clip")
        o *= x
        o_t *= x
        np.take(2.0 * CH * np.sinh(CH), level, axis=1, out=x, mode="clip")
        o_t -= x
        np.take(A / Cr ** 2, level, axis=1, out=x, mode="clip")
        e *= x
        o_t *= e


def exp_t_haar_matrix(c, m):
    """Matrix of ``int_0^1 t exp(-c_k t) Phi_j(t) dt``, shape ``(len(c), 2**m)``.

    The t-weighted moment that appears in the first-order Taylor
    replacement of the adjoint: ``[1]`` of one :func:`exp_haar_matrix`
    fill, copied out into a new C-contiguous array, so its rates, level,
    refusals and bits are those of the fill. The wavelet columns are
    ``((A/c**2) * exp(-c*mid)) * bracket`` with
    ``bracket = ((c*mid + 1) * 4) * sinh(c*h/2)**2 - 2*c*h*sinh(c*h)``,
    bit-identical to the formula. Column ``j = 1`` is
    ``exp(-c) * (expm1(c) - c) / c**2``, and below ``c = 1e-3``, where that
    cancels, its series to ``c**5``. The whole pair is alive until the
    copy is made.
    """
    return exp_haar_matrix(c, m)[1].copy()


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


# The positive half (nodes, weights) of the 8-point Gauss-Legendre rule on
# [-1, 1], written as the repr of numpy.polynomial.legendre.leggauss(8)'s
# output: callable project mirrors it, so no run loads numpy.polynomial
# (nine modules, about 1 MB) and no output depends on the installed numpy.
# tests/test_haar.py::test_constant_rules_are_gauss_legendre checks it
# against the rule's definition and leggauss.
_GAUSS_LEGENDRE_HALF = (
    (0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362),
    (0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706),
)


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
        Target level; the result is a new read-only float64 array of
        the ``2**m`` coefficients.

    Callable input is integrated per dyadic cell by 8-point
    Gauss-Legendre (exact for polynomials of degree <= 15 and for step
    functions aligned to the grid). ``f(t)`` may be vector-valued,
    returning shape ``(len(t), ...)``; the result then has shape
    ``(2**m, ...)``, each trailing index projected on its own. Sampled
    input uses the composite trapezoid rule on each finest cell.
    """
    _check_level("level", m, 0)
    n = 2 ** m
    if callable(f):
        # leggauss antisymmetrizes its nodes and symmetrizes its weights,
        # so the mirrored half is bit-identical to its output
        half_x, half_w = (np.array(v) for v in _GAUSS_LEGENDRE_HALF)
        gx = np.concatenate((-half_x[::-1], half_x))
        gw = np.concatenate((half_w[::-1], half_w))
        w = 1.0 / n
        t = (np.arange(n)[:, None] * w + (gx[None, :] + 1.0) * w / 2.0).ravel()
        tw = np.tile(gw * w / 2.0, n)
        vals = np.asarray(f(t), dtype=float)
        tw = tw.reshape((-1,) + (1,) * (vals.ndim - 1))  # broadcast along axis 0
        cell_ints = (tw * vals).reshape((n, 8) + vals.shape[1:]).sum(axis=1)
    else:
        blocks, h, w = _trapezoid_blocks(f, n)
        cell_ints = h * (blocks @ w)
    coeffs = _analysis(cell_ints, m)
    coeffs.setflags(write=False)
    return coeffs
