"""Hot numeric kernels.

Each kernel exists twice: a numba ``@njit`` build and a pure-numpy fallback
with identical semantics. The active path is chosen at import time: numpy is
used when the environment variable ``IMPUTEBOUNDS_NO_NUMBA`` is set to a
non-empty value (or numba is unavailable), numba otherwise. Both builds stay
importable under ``_nb``/``_np`` suffixes for equivalence tests and for
``benchmarks/bench_kernels.py``.

Both kernels return integer positions, identical across paths.
"""

import os

import numpy as np

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    _HAVE_NUMBA = False

USE_NUMBA = _HAVE_NUMBA and not os.environ.get("IMPUTEBOUNDS_NO_NUMBA")


def using_numba():
    """True when the jitted kernel path is active."""
    return USE_NUMBA


# --- pure numpy builds -------------------------------------------------------

def sample_cells_np(cdf, u):
    """Map uniforms ``u`` to cell indices by inverse CDF; clamps the top edge."""
    idx = np.searchsorted(cdf, u, side="right")
    return np.minimum(idx, cdf.shape[0] - 1).astype(np.int64)


def draw_positions_np(cdf_rows, row_of, u):
    """Per-record inverse-CDF draw: record ``i`` uses row ``row_of[i]``.

    ``cdf_rows`` is a (strata, support) matrix of cumulative probabilities,
    short rows padded with 1.0. Returns the drawn support position per record.
    """
    picked = cdf_rows[row_of]
    idx = (picked <= u[:, None]).sum(axis=1)
    return np.minimum(idx, cdf_rows.shape[1] - 1).astype(np.int64)


# --- numba builds --------------------------------------------------------------

if _HAVE_NUMBA:

    @njit(cache=True)
    def sample_cells_nb(cdf, u):
        n = u.shape[0]
        top = cdf.shape[0] - 1
        out = np.empty(n, dtype=np.int64)
        for i in range(n):
            idx = np.searchsorted(cdf, u[i], side="right")
            out[i] = idx if idx < top else top
        return out

    @njit(cache=True)
    def draw_positions_nb(cdf_rows, row_of, u):
        n = u.shape[0]
        width = cdf_rows.shape[1]
        out = np.empty(n, dtype=np.int64)
        for i in range(n):
            row = row_of[i]
            ui = u[i]
            idx = 0
            while idx < width and cdf_rows[row, idx] <= ui:
                idx += 1
            out[i] = idx if idx < width else width - 1
        return out


if USE_NUMBA:
    sample_cells = sample_cells_nb
    draw_positions = draw_positions_nb
else:
    sample_cells = sample_cells_np
    draw_positions = draw_positions_np
