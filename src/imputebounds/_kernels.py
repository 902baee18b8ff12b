"""Hot numeric kernels: inverse-CDF lookups in numpy.

Both kernels return integer positions. Callers look them up on this module
at call time (``_kernels.sample_cells(...)``), so a caller that wraps the
module attribute sees every call.
"""

import numpy as np


def using_numba():
    """Always False: the kernels have one build, in numpy."""
    return False


def sample_cells(cdf, u):
    """Map uniforms ``u`` to cell indices by inverse CDF; clamps the top edge."""
    idx = np.searchsorted(cdf, u, side="right")
    return np.minimum(idx, cdf.shape[0] - 1).astype(np.int64)


def draw_positions(cdf_rows, row_of, u):
    """Per-record inverse-CDF draw: record ``i`` uses row ``row_of[i]``.

    ``cdf_rows`` is a (strata, support) matrix of cumulative probabilities,
    short rows padded with 1.0. Returns the drawn support position per record.
    """
    picked = cdf_rows[row_of]
    idx = (picked <= u[:, None]).sum(axis=1)
    return np.minimum(idx, cdf_rows.shape[1] - 1).astype(np.int64)
