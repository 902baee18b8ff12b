"""Hot numeric kernels: inverse-CDF lookups in numpy.

Both kernels return integer positions. Callers look them up on this module
at call time (``_kernels.sample_cells(...)``), so a caller that wraps the
module attribute sees every call. :func:`draw_positions` inverts one
uniform per record, or a block of draws with one row of uniforms per
draw, in one call. It has two exact builds and picks one from the number
of uniforms of its call: a gather of whole CDF rows for calls with few
uniforms per CDF column, and a count one column at a time, which never
makes a (uniforms, support) matrix, for the rest.
"""

import numpy as np


#: uniforms per compared CDF column from which :func:`draw_positions` counts
#: column by column: at this many the column count was as fast as the
#: gather or faster at every support width from 3 to 200 (2-vCPU VM, numpy)
RECORDS_PER_COLUMN = 256


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
    short rows padded with 1.0. ``u`` has shape ``(..., len(row_of))``:
    record ``i`` of every row of a block of draws reads row ``row_of[i]``.
    Returns, in the shape of ``u``, the number of entries of each uniform's
    row that are ``<= u``, clamped to the last position.

    With fewer than :data:`RECORDS_PER_COLUMN` uniforms (``u.size``) per
    CDF column but the last, each record's whole row is gathered and
    compared at once. Otherwise the count runs one column at a time,
    gathering only that column for the records and comparing it with
    every draw of the block, and skips the last column: a pass per column
    costs a few numpy calls whatever its length, which only long calls
    amortise. Precondition of that build: each row is non-decreasing up to
    its 1.0 padding, and every ``u`` is below 1. Then the padding is never
    counted, and when the last column is at or below ``u`` so is every
    column before it, so skipping it gives the clamped count. The plan's
    rows are cumulative sums of non-negative probabilities (which rounding
    keeps non-decreasing, though the last entry may land just above 1.0)
    and its uniforms come from ``Generator.random``, so they meet it.
    """
    width = cdf_rows.shape[1]
    if u.size < RECORDS_PER_COLUMN * (width - 1):
        idx = (cdf_rows[row_of] <= u[..., None]).sum(axis=-1)
        return np.minimum(idx, width - 1).astype(np.int64)
    idx = np.zeros(u.shape, dtype=np.int64)
    for column in cdf_rows.T[:-1]:
        idx += column.take(row_of) <= u
    return idx
