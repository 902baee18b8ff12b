"""Hot numeric kernels: inverse-CDF lookups in numpy.

Both kernels return integer positions. Callers look them up on this module
at call time (``_kernels.sample_cells(...)``), so a caller that wraps the
module attribute sees every call.

:func:`sample_cells` inverts one CDF row for many uniforms with an exact
guide-table search (Chen and Asau 1974; Devroye 1986, section III.2.4):
it splits [0, 1) into a power-of-two number of equal buckets, starts each
uniform at the number of CDF entries at or below its bucket's lower edge,
and steps up the few entries inside the bucket. It returns the same
integers as ``np.searchsorted(cdf, u, side="right")`` clamped to the last
cell, for a non-decreasing ``cdf`` and every ``u`` in [0, 1).

:func:`draw_positions` inverts one uniform per record, or a block of draws
with one row of uniforms per draw, in one call. It has two exact builds
and picks one from the number of uniforms of its call: a gather of whole
CDF rows for calls with few uniforms per CDF column, and a count one
column at a time, which never makes a (uniforms, support) matrix, for the
rest. The gather's matrix is capped at :data:`GATHER_CELLS` comparisons, so
a call's memory stays bounded however many records and values it has.
"""

import numpy as np


#: uniforms per compared CDF column from which :func:`draw_positions` counts
#: column by column: at this many the column count was as fast as the
#: gather or faster at every support width from 3 to 200 (2-vCPU VM, numpy)
RECORDS_PER_COLUMN = 256

#: most (uniform, CDF entry) pairs the gather build of :func:`draw_positions`
#: compares in one call, 9 bytes each: from about 5e6 pairs up the column
#: count was as fast or faster (2-vCPU VM, numpy)
GATHER_CELLS = 2**22

#: least number of guide-table buckets in :func:`sample_cells`; above it
#: the count is the smallest power of two at or above twice the cells
GUIDE_MIN_BUCKETS = 16

#: most search steps :func:`sample_cells` takes for every uniform before it
#: binary-searches the few still unsettled
GUIDE_STEPS = 4


def using_numba():
    """Always False: the kernels have one build, in numpy."""
    return False


def sample_cells(cdf, u):
    """Cell index of each uniform in ``u`` by inverse CDF: the number of
    entries of ``cdf`` at or below it, clamped to the last cell (int64).

    Precondition: ``cdf`` is non-decreasing and every ``u`` lies in
    [0, 1). ``B`` buckets, B a power of two so that ``u * B`` and
    ``k / B`` are exact, hold ``guide[k]``, the number of entries at or
    below ``k / B``. A lookup starts at ``guide[floor(u * B)]``, which is
    never past its answer, and steps ``idx += cdf[idx] <= u`` (the CDF
    padded with +inf) once per entry inside the fullest bucket. Zero-mass
    cells repeat a CDF entry and so crowd one bucket whatever B is: after
    :data:`GUIDE_STEPS` steps the records that could still step are
    resolved by a binary search of their own.
    """
    cells = cdf.shape[0]
    buckets = max(GUIDE_MIN_BUCKETS, 1 << (2 * cells - 1).bit_length())
    guide = np.searchsorted(cdf, np.arange(buckets + 1) / buckets, side="right")
    fullest = int(np.diff(guide).max())
    padded = np.append(cdf, np.inf)
    idx = guide.take((u * buckets).astype(np.intp))
    for _ in range(min(fullest, GUIDE_STEPS)):
        idx += padded.take(idx) <= u
    if fullest > GUIDE_STEPS:
        unsettled = np.flatnonzero(padded.take(idx) <= u)
        idx[unsettled] = np.searchsorted(cdf, u.take(unsettled), side="right")
    return np.minimum(idx, cells - 1).astype(np.int64, copy=False)


def draw_positions(cdf_rows, row_of, u):
    """Per-record inverse-CDF draw: record ``i`` uses row ``row_of[i]``.

    ``cdf_rows`` is a (strata, support) matrix of cumulative probabilities,
    short rows padded with 1.0. ``u`` has shape ``(..., len(row_of))``:
    record ``i`` of every row of a block of draws reads row ``row_of[i]``.
    Returns, in the shape of ``u``, the number of entries of each uniform's
    row that are ``<= u``, clamped to the last position.

    With fewer than :data:`RECORDS_PER_COLUMN` uniforms (``u.size``) per
    CDF column but the last, and at most :data:`GATHER_CELLS` pairs of a
    uniform and a CDF entry, each record's whole row is gathered and
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
    if u.size < RECORDS_PER_COLUMN * (width - 1) and u.size * width <= GATHER_CELLS:
        idx = (cdf_rows[row_of] <= u[..., None]).sum(axis=-1)
        return np.minimum(idx, width - 1).astype(np.int64)
    idx = np.zeros(u.shape, dtype=np.int64)
    for column in cdf_rows.T[:-1]:
        idx += column.take(row_of) <= u
    return idx
