"""Kernel semantics: both kernels return integer positions inside the
support, clamp the top edge, and follow the distribution they invert."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from imputebounds import _kernels as K


def rng():
    return np.random.Generator(np.random.Philox(key=[99, 0]))


def test_sample_cells_top_edge_clamped():
    cdf = np.array([0.5, 1.0 - 1e-12])
    u = np.array([0.999999999999, 0.0, 0.5])
    assert K.sample_cells(cdf, u).tolist() == [1, 0, 1]


def binary_search_cells(cdf, u):
    """The reference lookup: a binary search of the CDF, clamped."""
    idx = np.searchsorted(cdf, u, side="right")
    return np.minimum(idx, len(cdf) - 1).astype(np.int64)


@st.composite
def population_cdfs(draw):
    """Masses as populations hold them: runs of zero-mass cells, at times
    one dominant cell or a single cell, cumulated and normalised by the
    last entry (trailing zero masses repeat 1.0), and at times scaled so
    the last entry lies just below 1.0."""
    masses = draw(st.lists(st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.0, 0.25]),
                           min_size=1, max_size=300))
    masses[draw(st.integers(0, len(masses) - 1))] += draw(
        st.sampled_from([1.0, 1e3, 1e9]))
    scale = draw(st.sampled_from([1.0, 1.0 - 2**-52, 1.0 - 1e-12]))
    return masses, scale


@settings(max_examples=300, deadline=None)
@given(population_cdfs(), st.integers(0, 2**32 - 1))
@example(([1e9] + [1.0] * 20 + [0.0] * 3, 1.0), 0)
def test_sample_cells_equals_the_binary_search(masses_scale, seed):
    """Uniforms from ``Generator.random``, plus 0, every CDF entry below 1
    and its two float neighbours, and the largest double below 1. The
    example crowds 20 entries into the top bucket, more than the
    :data:`GUIDE_STEPS` every uniform takes."""
    masses, scale = masses_scale
    cdf = np.cumsum(masses)
    cdf = cdf / cdf[-1] * scale
    entries = cdf[cdf < 1.0]
    u = np.concatenate([
        np.random.Generator(np.random.Philox(key=[seed, 2])).random(64),
        [0.0, 1.0 - 2**-53], entries,
        np.nextafter(entries, 0.0), np.nextafter(entries, 1.0)])
    u = u[(u >= 0.0) & (u < 1.0)]
    pos = K.sample_cells(cdf, u)
    assert pos.dtype == np.int64
    assert pos.tolist() == binary_search_cells(cdf, u).tolist()
    empty = K.sample_cells(cdf, np.empty(0))
    assert empty.dtype == np.int64 and empty.shape == (0,)


def test_draw_positions_top_edge_clamped():
    # a rounded-down last CDF entry below u must not step past the row
    cdf_rows = np.array([[0.5, 1.0 - 1e-12, 1.0], [0.25, 0.5, 1.0 - 1e-12]])
    row_of = np.array([0, 1, 1])
    u = np.array([0.9999999999999, 0.9999999999999, 0.3])
    assert K.draw_positions(cdf_rows, row_of, u).tolist() == [2, 2, 1]


def test_draw_positions_respects_distribution():
    cdf_rows = np.array([[0.25, 1.0, 1.0], [0.5, 0.75, 1.0]])
    row_of = np.zeros(20000, dtype=np.int64)
    row_of[10000:] = 1
    u = rng().random(20000)
    pos = K.draw_positions(cdf_rows, row_of, u)
    freq0 = np.bincount(pos[:10000], minlength=3) / 10000
    freq1 = np.bincount(pos[10000:], minlength=3) / 10000
    assert freq0 == pytest.approx([0.25, 0.75, 0.0], abs=0.02)
    assert freq1 == pytest.approx([0.5, 0.25, 0.25], abs=0.02)


def gather_draw_positions(cdf_rows, row_of, u):
    """The reference build: gather every record's whole CDF row, count the
    entries at or below its uniform, clamp to the last position."""
    picked = cdf_rows[row_of]
    idx = (picked <= u[:, None]).sum(axis=1)
    return np.minimum(idx, cdf_rows.shape[1] - 1).astype(np.int64)


@st.composite
def plan_cdf_rows(draw):
    """CDF rows as an imputation plan builds them: per stratum, the cumsum
    of non-negative probabilities (zero atoms repeat an entry), scaled so
    the last entry may round below or above 1.0 as an explicit model's
    tolerated sum does, and padded with 1.0 to the widest stratum."""
    width = draw(st.integers(1, 8))
    rows = np.ones((draw(st.integers(1, 4)), width))
    for row in rows:
        size = draw(st.integers(1, width))
        weights = np.array(draw(st.lists(st.integers(0, 3), min_size=size, max_size=size)),
                           dtype=float)
        weights[draw(st.integers(0, size - 1))] += 1
        scale = draw(st.sampled_from([1.0, 1 - 2**-52, 1 + 2**-51, 1 - 1e-10, 1 + 1e-10]))
        row[:size] = np.cumsum(weights / weights.sum() * scale)
    return rows


@settings(max_examples=300, deadline=None)
@given(plan_cdf_rows(), st.sampled_from([16, 2048]), st.integers(0, 2**32 - 1))
def test_draw_positions_equals_the_gather_build(cdf_rows, records, seed):
    """Uniforms from ``Generator.random``, plus 0 and every CDF entry below
    1 (a uniform equal to an entry counts that entry), on every row. Calls
    with 16 random records take the gather build at every width above 1,
    and calls with 2048 the column count at every width."""
    generator = np.random.Generator(np.random.Philox(key=[seed, 0]))
    special = np.unique(np.append(cdf_rows[cdf_rows < 1.0], 0.0))
    u = np.concatenate([generator.random(records), np.tile(special, len(cdf_rows))])
    row_of = np.concatenate([generator.integers(0, len(cdf_rows), records),
                             np.repeat(np.arange(len(cdf_rows)), len(special))])
    pos = K.draw_positions(cdf_rows, row_of, u)
    assert pos.dtype == np.int64
    assert pos.tolist() == gather_draw_positions(cdf_rows, row_of, u).tolist()


def test_draw_positions_above_the_gather_cap_equals_the_gather_build():
    """A call with few uniforms per CDF column but more than
    :data:`GATHER_CELLS` (uniform, CDF entry) pairs counts one column at a
    time: it gives the gather's positions without the gather's matrix."""
    width, records = 1000, 5000
    assert records < K.RECORDS_PER_COLUMN * (width - 1)
    assert records * width > K.GATHER_CELLS
    generator = rng()
    weights = generator.random((2, width))
    weights[1, width // 2:] = 0.0
    cdf_rows = np.cumsum(weights / weights.sum(axis=1, keepdims=True), axis=1)
    row_of = generator.integers(0, 2, records)
    u = np.append(generator.random(records - 2), cdf_rows[:, width // 3])
    tracemalloc.start()
    try:
        pos = K.draw_positions(cdf_rows, row_of, u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < records * width
    assert pos.tolist() == gather_draw_positions(cdf_rows, row_of, u).tolist()


@settings(max_examples=300, deadline=None)
@given(plan_cdf_rows(), st.sampled_from([2, 700]), st.integers(0, 2**32 - 1))
def test_draw_positions_on_a_block_equals_the_flat_call(cdf_rows, draws, seed):
    """A ``(draws, records)`` block of uniforms, record ``i`` of every draw
    on row ``row_of[i]``, gives the 1-D call on the tiled rows and the
    flattened block, reshaped. Each draw has 3 random records plus 0 and
    every CDF entry below 1 on every row, at most ``16 * width + 7``
    records, so blocks of 2 draws hold fewer than
    :data:`RECORDS_PER_COLUMN` uniforms per compared column and take the
    gather at every width above 1, and blocks of 700 hold more and take
    the column count at every width."""
    generator = np.random.Generator(np.random.Philox(key=[seed, 1]))
    special = np.unique(np.append(cdf_rows[cdf_rows < 1.0], 0.0))
    row_of = np.concatenate([generator.integers(0, len(cdf_rows), 3),
                             np.repeat(np.arange(len(cdf_rows)), len(special))])
    u = np.tile(np.tile(special, len(cdf_rows)), (draws, 1))
    u = np.concatenate([generator.random((draws, 3)), u], axis=1)
    pos = K.draw_positions(cdf_rows, row_of, u)
    flat = K.draw_positions(cdf_rows, np.tile(row_of, draws), u.ravel())
    assert pos.dtype == np.int64 and pos.shape == u.shape
    assert pos.tolist() == flat.reshape(u.shape).tolist()
