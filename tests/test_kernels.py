"""Kernel semantics on the numpy builds, which always run, and agreement of
the jitted builds with them where numba is installed: both kernels return
integer positions, which must match exactly."""

import numpy as np
import pytest

from imputebounds import _kernels as K

needs_numba = pytest.mark.skipif(
    not K._HAVE_NUMBA, reason="numba unavailable; single path only")


def rng():
    return np.random.Generator(np.random.Philox(key=[99, 0]))


def builds(name):
    """The numpy build of kernel ``name``, and the numba one when present."""
    suffixes = ("_np", "_nb") if K._HAVE_NUMBA else ("_np",)
    return [pytest.param(getattr(K, name + s), id=name + s) for s in suffixes]


@needs_numba
def test_sample_cells_paths_agree():
    g = rng()
    masses = g.random(37)
    cdf = np.cumsum(masses / masses.sum())
    u = g.random(5000)
    a = K.sample_cells_np(cdf, u)
    b = K.sample_cells_nb(cdf, u)
    assert np.array_equal(a, b)
    assert a.min() >= 0 and a.max() < len(cdf)


@pytest.mark.parametrize("fn", builds("sample_cells"))
def test_sample_cells_top_edge_clamped(fn):
    cdf = np.array([0.5, 1.0 - 1e-12])
    u = np.array([0.999999999999, 0.0, 0.5])
    assert fn(cdf, u).tolist() == [1, 0, 1]


@needs_numba
def test_draw_positions_paths_agree():
    g = rng()
    rows = 8
    width = 5
    cdf_rows = np.ones((rows, width))
    for r in range(rows):
        k = 1 + r % width
        probs = g.random(k)
        cdf_rows[r, :k] = np.cumsum(probs / probs.sum())
    row_of = g.integers(0, rows, size=4000)
    u = g.random(4000)
    a = K.draw_positions_np(cdf_rows, row_of, u)
    b = K.draw_positions_nb(cdf_rows, row_of, u)
    assert np.array_equal(a, b)
    assert a.min() >= 0 and a.max() < width


@pytest.mark.parametrize("fn", builds("draw_positions"))
def test_draw_positions_top_edge_clamped(fn):
    # a rounded-down last CDF entry below u must not step past the row
    cdf_rows = np.array([[0.5, 1.0 - 1e-12, 1.0], [0.25, 0.5, 1.0 - 1e-12]])
    row_of = np.array([0, 1, 1])
    u = np.array([0.9999999999999, 0.9999999999999, 0.3])
    assert fn(cdf_rows, row_of, u).tolist() == [2, 2, 1]


@pytest.mark.parametrize("fn", builds("draw_positions"))
def test_draw_positions_respects_distribution(fn):
    cdf_rows = np.array([[0.25, 1.0, 1.0], [0.5, 0.75, 1.0]])
    row_of = np.zeros(20000, dtype=np.int64)
    row_of[10000:] = 1
    u = rng().random(20000)
    pos = fn(cdf_rows, row_of, u)
    freq0 = np.bincount(pos[:10000], minlength=3) / 10000
    freq1 = np.bincount(pos[10000:], minlength=3) / 10000
    assert freq0 == pytest.approx([0.25, 0.75, 0.0], abs=0.02)
    assert freq1 == pytest.approx([0.5, 0.25, 0.25], abs=0.02)
