"""Kernel semantics: both kernels return integer positions inside the
support, clamp the top edge, and follow the distribution they invert."""

import numpy as np
import pytest

from imputebounds import _kernels as K


def rng():
    return np.random.Generator(np.random.Philox(key=[99, 0]))


def test_sample_cells_top_edge_clamped():
    cdf = np.array([0.5, 1.0 - 1e-12])
    u = np.array([0.999999999999, 0.0, 0.5])
    assert K.sample_cells(cdf, u).tolist() == [1, 0, 1]


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
