"""Metamorphic relations of the exact table layer. A reading that is a
functional of the empirical distribution of (y, x, w, z) cannot depend on
the order of the records: shuffling a table leaves it unchanged, to 1e-12
where sums run in another order and exactly where only counts enter."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imputebounds import (
    CellSelector,
    Interval,
    ObservationTable,
    binary_bounds_closed_form,
    midpoint_estimate,
    mixture_joint_estimate,
    q_mean_estimate,
    random_population,
    sample_interval,
    sample_table,
    true_covariate_model,
)
from imputebounds.errors import GuardError

SEEDS = st.integers(0, 2**32 - 1)


def shuffled(table, seed):
    """``table`` with its records in a seeded random order."""
    order = np.random.default_rng(seed).permutation(table.n)
    return ObservationTable(table.outcome, table.x_domains, table.w_domains,
                            table.y[order], table.x[order], table.w[order])


def reading(f, *args):
    """``f(*args)`` as a tuple of floats, or the type of the guard error it
    raises (an x level the sample missed is an empty cell either way)."""
    try:
        value = f(*args)
    except GuardError as e:
        return type(e)
    return (value.lo, value.hi) if isinstance(value, Interval) else (value,)


def assert_same(a, b):
    if isinstance(a, type):
        assert a is b
    else:
        assert b == pytest.approx(a, rel=0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.integers(1, 300), st.sampled_from([(0.0, 1.0), (-1.0, 0.5, 2.0)]),
       st.sampled_from("ab"), st.floats(0.0, 1.0))
def test_outcome_readings_ignore_record_order(seed, n, support, xi, share):
    pop = random_population(seed, outcome_values=support, x_sizes=(2,))
    table = sample_table(pop, n, seed)
    other = shuffled(table, seed + 1)
    sel = CellSelector(xi)
    e_q = pop.outcome.lo + share * (pop.outcome.hi - pop.outcome.lo)
    for f, args in ((sample_interval, ()), (midpoint_estimate, ()),
                    (q_mean_estimate, (e_q,))):
        assert_same(reading(f, table, sel, *args), reading(f, other, sel, *args))


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.integers(1, 300), st.sampled_from("ab"), st.sampled_from("ab"))
def test_covariate_readings_ignore_record_order(seed, n, xi, omega):
    pop = random_population(seed, x_sizes=(2,), w_sizes=(2,), regime="covariate")
    table = sample_table(pop, n, seed)
    other = shuffled(table, seed + 1)
    sel = CellSelector(xi, omega)
    assert_same(reading(binary_bounds_closed_form, table, sel),
                reading(binary_bounds_closed_form, other, sel))
    q = true_covariate_model(pop).covariate_q
    mixture, mixture_other = (mixture_joint_estimate(t, q) for t in (table, other))
    for cells in ("outcome_values", "y_i", "x_i", "w_i", "z"):
        assert np.array_equal(getattr(mixture, cells), getattr(mixture_other, cells))
    np.testing.assert_allclose(mixture_other.mass, mixture.mass, rtol=0, atol=1e-12)
