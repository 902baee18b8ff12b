"""Metamorphic relations of the exact table layer. A reading that is a
functional of the empirical distribution of (y, x, w, z) cannot depend on
the order of the records or on how often the whole sample is repeated:
shuffling a table, or repeating each record k times, leaves it unchanged,
to 1e-12 where sums run in another order and exactly where only counts
enter. Nor can a reading depend on the order in which a role lists its
levels: selecting by the same labels after the levels are permuted and the
codes remapped gives the same readings."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imputebounds import (
    CategoricalDomain,
    CellSelector,
    Interval,
    ObservationTable,
    binary_bounds_closed_form,
    midpoint_estimate,
    mixture_conditional_mean,
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


def replicated(table, k):
    """``table`` with each record repeated ``k`` times."""
    return ObservationTable(table.outcome, table.x_domains, table.w_domains,
                            *(np.repeat(c, k) for c in (table.y, table.x, table.w)))


def relabeled(table, perm):
    """``table`` with numeric-looking labels ``"0"``, ``"1"``, ... on its
    last x role, listed in the order ``perm``, and its codes remapped so
    that every record keeps its label."""
    *rest, last = table.x_domains
    x_domains = (*rest, CategoricalDomain(last.name, tuple(str(p) for p in perm)))
    head, tail = np.divmod(table.x, last.size)
    x = head * last.size + np.argsort(perm)[tail]
    return ObservationTable(table.outcome, x_domains, table.w_domains, table.y, x, table.w)


def numeric_q(pop):
    """The population's true missing-covariate distribution, keyed by the
    numeric labels :func:`relabeled` gives its last x role."""
    last = pop.x_domains[-1]
    return {(y, (*x[:-1], str(last.code(x[-1])))): dict(dist)
            for (y, x), dist in true_covariate_model(pop).covariate_q.strata.items()}


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


def outcome_readings(table, sel, e_q):
    return [reading(f, table, sel, *args) for f, args in (
        (sample_interval, ()), (midpoint_estimate, ()), (q_mean_estimate, (e_q,)))]


def covariate_readings(table, q, cells):
    """The closed-form bounds at each cell, then the mixture estimate's
    cell mean at each cell."""
    readings = [reading(binary_bounds_closed_form, table, sel) for sel in cells]
    mixture = mixture_joint_estimate(table, q)
    return readings + [reading(mixture_conditional_mean, mixture, sel) for sel in cells]


def assert_same_counts(pop, table, other, sel):
    """The closed-form bounds at ``sel`` agree on ``table`` and ``other``,
    and so do the cells of their mixture estimates under the true q and,
    to 1e-12, their masses."""
    assert_same(reading(binary_bounds_closed_form, table, sel),
                reading(binary_bounds_closed_form, other, sel))
    q = true_covariate_model(pop).covariate_q
    mixture, mixture_other = (mixture_joint_estimate(t, q) for t in (table, other))
    for cells in ("outcome_values", "y_i", "x_i", "w_i", "z"):
        assert np.array_equal(getattr(mixture, cells), getattr(mixture_other, cells))
    np.testing.assert_allclose(mixture_other.mass, mixture.mass, rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.integers(1, 300), st.sampled_from([(0.0, 1.0), (-1.0, 0.5, 2.0)]),
       st.sampled_from("ab"), st.floats(0.0, 1.0))
def test_outcome_readings_ignore_record_order(seed, n, support, xi, share):
    pop = random_population(seed, outcome_values=support, x_sizes=(2,))
    table = sample_table(pop, n, seed)
    sel = CellSelector(xi)
    e_q = pop.outcome.lo + share * (pop.outcome.hi - pop.outcome.lo)
    for a, b in zip(outcome_readings(table, sel, e_q),
                    outcome_readings(shuffled(table, seed + 1), sel, e_q)):
        assert_same(a, b)


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.integers(1, 300), st.sampled_from("ab"), st.sampled_from("ab"))
def test_covariate_readings_ignore_record_order(seed, n, xi, omega):
    pop = random_population(seed, x_sizes=(2,), w_sizes=(2,), regime="covariate")
    table = sample_table(pop, n, seed)
    assert_same_counts(pop, table, shuffled(table, seed + 1), CellSelector(xi, omega))


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.integers(1, 200), st.sampled_from([(0.0, 1.0), (-1.0, 0.5, 2.0)]),
       st.sampled_from("ab"), st.floats(0.0, 1.0), st.sampled_from([2, 3]))
def test_outcome_readings_ignore_replication(seed, n, support, xi, share, k):
    pop = random_population(seed, outcome_values=support, x_sizes=(2,))
    table = sample_table(pop, n, seed)
    sel = CellSelector(xi)
    e_q = pop.outcome.lo + share * (pop.outcome.hi - pop.outcome.lo)
    for a, b in zip(outcome_readings(table, sel, e_q),
                    outcome_readings(replicated(table, k), sel, e_q)):
        assert_same(a, b)


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.integers(1, 200), st.sampled_from("ab"), st.sampled_from("ab"),
       st.sampled_from([2, 3]))
def test_covariate_readings_ignore_replication(seed, n, xi, omega, k):
    pop = random_population(seed, x_sizes=(2,), w_sizes=(2,), regime="covariate")
    table = sample_table(pop, n, seed)
    assert_same_counts(pop, table, replicated(table, k), CellSelector(xi, omega))


LEVELS = st.permutations(range(3))
#: a label of the relabeled role, as its text or as the number it reads as
LABELS = st.sampled_from(["0", "1", "2", 0, 1, 2])


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.integers(1, 200), st.sampled_from([(0.0, 1.0), (-1.0, 0.5, 2.0)]),
       LEVELS, st.sampled_from("ab"), LABELS, st.floats(0.0, 1.0))
def test_outcome_readings_ignore_level_order(seed, n, support, perm, first, label, share):
    pop = random_population(seed, outcome_values=support, x_sizes=(2, 3))
    table = relabeled(sample_table(pop, n, seed), range(3))
    sel = CellSelector((first, label))
    e_q = pop.outcome.lo + share * (pop.outcome.hi - pop.outcome.lo)
    for a, b in zip(outcome_readings(table, sel, e_q),
                    outcome_readings(relabeled(table, perm), sel, e_q)):
        assert_same(a, b)


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.integers(1, 200), LEVELS, st.sampled_from("ab"))
def test_covariate_readings_ignore_level_order(seed, n, perm, first):
    pop = random_population(seed, x_sizes=(2, 3), w_sizes=(2,), regime="covariate")
    sampled = sample_table(pop, n, seed)
    table, other = relabeled(sampled, range(3)), relabeled(sampled, perm)
    cells = [CellSelector((first, label), omega) for label in ("0", 1, "2") for omega in "ab"]
    q = numeric_q(pop)
    for a, b in zip(covariate_readings(table, q, cells), covariate_readings(other, q, cells)):
        assert_same(a, b)
