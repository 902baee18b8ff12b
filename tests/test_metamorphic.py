"""Metamorphic relations of the exact table layer. A reading that is a
functional of the empirical distribution of (y, x, w, z) cannot depend on
the order of the records or on how often the whole sample is repeated:
shuffling a table, or repeating each record k times, leaves it unchanged,
to 1e-12 where sums run in another order and exactly where only counts
enter. Nor can a reading depend on the order in which an x or w role lists
its levels: selecting by the same labels after the levels are permuted and
the codes remapped gives the same readings. And a reading of a real
outcome follows an increasing affine map ``y -> a + b * y`` of the outcome
and its domain, to 1e-12 of the mapped values' magnitude. The CLI keeps
the first two relations: a CSV with its rows shuffled, or read with each
role's declared levels reversed, gives the same ``bounds`` report and the
same ``estimate`` readings but the pooled draws, which follow record
order."""

import contextlib
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imputebounds import (
    CategoricalDomain,
    CellSelector,
    ImputationModel,
    Interval,
    ObservationTable,
    OutcomeDomain,
    binary_bounds_closed_form,
    identification_interval_pop,
    midpoint_estimate,
    mixture_conditional_mean,
    mixture_joint_estimate,
    plim_imputation_mean,
    plim_imputed_long_mean,
    q_mean_estimate,
    random_population,
    sample_interval,
    sample_table,
    true_covariate_model,
)
from imputebounds import cli
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


def relabel_last(domains, codes, perm):
    """``domains`` with numeric-looking labels ``"0"``, ``"1"``, ... on
    their last role, listed in the order ``perm``, and ``codes`` remapped
    so that every code keeps its label; a missing (negative) code stays."""
    *rest, last = domains
    head, tail = np.divmod(codes, last.size)
    remapped = np.where(codes < 0, codes, head * last.size + np.argsort(perm)[tail])
    return (*rest, CategoricalDomain(last.name, tuple(str(p) for p in perm))), remapped


def relabeled(table, perm):
    """``table`` with its last x role relabeled by :func:`relabel_last`."""
    x_domains, x = relabel_last(table.x_domains, table.x, perm)
    return ObservationTable(table.outcome, x_domains, table.w_domains, table.y, x, table.w)


def w_relabeled(table, perm):
    """``table`` with its last w role relabeled by :func:`relabel_last`."""
    w_domains, w = relabel_last(table.w_domains, table.w, perm)
    return ObservationTable(table.outcome, table.x_domains, w_domains, table.y, table.x, w)


def w_relabeled_pop(pop, perm):
    """``pop`` with its last w role relabeled by :func:`relabel_last`."""
    w_domains, w_i = relabel_last(pop.w_domains, pop.w_i, perm)
    return dataclasses.replace(pop, w_domains=w_domains, w_i=w_i)


def numeric_label(domains, value):
    """``value`` with the numeric label :func:`relabel_last` gives the
    level of its last role."""
    return (*value[:-1], str(domains[-1].code(value[-1])))


def numeric_q(pop):
    """The population's true missing-covariate distribution, keyed by the
    numeric labels :func:`relabeled` gives its last x role."""
    return {(y, numeric_label(pop.x_domains, x)): dict(dist)
            for (y, x), dist in true_covariate_model(pop).covariate_q.strata.items()}


def numeric_w_q(pop):
    """The population's true missing-covariate distribution, with the
    numeric labels :func:`w_relabeled` gives its last w role."""
    return {key: {numeric_label(pop.w_domains, w): p for w, p in dist}
            for key, dist in true_covariate_model(pop).covariate_q.strata.items()}


def affine(outcome, a, b):
    """The outcome domain mapped by ``y -> a + b * y``."""
    return OutcomeDomain(a + b * outcome.lo, a + b * outcome.hi)


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


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.integers(1, 200), LEVELS, st.sampled_from("ab"), st.sampled_from("ab"),
       LABELS)
def test_covariate_readings_ignore_w_level_order(seed, n, perm, xi, first, label):
    pop = random_population(seed, x_sizes=(2,), w_sizes=(2, 3), regime="covariate")
    sampled = sample_table(pop, n, seed)
    table, other = w_relabeled(sampled, range(3)), w_relabeled(sampled, perm)
    cells = [CellSelector(xi, (first, level)) for level in ("0", 1, "2")]
    q = numeric_w_q(pop)
    for a, b in zip(covariate_readings(table, q, cells), covariate_readings(other, q, cells)):
        assert_same(a, b)
    model, sel = ImputationModel.mar_covariate(), CellSelector(xi, (first, label))
    assert_same(reading(plim_imputed_long_mean, w_relabeled_pop(pop, range(3)), model, sel),
                reading(plim_imputed_long_mean, w_relabeled_pop(pop, perm), model, sel))


def population_readings(pop, sel):
    return [reading(identification_interval_pop, pop, sel),
            reading(plim_imputation_mean, pop, ImputationModel.mar_outcome(), sel)]


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.integers(1, 200), st.sampled_from("ab"), st.floats(0.0, 1.0),
       st.floats(-100.0, 100.0), st.floats(0.01, 100.0))
def test_outcome_readings_follow_an_affine_map(seed, n, xi, share, a, b):
    pop = random_population(seed, outcome_values=(-1.0, 0.5, 2.0), x_sizes=(2,))
    table = sample_table(pop, n, seed)
    mapped_pop = dataclasses.replace(pop, outcome=affine(pop.outcome, a, b),
                                     outcome_values=a + b * pop.outcome_values)
    mapped = ObservationTable(affine(table.outcome, a, b), table.x_domains,
                              table.w_domains, a + b * table.y, table.x, table.w)
    sel = CellSelector(xi)
    e_q = pop.outcome.lo + share * (pop.outcome.hi - pop.outcome.lo)
    readings = outcome_readings(table, sel, e_q) + population_readings(pop, sel)
    mapped_readings = (outcome_readings(mapped, sel, a + b * e_q)
                       + population_readings(mapped_pop, sel))
    # no reading exceeds the domain [-1, 2], so none maps above |a| + 2 b
    scale = abs(a) + 2.0 * b
    for r, r_mapped in zip(readings, mapped_readings):
        if isinstance(r, type):
            assert r_mapped is r
        else:
            assert r_mapped == pytest.approx([a + b * v for v in r], rel=0, abs=1e-12 * scale)


# ---------------------------------------------------------------------------
# through the CLI

X_LEVELS, W_LEVELS = ("a", "b"), ("p", "q", "r")
#: every x cell, then every (x, w) cell
CLI_CELLS = [(x, None) for x in X_LEVELS] + [(x, w) for x in X_LEVELS for w in W_LEVELS]


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A function from a variant (``"original"``, ``"shuffled"`` or
    ``"reversed"``) and a regime (``"outcome"``, ``"covariate"``) to the
    ``--data`` and ``--config`` flags of 200 seeded records, binary y at
    two x levels and three w levels, a quarter of them missing y (outcome)
    or w (covariate); and the path of a q file for the covariate data."""
    d = tmp_path_factory.mktemp("cli_metamorphic")
    rng = np.random.default_rng(2024)
    n = 200
    y, x, w = rng.integers(0, 2, n), rng.integers(0, 2, n), rng.integers(0, 3, n)
    gone = rng.random(n) < 0.25
    rows = {
        "outcome": ["y,x1"] + [f"{'' if g else yk},{X_LEVELS[xk]}"
                               for yk, xk, g in zip(y, x, gone)],
        "covariate": ["y,x1,w1"] + [f"{yk},{X_LEVELS[xk]},{'' if g else W_LEVELS[wk]}"
                                    for yk, xk, wk, g in zip(y, x, w, gone)],
    }
    order = rng.permutation(n) + 1
    for regime, lines in rows.items():
        (d / f"{regime}.csv").write_text("\n".join(lines) + "\n")
        shuffled_lines = [lines[0]] + [lines[k] for k in order]
        (d / f"{regime}_shuffled.csv").write_text("\n".join(shuffled_lines) + "\n")
        roles = {"x1": X_LEVELS} | ({"w1": W_LEVELS} if regime == "covariate" else {})
        for name, flip in (("config", 1), ("reversed", -1)):
            (d / f"{regime}_{name}.json").write_text(json.dumps({
                "outcome": {"column": "y", "binary": True}, "x": ["x1"],
                "w": ["w1"] if regime == "covariate" else [],
                "levels": {role: list(levels[::flip]) for role, levels in roles.items()}}))
    q = d / "q.json"
    probs = {0.0: (0.5, 0.3, 0.2), 1.0: (0.2, 0.3, 0.5)}
    q.write_text(json.dumps({"kind": "covariate_q", "strata": [
        {"y": yv, "x": [xl], "dist": [{"w": [wl], "p": p} for wl, p in zip(W_LEVELS, ps)]}
        for yv, ps in probs.items() for xl in X_LEVELS]}))

    def flags(variant, regime):
        data = d / (f"{regime}_shuffled.csv" if variant == "shuffled" else f"{regime}.csv")
        config = d / (f"{regime}_reversed.json" if variant == "reversed"
                      else f"{regime}_config.json")
        return ["--data", str(data), "--config", str(config)]

    return flags, str(q)


def cli_results(argv):
    """The ``results`` of the report ``cli.main(argv)`` prints, which must
    exit 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code == 0, err.getvalue()
    return json.loads(out.getvalue())["results"]


@pytest.mark.parametrize("variant", ["shuffled", "reversed"])
@pytest.mark.parametrize("xi, omega", CLI_CELLS)
def test_cli_reports_ignore_record_and_level_order(cli_inputs, variant, xi, omega):
    flags, q = cli_inputs
    regime = "outcome" if omega is None else "covariate"
    cell = ["--xi", f"x1={xi}"] + ([] if omega is None else ["--omega", f"w1={omega}"])
    base, other = (cli_results(["bounds", *flags(v, regime), *cell])
                   for v in ("original", variant))
    assert other["n"] == base["n"] == 200
    assert 0.0 < base["interval"]["hi"] - base["interval"]["lo"] < 1.0
    for key in ("lo", "hi", "midpoint"):
        assert_same(base["interval"][key], other["interval"][key])
    if omega is None:
        return
    base, other = (cli_results(["estimate", *flags(v, regime), "--model", f"q:{q}",
                                *cell, "--m", "2", "--seed", "3"])
                   for v in ("original", variant))
    assert (other["model"], other["m"]) == (base["model"], base["m"]) == (
        "explicit_covariate_q", 2)
    assert_same(base["mixture_mean"], other["mixture_mean"])
