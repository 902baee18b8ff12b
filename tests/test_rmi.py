import contextlib
import json
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from imputebounds import (
    CategoricalDomain,
    CellSelector,
    EstimatorSpec,
    FinitePopulation,
    ImputationModel,
    ObservationTable,
    OutcomeDomain,
    draw_completion,
    fit_model,
    imputation_mean,
    random_population,
    run_multiple_imputation,
    sample_table,
    true_covariate_model,
    true_outcome_model,
)
from imputebounds import _kernels, missing_covariate, missing_outcome, rmi
from imputebounds._rng import fill_streams, stream
from imputebounds.errors import (
    DataError,
    EmptyCell,
    ImputeBoundsError,
    ProbabilityOutOfRange,
    RegimeMismatch,
    UnfittableStratum,
)
from imputebounds.domain import (
    count_codes, require_regime, stratum_name, total_size, yx_codes)
from imputebounds.models import coded_strata, model_from_json
from imputebounds.rmi import ImputationPlan
from conftest import X1, W2, build_covariate_pop, build_mnar_pop


def outcome_table(ys, outcome=None):
    return ObservationTable.from_records(
        [(y, "a", None) for y in ys], outcome or OutcomeDomain.binary_01(), X1)


def table_bytes(t):
    return (t.y.tobytes(), t.x.tobytes(), t.w.tobytes())


class TestFitModel:
    def test_mar_outcome_takes_empirical_frequencies(self):
        t = outcome_table([0, 1, 1, None])
        fitted = fit_model(ImputationModel.mar_outcome(), t)
        atoms, cdf = fitted.strata[0]
        assert atoms.tolist() == [0.0, 1.0]
        assert cdf.tolist() == pytest.approx([1 / 3, 1.0])

    def test_explicit_model_passes_through(self):
        t = outcome_table([1, None])
        model = ImputationModel.explicit_outcome({"a": {0.0: 0.25, 1.0: 0.75}})
        fitted = fit_model(model, t)
        atoms, cdf = fitted.strata[0]
        assert atoms.tolist() == [0.0, 1.0]
        assert cdf.tolist() == pytest.approx([0.25, 1.0])

    def test_unfittable_stratum_is_named(self):
        xd = (CategoricalDomain("g", ("a", "b")),)
        t = ObservationTable.from_records(
            [(1.0, "a", None), (None, "b", None)],
            OutcomeDomain.binary_01(), xd)
        with pytest.raises(UnfittableStratum, match="'b'"):
            fit_model(ImputationModel.mar_outcome(), t)

    def test_mar_covariate_strata_keyed_by_outcome_and_x(self):
        t = ObservationTable.from_records(
            [(1.0, "a", "o"), (1.0, "a", "p"), (1.0, "a", "o"),
             (0.0, "a", "o"), (1.0, "a", None)],
            OutcomeDomain.binary_01(), X1, W2)
        fitted = fit_model(ImputationModel.mar_covariate(), t)
        atoms, cdf = fitted.strata[(1.0, 0)]
        assert atoms.tolist() == [0, 1]
        assert cdf.tolist() == pytest.approx([2 / 3, 1.0])

    def test_regime_mismatch(self):
        t = outcome_table([1, None])
        with pytest.raises(RegimeMismatch):
            fit_model(ImputationModel.mar_covariate(), t)

    def test_model_fits_its_own_regime_and_a_complete_table(self):
        outcome_missing = outcome_table([1, None])
        covariate_missing = ObservationTable.from_records(
            [(1.0, "a", "o"), (0.0, "a", "p"), (0.0, "a", None)],
            OutcomeDomain.binary_01(), X1, W2)
        complete = ObservationTable.from_records(
            [(1.0, "a", "o"), (0.0, "a", "p")], OutcomeDomain.binary_01(), X1, W2)
        for model, fits, other in (
                (ImputationModel.mar_outcome(), outcome_missing, covariate_missing),
                (ImputationModel.mar_covariate(), covariate_missing, outcome_missing)):
            fit_model(model, fits)
            fit_model(model, complete)
            message = (f"model '{model.kind}' needs a table in the {model.target} "
                       f"regime, not the {other.regime} regime")
            with pytest.raises(RegimeMismatch, match=f"^{message}$"):
                fit_model(model, other)


class TestModelValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_outcome_probability_rejected(self, bad):
        with pytest.raises(ProbabilityOutOfRange, match="not finite"):
            ImputationModel.explicit_outcome({"a": {0.0: bad, 1.0: 1.0}})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_outcome_atom_rejected(self, bad):
        # a non-finite atom is bad input (exit 3), not an out-of-domain
        # imputation (exit 4)
        with pytest.raises(DataError, match="outcome atom .* is not finite"):
            ImputationModel.explicit_outcome({"a": {bad: 0.5, 1.0: 0.5}})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_outcome_atom_in_model_json_rejected(self, bad):
        obj = {"kind": "outcome_q",
               "strata": [{"x": ["a"], "dist": [{"y": bad, "p": 1.0}]}]}
        with pytest.raises(DataError, match="outcome atom .* is not finite"):
            model_from_json(json.loads(json.dumps(obj)))

    @pytest.mark.parametrize("bad", ["0.5", True])
    def test_probability_that_is_not_a_number_rejected(self, bad):
        # text or a flag was once read as the number float() makes of it
        with pytest.raises(DataError, match="is not a number"):
            ImputationModel.explicit_outcome({"a": {0.0: bad, 1.0: 0.5}})
        with pytest.raises(DataError, match="is not a number"):
            ImputationModel.explicit_covariate(
                {(1.0, ("a",)): {("o",): bad, ("p",): 0.5}})

    def test_non_finite_covariate_probability_rejected(self):
        with pytest.raises(ProbabilityOutOfRange, match="not finite"):
            ImputationModel.explicit_covariate(
                {(1.0, ("a",)): {("o",): float("nan"), ("p",): 1.0}})


class TestDrawCompletion:
    def test_same_seed_identical(self):
        t = outcome_table([1, 0, None, None, None])
        fitted = fit_model(ImputationModel.mar_outcome(), t)
        a = draw_completion(t, fitted, seed=7)
        b = draw_completion(t, fitted, seed=7)
        assert np.array_equal(a.y, b.y)
        assert a.regime == b.regime == "complete"

    def test_point_mass_model_fills_constant(self):
        t = outcome_table([1, None, None])
        model = ImputationModel.explicit_outcome({"a": {1.0: 1.0}})
        completed = draw_completion(t, model, seed=3)
        assert completed.y.tolist() == [1.0, 1.0, 1.0]
        assert completed.y[~t.z_y].tolist() == [1.0, 1.0]

    def test_observed_values_untouched(self):
        t = outcome_table([1, 0, None])
        completed = draw_completion(t, ImputationModel.mar_outcome(), seed=11)
        assert completed.y[:2].tolist() == [1.0, 0.0]

    def test_imputed_frequencies_track_fitted_distribution(self):
        pop = build_mnar_pop()
        t = sample_table(pop, 100000, seed=2)
        fitted = fit_model(ImputationModel.mar_outcome(), t)
        completed = draw_completion(t, fitted, seed=8)
        drawn = completed.y[~t.z_y]
        atoms, cdf = fitted.strata[0]
        probs = np.diff(np.concatenate([[0.0], cdf]))
        freq1 = float((drawn == 1.0).mean())
        assert freq1 == pytest.approx(probs[atoms.tolist().index(1.0)], abs=0.01)

    def test_empty_missing_set_is_noop(self):
        t = outcome_table([1, 0])
        completed = draw_completion(t, ImputationModel.mar_outcome(), seed=1)
        assert completed.y.tolist() == [1.0, 0.0]
        assert completed.regime == "complete"


class TestCompletionIsATable:
    """A completion is an observation table in the complete regime; only
    such a table feeds the two estimators on completed data."""

    def tables(self):
        def table(records):
            return ObservationTable.from_records(
                records, OutcomeDomain.binary_01(), X1, W2)

        outcome = table([(1, "a", "o"), (None, "a", "p"), (0, "a", "o"), (None, "a", "o")])
        covariate = table([(1, "a", "o"), (0, "a", "p"), (1, "a", None), (0, "a", None)])
        return ((outcome, ImputationModel.mar_outcome(), "w"),
                (covariate, ImputationModel.mar_covariate(), "y"))

    def test_completion_shares_the_unimputed_columns(self):
        for t, model, kept in self.tables():
            completed = draw_completion(t, model, seed=4)
            assert type(completed) is ObservationTable
            assert completed.regime == "complete"
            assert completed.x is t.x
            assert getattr(completed, kept) is getattr(t, kept)

    @pytest.mark.parametrize("estimate, sel", [
        (imputation_mean, CellSelector("a")),
        (missing_covariate.imputed_long_mean, CellSelector("a", "o")),
    ], ids=["imputation_mean", "imputed_long_mean"])
    def test_table_with_missing_entries_refused(self, estimate, sel):
        for t, model, _ in self.tables():
            with pytest.raises(RegimeMismatch, match="needs a table in the complete regime"):
                estimate(t, sel)
            assert 0.0 <= estimate(draw_completion(t, model, seed=4), sel) <= 1.0


class TestRunMultipleImputation:
    def setup_method(self):
        self.table = outcome_table([1, 0, 1, 1, None, None, None])
        self.model = ImputationModel.mar_outcome()
        self.spec = EstimatorSpec("imputation_mean", CellSelector("a"))

    def test_single_draw_pooling_is_identity(self):
        res = run_multiple_imputation(self.table, self.model, 1, self.spec, seed=5)
        fitted = fit_model(self.model, self.table)
        single = imputation_mean(draw_completion(self.table, fitted, seed=5),
                                 CellSelector("a"))
        assert res.m == 1
        assert res.pooled_mean == res.per_draw_estimates[0] == single
        assert res.pooled_dispersion == 0.0

    def test_same_seed_identical_runs(self):
        a = run_multiple_imputation(self.table, self.model, 16, self.spec, seed=9)
        b = run_multiple_imputation(self.table, self.model, 16, self.spec, seed=9)
        assert a == b

    def test_pooled_mean_is_mean_of_draws(self):
        res = run_multiple_imputation(self.table, self.model, 64, self.spec, seed=2)
        assert res.pooled_mean == pytest.approx(
            float(np.mean(res.per_draw_estimates)), abs=1e-15)
        assert len(res.per_draw_estimates) == res.m == 64

    def test_input_table_never_mutated(self):
        before = table_bytes(self.table)
        run_multiple_imputation(self.table, self.model, 32, self.spec, seed=1)
        assert table_bytes(self.table) == before

    def test_estimator_errors_tag_the_draw(self):
        xd = (CategoricalDomain("g", ("a", "b")),)
        t = ObservationTable.from_records(
            [(1.0, "a", None), (None, "a", None)],
            OutcomeDomain.binary_01(), xd)
        spec = EstimatorSpec("imputation_mean", CellSelector("b"))
        with pytest.raises(EmptyCell, match="draw 0"):
            run_multiple_imputation(t, self.model, 3, spec, seed=0)

    def test_m_must_be_positive(self):
        with pytest.raises(DataError):
            run_multiple_imputation(self.table, self.model, 0, self.spec, seed=0)

    def test_m_below_one_names_it(self):
        with pytest.raises(DataError, match=r"^m must be >= 1, got 0$"):
            run_multiple_imputation(self.table, self.model, 0, self.spec, seed=0)

    @pytest.mark.parametrize("m", [2.5, "3", True])
    def test_m_must_be_a_whole_number(self, m):
        with pytest.raises(DataError, match="^m must be an integer"):
            run_multiple_imputation(self.table, self.model, m, self.spec, seed=0)

    def test_unknown_estimator_rejected(self):
        with pytest.raises(DataError):
            EstimatorSpec("nonsense", CellSelector("a"))

    @pytest.mark.parametrize("name, sel", [
        ("long_mean", CellSelector("a")),
        ("imputation_mean", CellSelector("a", "o")),
    ], ids=["x_cell", "xw_cell"])
    def test_another_cells_estimator_rejected(self, name, sel):
        """The cell names its estimator; a spec may only repeat that name."""
        with pytest.raises(DataError) as raised:
            EstimatorSpec(name, sel)
        assert type(raised.value) is DataError
        assert str(raised.value) == (f"estimator {name!r} does not read the cell "
                                     f"xi={sel.xi!r}, omega={sel.omega!r}")

    @pytest.mark.parametrize("sel, name, pop, model, readings", [
        (CellSelector("a"), "imputation_mean", build_mnar_pop(),
         ImputationModel.mar_outcome(),
         (missing_outcome.imputation_mean, missing_outcome.plim_imputation_mean,
          missing_outcome.true_mean, missing_outcome.identification_interval_pop,
          missing_outcome.sample_interval)),
        (CellSelector("a", "o"), "long_mean", build_covariate_pop(),
         ImputationModel.mar_covariate(),
         (missing_covariate.imputed_long_mean, missing_covariate.plim_imputed_long_mean,
          missing_covariate.true_long_mean, missing_covariate.binary_bounds_oracle,
          missing_covariate.binary_bounds_closed_form)),
    ], ids=["x_cell", "xw_cell"])
    def test_for_cell_picks_the_estimator_and_its_readings(self, sel, name, pop,
                                                           model, readings):
        estimate, plim, truth, pop_interval, interval = readings
        spec = EstimatorSpec.for_cell(sel)
        assert spec == EstimatorSpec(name, sel)
        table = sample_table(pop, 200, 4)
        completed = draw_completion(table, model, 1)
        assert spec.apply(completed) == estimate(completed, sel)
        assert spec.plim(pop, model) == plim(pop, model, sel)
        assert spec.truth(pop) == truth(pop, sel)
        assert spec.population_interval(pop) == pop_interval(pop, sel)
        assert spec.sample_interval(table) == interval(table, sel)

    def test_large_m_pool_approaches_draw_average_limit(self):
        # with every missing record at one stratum, the m -> inf pooled value
        # is the estimate with draws replaced by the fitted stratum mean
        res = run_multiple_imputation(self.table, self.model, 1000, self.spec,
                                      seed=77)
        fitted = fit_model(self.model, self.table)
        atoms, cdf = fitted.strata[0]
        probs = np.diff(np.concatenate([[0.0], cdf]))
        limit = (3.0 + 3.0 * float(atoms @ probs)) / 7.0
        margin = 2.0 * res.pooled_dispersion / np.sqrt(res.m)
        assert abs(res.pooled_mean - limit) <= margin

    def test_draw_variation_is_real_but_bounded(self):
        res = run_multiple_imputation(self.table, self.model, 200, self.spec, seed=3)
        assert res.pooled_dispersion > 0.0
        lo, hi = min(res.per_draw_estimates), max(res.per_draw_estimates)
        assert 3 / 7 <= lo <= hi <= 1.0


# --- pinned per-draw estimates --------------------------------------------------

def pinned_cases():
    pop_y = random_population(11, outcome_values=(0.0, 0.1, 0.35, 0.8), x_sizes=(2,))
    t_y = sample_table(pop_y, 300, seed=12)
    pop_w = random_population(21, x_sizes=(2,), w_sizes=(3,), regime="covariate")
    t_w = sample_table(pop_w, 200, seed=22)
    mean = EstimatorSpec("imputation_mean", CellSelector("a"))
    long = EstimatorSpec("long_mean", CellSelector("a", "a"))
    return {
        "mar_outcome": (t_y, ImputationModel.mar_outcome(), mean),
        "explicit_outcome_q": (t_y, true_outcome_model(pop_y), mean),
        "mar_covariate": (t_w, ImputationModel.mar_covariate(), long),
        "explicit_covariate_q": (t_w, true_covariate_model(pop_w), long),
        "ecological": (t_w, ImputationModel.ecological(), long),
    }


#: ``per_draw_estimates`` (as float.hex) of ``m = 5`` runs of the cases
#: above, recorded from the per-draw completed-table implementation that the
#: imputation plan replaced; the plan must reproduce them bit for bit
PINNED_DRAWS = {
    "mar_outcome/5": (
        "0x1.29bf68c359025p-3", "0x1.38b6be9f1d251p-3", "0x1.64d319fe6cb39p-3",
        "0x1.4877baaede212p-3", "0x1.59025cf29bf69p-3",
    ),
    "mar_outcome/2024": (
        "0x1.4f8e9282c1c5cp-3", "0x1.422a890ef755fp-3", "0x1.5e85e85e85e86p-3",
        "0x1.25cf29bf68c36p-3", "0x1.5e85e85e85e86p-3",
    ),
    "explicit_outcome_q/5": (
        "0x1.6c4ec4ec4ec4fp-2", "0x1.7755dbc422a8ap-2", "0x1.9934c67f9b2cfp-2",
        "0x1.7c7494160e2dcp-2", "0x1.781f81f81f820p-2",
    ),
    "explicit_outcome_q/2024": (
        "0x1.8000000000002p-2", "0x1.640973ca6fda3p-2", "0x1.986b204b9e539p-2",
        "0x1.5afa7c7494162p-2", "0x1.a82c1c5b5f4fap-2",
    ),
    "mar_covariate/5": (
        "0x1.999999999999ap-3", "0x1.2d2d2d2d2d2d3p-2", "0x1.4000000000000p-2",
        "0x1.5555555555555p-3", "0x1.e1e1e1e1e1e1ep-3",
    ),
    "mar_covariate/2024": (
        "0x1.0d79435e50d79p-2", "0x1.e79e79e79e79ep-3", "0x1.1111111111111p-2",
        "0x1.c71c71c71c71cp-3", "0x1.0000000000000p-2",
    ),
    "explicit_covariate_q/5": (
        "0x1.999999999999ap-3", "0x1.0000000000000p-2", "0x1.e1e1e1e1e1e1ep-3",
        "0x1.5555555555555p-3", "0x1.c71c71c71c71cp-3",
    ),
    "explicit_covariate_q/2024": (
        "0x1.e79e79e79e79ep-3", "0x1.e79e79e79e79ep-3", "0x1.af286bca1af28p-3",
        "0x1.999999999999ap-3", "0x1.999999999999ap-3",
    ),
    "ecological/5": (
        "0x1.8000000000000p-2", "0x1.a5a5a5a5a5a5ap-2", "0x1.4000000000000p-2",
        "0x1.2d2d2d2d2d2d3p-2", "0x1.5555555555555p-2",
    ),
    "ecological/2024": (
        "0x1.435e50d79435ep-2", "0x1.6666666666666p-2", "0x1.af286bca1af28p-2",
        "0x1.435e50d79435ep-2", "0x1.8000000000000p-2",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_DRAWS))
def test_per_draw_estimates_are_pinned(case):
    kind, seed = case.split("/")
    table, model, estimator = pinned_cases()[kind]
    res = run_multiple_imputation(table, model, 5, estimator, int(seed))
    assert [x.hex() for x in res.per_draw_estimates] == list(PINNED_DRAWS[case])


# --- the pooled fast path against completed tables --------------------------------

X2 = (CategoricalDomain("g", ("a", "b")),)
OUTCOME_RECORD = st.tuples(st.sampled_from([0.0, 0.25, 1.0, None]),
                           st.sampled_from("ab"))
COVARIATE_RECORD = st.tuples(st.sampled_from([0.0, 1.0]), st.sampled_from("ab"),
                             st.sampled_from(["o", "p", None]))
SHARE = st.floats(0.0, 1.0)


@st.composite
def imputation_runs(draw):
    """A small random table with a model and an estimator for its regime."""
    if draw(st.booleans()):
        records = draw(st.lists(OUTCOME_RECORD, min_size=1, max_size=30))
        table = ObservationTable.from_records(
            [(y, x, None) for y, x in records], OutcomeDomain(0.0, 1.0), X2)
        p = {x: draw(SHARE) for x in "ab"}
        model = draw(st.sampled_from([
            ImputationModel.mar_outcome(),
            ImputationModel.explicit_outcome(
                {x: {0.25: p[x], 1.0: 1.0 - p[x]} for x in "ab"})]))
        estimator = EstimatorSpec("imputation_mean",
                                  CellSelector(draw(st.sampled_from("ab"))))
    else:
        records = draw(st.lists(COVARIATE_RECORD, min_size=1, max_size=30))
        table = ObservationTable.from_records(records, OutcomeDomain.binary_01(),
                                              X2, W2)
        q = {(y, (x,)): {("o",): p, ("p",): 1.0 - p}
             for y in (0.0, 1.0) for x in "ab" for p in [draw(SHARE)]}
        model = draw(st.sampled_from([
            ImputationModel.mar_covariate(), ImputationModel.ecological(),
            ImputationModel.explicit_covariate(q)]))
        estimator = EstimatorSpec("long_mean", CellSelector(
            draw(st.sampled_from("ab")), draw(st.sampled_from("op"))))
    m = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**64 - 1))
    return table, model, estimator, m, seed


@settings(max_examples=150, deadline=None)
@given(imputation_runs())
def test_pooled_draws_match_completed_tables(run):
    """Draw k of the pooled runner equals the estimator applied to the plan's
    completion from stream (seed, k + 1), and draw 0 equals the estimator on
    draw_completion; a draw whose completion makes the estimator raise makes
    the runner raise the same class, tagged with that draw."""
    table, model, estimator, m, seed = run
    try:
        fitted = fit_model(model, table)
    except UnfittableStratum:
        with pytest.raises(UnfittableStratum):
            run_multiple_imputation(table, model, m, estimator, seed)
        return
    plan = ImputationPlan(table, fitted)
    expected = []
    for k in range(m):
        try:
            expected.append(estimator.apply(plan.complete(stream(seed, k + 1))))
        except ImputeBoundsError as e:
            with pytest.raises(type(e), match=f"^draw {k}: "):
                run_multiple_imputation(table, model, m, estimator, seed)
            return
    res = run_multiple_imputation(table, model, m, estimator, seed)
    assert list(res.per_draw_estimates) == expected
    assert res.per_draw_estimates[0] == estimator.apply(
        draw_completion(table, model, seed))


def run_or_error(table, model, m, estimator, seed):
    """The per-draw estimates of a pooled run, or the class and message of
    the error it raises."""
    try:
        return run_multiple_imputation(table, model, m, estimator, seed).per_draw_estimates
    except ImputeBoundsError as e:
        return type(e), str(e)


@settings(max_examples=100, deadline=None)
@given(imputation_runs())
def test_runner_takes_a_fitted_model(run):
    """A fitted model gives the runner the draws of the model it was fitted
    from, bit for bit, and the plan built from it the same arrays."""
    table, model, estimator, m, seed = run
    try:
        fitted = fit_model(model, table)
    except UnfittableStratum:
        return
    assert (run_or_error(table, fitted, m, estimator, seed)
            == run_or_error(table, model, m, estimator, seed))
    plan, refit = ImputationPlan(table, model), ImputationPlan(table, fitted)
    for name in ("missing", "row_of", "cdf_mat", "val_mat"):
        a, b = getattr(plan, name), getattr(refit, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_pooled_run_codes_the_table_once(monkeypatch):
    """A mar_covariate run on a binary outcome codes (y, x) strata once and
    sorts nothing: the outcome is its own index, and the donors' atoms,
    their (stratum, atom) pairs and the missing records' strata are
    counted."""
    pop = random_population(21, x_sizes=(2,), w_sizes=(3,), regime="covariate")
    table = sample_table(pop, 500, seed=22)
    calls = {"yx_codes": 0, "unique": 0}

    def counted(module, name):
        function = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(rmi, "yx_codes")
    counted(np, "unique")
    run_multiple_imputation(table, ImputationModel.mar_covariate(), 3,
                            EstimatorSpec("long_mean", CellSelector("a", "a")), 5)
    assert calls == {"yx_codes": 1, "unique": 0}


class TestForeignDomains:
    """A fitted model keys its strata and atoms by the flat codes of the
    table it was fitted on, so drawing it on a table with other domains is
    refused, naming the role that differs."""

    def test_x_levels_in_another_order(self):
        fit_on = ObservationTable.from_records(
            [(1.0, "a", None), (0.0, "b", None), (None, "a", None)],
            OutcomeDomain.binary_01(), X2)
        other = ObservationTable.from_records(
            [(None, "a", None), (1.0, "b", None)], OutcomeDomain.binary_01(),
            (CategoricalDomain("g", ("b", "a")),))
        fitted = fit_model(ImputationModel.mar_outcome(), fit_on)
        with pytest.raises(DataError, match="other x domains"):
            draw_completion(other, fitted, seed=1)
        with pytest.raises(DataError, match="other x domains"):
            run_multiple_imputation(other, fitted, 4, EstimatorSpec(
                "imputation_mean", CellSelector("a")), seed=1)

    def test_fewer_w_levels(self):
        w3 = (CategoricalDomain("m", ("o", "p", "q")),)
        fit_on = ObservationTable.from_records(
            [(1.0, "a", "q"), (1.0, "a", None)], OutcomeDomain.binary_01(), X1, w3)
        other = ObservationTable.from_records(
            [(1.0, "a", "o"), (1.0, "a", None)], OutcomeDomain.binary_01(), X1, W2)
        fitted = fit_model(ImputationModel.mar_covariate(), fit_on)
        with pytest.raises(DataError, match="other w domains"):
            draw_completion(other, fitted, seed=1)

    def test_other_outcome_domain(self):
        fitted = fit_model(ImputationModel.mar_outcome(), outcome_table([1, None]))
        other = outcome_table([1, None], OutcomeDomain(0.0, 2.0))
        with pytest.raises(DataError, match="other outcome domains"):
            draw_completion(other, fitted, seed=1)


class TestImputationPlan:
    def test_completions_do_not_share_the_working_copy(self):
        t = outcome_table([1, 0, None, None, None, None])
        plan = ImputationPlan(t, fit_model(ImputationModel.mar_outcome(), t))
        first = plan.complete(stream(3, 1))
        snapshot = first.y.copy()
        for k in range(2, 12):
            plan.complete(stream(3, k))
        assert np.array_equal(first.y, snapshot)
        assert np.array_equal(
            first.y, draw_completion(t, ImputationModel.mar_outcome(), 3).y)

    def test_uncovered_stratum_of_another_table(self):
        xd = (CategoricalDomain("g", ("a", "b")),)
        donors = ObservationTable.from_records(
            [(1.0, "a", None), (None, "a", None)], OutcomeDomain.binary_01(), xd)
        target = ObservationTable.from_records(
            [(1.0, "a", None), (None, "b", None)], OutcomeDomain.binary_01(), xd)
        fitted = fit_model(ImputationModel.mar_outcome(), donors)
        with pytest.raises(UnfittableStratum, match="'b'"):
            ImputationPlan(target, fitted)
        with pytest.raises(UnfittableStratum, match="'b'"):
            draw_completion(target, fitted, seed=1)

    def test_zero_probability_atom_is_never_drawn(self):
        # the atom 0.5 has probability 0, so its CDF entry repeats the one
        # before it; the comparison is u <= entry, so a u equal to 0.25
        # steps past both entries to the atom 1.0
        t = outcome_table([1.0, None, None, None], OutcomeDomain(0.0, 1.0))
        model = ImputationModel.explicit_outcome({"a": {0.0: 0.25, 0.5: 0.0, 1.0: 0.75}})
        plan = ImputationPlan(t, fit_model(model, t))
        assert plan.cdf_mat.tolist() == [[0.25, 0.25, 1.0]]
        u = np.array([[0.0, 0.2499, 0.25], [0.5, 0.25, np.nextafter(1.0, 0.0)]])
        assert plan.imputed_block(u).tolist() == [[0.0, 0.0, 1.0], [1.0, 1.0, 1.0]]
        grid = np.linspace(0.0, 1.0, 3000, endpoint=False).reshape(1000, 3)
        assert set(plan.imputed_block(grid).ravel().tolist()) == {0.0, 1.0}

    def test_empty_pooled_cell_is_tagged_with_its_draw(self):
        # nothing is observed at (a, o): the pooled cell holds the one
        # missing record exactly when a draw imputes o for it
        t = ObservationTable.from_records(
            [(1.0, "a", "p"), (1.0, "a", None)], OutcomeDomain.binary_01(), X1, W2)
        spec = EstimatorSpec("long_mean", CellSelector("a", "o"))
        model = ImputationModel.explicit_covariate(
            {(1.0, ("a",)): {("o",): 0.5, ("p",): 0.5}})
        plan = ImputationPlan(t, fit_model(model, t))
        draws = [plan.complete(stream(9, k + 1)).w[1] for k in range(20)]
        first_empty = draws.index(1)
        assert first_empty > 0
        with pytest.raises(EmptyCell, match=f"^draw {first_empty}: "):
            run_multiple_imputation(t, model, 20, spec, seed=9)


def kernel_blocks(monkeypatch):
    """Record the number of uniforms of every ``draw_positions`` call."""
    sizes = []
    kernel = _kernels.draw_positions

    def recorded(cdf_rows, row_of, u):
        sizes.append(u.size)
        return kernel(cdf_rows, row_of, u)

    monkeypatch.setattr(_kernels, "draw_positions", recorded)
    return sizes


def outcome_pop_with_w():
    """Outcome-missing population at one x cell whose w is always observed,
    so that ``long_mean`` has a pooled cell to read."""
    return FinitePopulation.from_cells({
        (1.0, "a", "o", 1): 0.2,
        (0.0, "a", "o", 1): 0.1,
        (1.0, "a", "p", 1): 0.15,
        (0.0, "a", "p", 1): 0.05,
        (1.0, "a", "o", 0): 0.2,
        (0.0, "a", "o", 0): 0.1,
        (1.0, "a", "p", 0): 0.15,
        (0.0, "a", "p", 0): 0.05,
    }, outcome=OutcomeDomain.binary_01(), x_domains=X1, w_domains=W2)


class TestBlocks:
    """The pooled runner draws in blocks of draws; these runs span several
    blocks and end on a partial one. Each estimator runs on the regime it
    is made for and on the other one, where a draw imputes a column the
    estimator reads only as given (``imputation_mean`` under a covariate
    model) or the outcomes it averages (``long_mean`` under an outcome
    model)."""

    @pytest.mark.parametrize("pop, model, estimator", [
        (build_mnar_pop(), ImputationModel.mar_outcome(),
         EstimatorSpec("imputation_mean", CellSelector("a"))),
        (build_covariate_pop(), ImputationModel.mar_covariate(),
         EstimatorSpec("long_mean", CellSelector("a", "o"))),
        (build_covariate_pop(), ImputationModel.mar_covariate(),
         EstimatorSpec("imputation_mean", CellSelector("a"))),
        (outcome_pop_with_w(), ImputationModel.mar_outcome(),
         EstimatorSpec("long_mean", CellSelector("a", "o"))),
    ], ids=["imputation_mean", "long_mean", "imputation_mean-covariate_model",
            "long_mean-outcome_model"])
    def test_draws_across_blocks_match_completed_tables(self, monkeypatch, pop,
                                                        model, estimator):
        # a third of BLOCK_CELLS records, all in the estimator's cell, make
        # blocks of a few draws, so seven draws end on a partial block
        t = sample_table(pop, rmi.BLOCK_CELLS // 3, seed=31)
        # imputation_mean under a covariate model reads no drawn value, so
        # its blocks are sized by the uniforms of every missing record alone
        # and hold more draws: twenty end on a partial block
        reads_no_draw = model.target == "covariate" and estimator.name == "imputation_mean"
        m, seed = 20 if reads_no_draw else 7, 2**64 - 3
        sizes = kernel_blocks(monkeypatch)
        res = run_multiple_imputation(t, model, m, estimator, seed)
        if reads_no_draw:
            # its draws fill their uniforms but invert none
            assert len(sizes) > 1 and set(sizes) == {0}
        else:
            assert len(sizes) > 1 and sizes[-1] < sizes[0]
        plan = ImputationPlan(t, fit_model(model, t))
        assert list(res.per_draw_estimates) == [
            estimator.apply(plan.complete(stream(seed, k + 1))) for k in range(m)]

    def test_empty_cell_after_the_first_block_is_tagged_with_its_draw(self, monkeypatch):
        # as in test_empty_pooled_cell_is_tagged_with_its_draw, the pooled
        # cell (a, o) holds the one missing record at a exactly when a draw
        # imputes o for it; the missing records at b make the blocks short
        n_b = rmi.BLOCK_CELLS // 8
        t = ObservationTable.from_records(
            [(1.0, "a", "p"), (1.0, "a", None)] + [(1.0, "b", None)] * n_b,
            OutcomeDomain.binary_01(), X2, W2)
        spec = EstimatorSpec("long_mean", CellSelector("a", "o"))
        half = {("o",): 0.5, ("p",): 0.5}
        model = ImputationModel.explicit_covariate(
            {(1.0, ("a",)): half, (1.0, ("b",)): half})
        plan = ImputationPlan(t, fit_model(model, t))
        sizes = kernel_blocks(monkeypatch)
        with contextlib.suppress(EmptyCell):
            run_multiple_imputation(t, model, 20, spec, seed=0)
        # the kernel inverts only the one missing record at a, so a block
        # inverts one uniform per draw
        block = sizes[0]
        assert 1 < block < 20

        def first_empty(seed):
            for k in range(20):
                if plan.complete(stream(seed, k + 1)).w[1] == 1:
                    return k
            return None

        seed, k = next((s, k) for s in range(200)
                       if (k := first_empty(s)) is not None and k >= block)
        with pytest.raises(EmptyCell, match=f"^draw {k}: "):
            run_multiple_imputation(t, model, 20, spec, seed=seed)


@pytest.mark.parametrize("cell", ["a", "b"])
def test_wide_support_draws_match_completed_tables(monkeypatch, cell):
    """A real-valued outcome has one atom per distinct donor value: 240 at
    x = a make a support 240 wide, so a draw of the 75 missing records at
    a fills more than BLOCK_CELLS cells, each block holds one draw, and the
    kernel takes the gather build. The 5 donors at x = b make a short row,
    padded to that width, which the estimator at b reads: a draw of its 25
    missing records fills 6000 cells, so a block holds two draws."""
    values = stream(41, 0).random(245)
    t = ObservationTable.from_records(
        [(y, "a", None) for y in values[:240]] + [(y, "b", None) for y in values[240:]]
        + [(None, "ab"[k % 4 == 0], None) for k in range(100)],
        OutcomeDomain(0.0, 1.0), X2)
    model, estimator = ImputationModel.mar_outcome(), EstimatorSpec(
        "imputation_mean", CellSelector(cell))
    plan = ImputationPlan(t, fit_model(model, t))
    assert plan.cdf_mat.shape == (2, 240)
    m, seed = 300, 2**64 - 5
    sizes = kernel_blocks(monkeypatch)
    res = run_multiple_imputation(t, model, m, estimator, seed)
    # the kernel inverts only the cell's missing records: 75 at a, 25 at b
    drawn = {"a": 75, "b": 25}[cell]
    assert len(set(sizes)) == 1 and sum(sizes) == drawn * m
    assert sizes[0] < _kernels.RECORDS_PER_COLUMN * (plan.cdf_mat.shape[1] - 1)
    assert list(res.per_draw_estimates) == [
        estimator.apply(plan.complete(stream(seed, k + 1))) for k in range(m)]


def test_wide_support_run_keeps_its_memory_bounded():
    """One draw of 20000 missing outcomes from 5000 distinct donors compares
    1e8 (uniform, CDF entry) pairs, far above ``_kernels.GATHER_CELLS``: the
    kernel counts columns, so the run holds no (records, support) matrix,
    and its estimate is that of a binary search of the donors' CDF."""
    y = np.concatenate([stream(43, 0).random(5000), np.full(20000, np.nan)])
    codes = np.zeros(len(y), dtype=np.int64)
    t = ObservationTable(OutcomeDomain(0.0, 1.0), X1, (), y, codes, codes)
    model, estimator = ImputationModel.mar_outcome(), EstimatorSpec(
        "imputation_mean", CellSelector("a"))
    tracemalloc.start()
    try:
        res = run_multiple_imputation(t, model, 1, estimator, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    plan = ImputationPlan(t, model)
    assert plan.cdf_mat.shape == (1, 5000)
    pos = np.searchsorted(plan.cdf_mat[0], stream(5, 1).random(20000), side="right")
    completed = y.copy()
    completed[plan.missing] = plan.val_mat[0].take(np.minimum(pos, 4999))
    assert res.per_draw_estimates[0] == completed.mean()


def test_blocks_stay_bounded_by_the_uniforms_of_every_record():
    """One missing record at a and 100000 at b: the estimator at a inverts
    one record per draw, but each draw still fills a uniform for every
    missing record, so a block of 2000 draws sized by the inverted records
    alone would hold 1.6 GB of uniforms."""
    n_b = 100_000
    y = np.concatenate([[1.0, 0.0, np.nan, 1.0, 0.0], np.full(n_b, np.nan)])
    x = np.concatenate([[0, 0, 0, 1, 1], np.ones(n_b, dtype=np.int64)])
    t = ObservationTable(OutcomeDomain.binary_01(), X2, (), y, x, np.zeros_like(x))
    model, estimator = ImputationModel.mar_outcome(), EstimatorSpec(
        "imputation_mean", CellSelector("a"))
    m, seed = 2000, 17
    tracemalloc.start()
    try:
        res = run_multiple_imputation(t, model, m, estimator, seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    plan = ImputationPlan(t, model)
    assert [res.per_draw_estimates[k] for k in (0, m - 1)] == [
        estimator.apply(plan.complete(stream(seed, k + 1))) for k in (0, m - 1)]


#: outcomes at the edges of the exact sum: dyadic values, a value that is
#: not (0.1), a negative zero, and 2**52, which leaves no bit for 0.5
EDGE_OUTCOMES = (0.0, 0.5, 1.0, 3.25, -2.0, 0.1, -0.0, 2.0**52)
EDGE_DOMAIN = OutcomeDomain(-2.0, 2.0**52)


def edge_run(records, atoms, m, seed):
    """A table of ``(y, x)`` records, x in {a, b}, with an explicit model
    drawing ``atoms[x]`` with equal weights (``mar_outcome`` when ``atoms``
    is None), and ``imputation_mean`` at a."""
    table = ObservationTable.from_records(
        [(y, x, None) for y, x in records], EDGE_DOMAIN, X2)
    model = ImputationModel.mar_outcome() if atoms is None else (
        ImputationModel.explicit_outcome(
            {x: {v: 1.0 / len(vs) for v in vs} for x, vs in atoms.items()}))
    return table, model, EstimatorSpec("imputation_mean", CellSelector("a")), m, seed


#: a dyadic cell at a beside records at b that draw tenths
DYADIC_BESIDE_TENTHS = [(0.5, "a"), (None, "a"), (1.0, "a"), (None, "b"), (0.1, "b")]


@st.composite
def edge_runs(draw):
    """A small cell at a from EDGE_OUTCOMES, any part of it missing (none
    or all of it included), beside records at b."""
    value = st.sampled_from(EDGE_OUTCOMES)
    at_a = draw(st.lists(st.one_of(st.none(), value), min_size=1, max_size=8))
    at_b = draw(st.lists(st.one_of(st.none(), value), max_size=4))
    records = draw(st.permutations([(y, "a") for y in at_a] + [(y, "b") for y in at_b]))
    atoms = draw(st.one_of(st.none(), st.fixed_dictionaries(
        {x: st.lists(value, min_size=1, max_size=3, unique=True)
         for x in "ab"})))
    return edge_run(records, atoms, draw(st.integers(1, 40)),
                    draw(st.integers(0, 2**64 - 1)))


@settings(max_examples=300, deadline=None)
@given(edge_runs())
@example(edge_run([(None, "a"), (0.5, "a"), (2.0**52, "a")], {"a": [0.5]}, 1, 0))
@example(edge_run([(-0.0, "a"), (None, "a")], {"a": [-0.0], "b": [1.0]}, 3, 5))
@example(edge_run([(0.1, "a"), (0.5, "a"), (None, "a"), (3.25, "a"), (0.1, "a"),
                   (1.0, "a"), (0.1, "a"), (None, "a"), (0.1, "a")], None, 40, 11))
@example(edge_run(DYADIC_BESIDE_TENTHS, {"a": [0.0, 0.5], "b": [0.1, 0.35]}, 5, 3))
def test_both_routes_give_the_bits_of_completed_tables(run):
    """Draw k of ``imputation_mean`` is the estimate on the plan's
    completion from stream (seed, k + 1), to the last bit and the sign of
    zero, whether the run sums its cell exactly or means a copy of it."""
    table, model, estimator, m, seed = run
    try:
        plan = ImputationPlan(table, model)
    except UnfittableStratum:
        return
    res = run_multiple_imputation(table, model, m, estimator, seed)
    assert [x.hex() for x in res.per_draw_estimates] == [
        estimator.apply(plan.complete(stream(seed, k + 1))).hex() for k in range(m)]


class TestExactSums:
    """Where ``rmi._sums_exactly`` lets a run sum its cell in any order."""

    def test_dyadic_values(self):
        assert rmi._sums_exactly([0.0, 0.5, 1.0, 3.25, -2.0], 1000)

    def test_a_value_that_is_not_dyadic_in_a_cell_of_more_than_one(self):
        # 0.1 is 3602879701896397 / 2**55: one of it is exact, three are not
        assert rmi._sums_exactly([0.1], 2)
        assert not rmi._sums_exactly([0.1], 3)
        assert not rmi._sums_exactly([0.0, 0.5, 0.1], 3)

    def test_negative_zero(self):
        assert rmi._sums_exactly([0.0, 1.0], 4)
        assert not rmi._sums_exactly([-0.0], 1)
        assert not rmi._sums_exactly([1.0, -0.0], 4)

    def test_the_bound_on_the_largest_numerator(self):
        assert rmi._sums_exactly([2.0**52 - 1, 1.0], 2)
        assert not rmi._sums_exactly([2.0**52, 1.0], 2)
        assert rmi._sums_exactly([2.0**52, 1.0], 1)
        # alone, 2**52 is 1 * 2**52
        assert rmi._sums_exactly([2.0**52], 2**52)
        # 0.5 sets d = 1, so 2**51 is 2**52 halves
        assert not rmi._sums_exactly([0.5, 2.0**51], 2)
        assert rmi._sums_exactly([0.5, 2.0**51], 1)

    def test_scales_far_apart(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert not rmi._sums_exactly([5e-324, 1.0], 2)
            assert not rmi._sums_exactly([1e300, 0.5], 2)
            assert rmi._sums_exactly([5e-324, -5e-324], 2**50)

    def test_no_values_or_only_zeros(self):
        assert rmi._sums_exactly([], 5)
        assert rmi._sums_exactly([0.0, 0.0], 2**60)

    @pytest.mark.parametrize("cell, tiled", [("a", 0), ("b", 2)])
    def test_only_the_atoms_the_cell_draws_count(self, cell, tiled):
        # the cell at a draws {0, 0.5} and is summed exactly though the
        # stratum at b draws tenths; the cell at b is meaned from copies
        table, model, _, _, _ = edge_run(
            DYADIC_BESIDE_TENTHS, {"a": [0.0, 0.5], "b": [0.1, 0.35]}, 1, 0)
        plan = ImputationPlan(table, model)
        reading = rmi._READINGS["imputation_mean"].on_plan(plan, CellSelector(cell))
        assert reading[1] == tiled


def philox_key(seed, index):
    return stream(seed, index).bit_generator.state["state"]["key"].tolist()


class TestStream:
    def test_seeds_above_2_63_keep_their_low_bits(self):
        assert philox_key(2**63 + 5, 1) == [2**63 + 5, 1]
        assert philox_key(2**63 + 5, 1) != philox_key(2**63 + 6, 1)

    def test_largest_seed_is_its_own_key(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert philox_key(2**64 - 1, 1) == [2**64 - 1, 1]

    @pytest.mark.parametrize("seed", ["7", True, 1.5])
    def test_seed_must_be_a_whole_number(self, seed):
        pop = random_population(3)
        table, model = outcome_table([1, 0, None]), ImputationModel.mar_outcome()
        spec = EstimatorSpec("imputation_mean", CellSelector("a"))
        for call in (lambda: random_population(seed),
                     lambda: sample_table(pop, 10, seed),
                     lambda: draw_completion(table, model, seed),
                     lambda: run_multiple_imputation(table, model, 2, spec, seed)):
            with pytest.raises(DataError, match="^seed must be an integer"):
                call()

    def test_seeds_of_any_size_stay_valid(self):
        assert philox_key(2**70 + 5, 1) == [5, 1]
        assert philox_key(-1, 1) == [2**64 - 1, 1]
        pop = random_population(3)
        seven = table_bytes(sample_table(pop, 20, 7))
        for seed in (np.int64(7), np.uint64(7), 7.0, 2**64 + 7):
            assert table_bytes(sample_table(pop, 20, seed)) == seven


#: (seed, first index, rows, dirty): fill ``rows`` streams from (seed, first)
#: on, after a 32-bit draw from the generator when ``dirty``
FILLS = st.tuples(st.integers(0, 2**64 - 1), st.integers(1, 2**33),
                  st.integers(0, 5), st.booleans())


@settings(max_examples=150, deadline=None)
@given(st.lists(FILLS, min_size=1, max_size=4), st.integers(0, 13))
@example([(2**63 + 5, 1, 3, False), (2**63 + 6, 1, 2, True)], 5)
@example([(2**64 - 1, 2**32 - 1, 4, True), (2**64 - 1, 2**32, 1, False)], 7)
@example([(5, 2**64 - 2, 4, False), (2**64 - 1, 2**64 - 1, 2, True)], 3)
@example([(2**64 - 1, 2**64 - 2, 4, True)], 6)
def test_fill_streams_equals_fresh_streams(fills, n):
    """Every row of every fill of one reused generator equals a fresh
    stream's uniforms bit for bit, and the generator ends where the last
    row's fresh stream ends: no state of an earlier key, a partly spent
    output buffer or a cached 32-bit half, leaks into the next. Stream
    words past 2**64 wrap through 0 as :func:`stream` masks them."""
    generator = stream(0, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for seed, first, rows, dirty in fills:
            if dirty:
                generator.random(dtype=np.float32)
            out = np.empty((rows, n))
            fill_streams(generator, seed, first, out)
            for j in range(rows):
                fresh = stream(seed, first + j)
                assert np.array_equal(out[j], fresh.random(n))
            if rows:
                assert philox_position(generator) == philox_position(fresh)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(1, 2**64 - 1), st.integers(0, 5),
       st.integers(0, 13))
def test_fill_streams_over_row_views_equals_the_array(seed, first, rows, n):
    """A list of an array's row views fills as the array does."""
    out, views = np.empty((rows, n)), np.empty((rows, n))
    fill_streams(stream(0, 0), seed, first, out)
    fill_streams(stream(0, 0), seed, first, list(views))
    assert out.tobytes() == views.tobytes()


def philox_position(generator):
    """Where a Philox generator stands: key, counter, output buffer
    position and whether half of a 64-bit output is cached."""
    state = generator.bit_generator.state
    return (state["state"]["key"].tolist(), state["state"]["counter"].tolist(),
            state["buffer_pos"], state["has_uint32"])


# ---------------------------------------------------------------------------
# the plan's counts against the sorts they replace


@st.composite
def counted_codes(draw):
    """Codes with a space on either side of the dense rule, or small."""
    n = draw(st.integers(0, 40))
    rule = max(4 * n, 2**16)
    space = draw(st.sampled_from([1, 2, n + 1, rule - 1, rule, rule + 1, 3 * rule]))
    high = draw(st.integers(0, space - 1))
    codes = draw(st.lists(st.integers(0, high), min_size=n, max_size=n))
    return np.array(codes, dtype=np.int64), space


@settings(max_examples=300, deadline=None)
@given(counted_codes())
@example((np.array([], dtype=np.int64), 1))
@example((np.array([], dtype=np.int64), 2**16 + 1))
@example((np.array([7], dtype=np.int64), 8))
@example((np.array([2**16], dtype=np.int64), 2**16 + 1))
def test_count_equals_unique(case):
    """``count_codes`` returns what ``np.unique`` does, in values, dtypes and
    shapes, and sorts only when the space exceeds ``max(4 n, 2**16)``."""
    codes, space = case
    with mock.patch.object(np, "unique", wraps=np.unique) as sorts:
        got = count_codes(codes, space)
    assert sorts.called == (space > max(4 * len(codes), 2**16))
    expected = np.unique(codes, return_inverse=True, return_counts=True)
    for mine, theirs in zip(got, expected, strict=True):
        assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape)
        assert mine.tobytes() == theirs.tobytes()


def sorted_plan(table, model):
    """The plan as the sort-based coding built it: ``np.unique`` for the
    outcome index, the fit's atoms and (stratum, atom) pairs and the
    missing records' strata. Returns ``missing, row_of, cdf_mat, val_mat,
    strata``, or raises what that plan raised."""
    require_regime(table, f"model {model.kind!r}", model.target)
    if model.target == "outcome":
        column, observed = table.y, np.asarray(table.z_y)
    else:
        column, observed = table.w, np.asarray(table.z_w)
    if model.target == "outcome" or model.kind == "ecological":
        codes, key = table.x, int
    else:
        y_levels, y_index = np.unique(table.y, return_inverse=True)
        n_x = total_size(table.x_domains)
        codes = y_index * n_x + table.x

        def key(code):
            return (float(y_levels[code // n_x]), int(code % n_x))
    missing = np.flatnonzero(~observed)
    if model.kind in ("explicit_outcome_q", "explicit_covariate_q"):
        strata = {k: (atoms, np.cumsum(probs)) for k, (atoms, probs)
                  in coded_strata(model, table).items()}
    else:
        strata, values = {}, column[observed]
        if len(values):
            atoms, atom_of = np.unique(values, return_inverse=True)
            pairs, counts = np.unique(codes[observed] * len(atoms) + atom_of,
                                      return_counts=True)
            stratum_of = pairs // len(atoms)
            starts = np.flatnonzero(np.diff(stratum_of, prepend=-1))
            for lo, hi in zip(starts, [*starts[1:], len(pairs)]):
                c = counts[lo:hi]
                strata[key(stratum_of[lo])] = (atoms[pairs[lo:hi] % len(atoms)],
                                               np.cumsum(c / c.sum()))
    required, row_of = np.unique(codes[missing], return_inverse=True)
    keys = [key(code) for code in required]
    for k in sorted(keys, key=str):
        if k not in strata:
            raise UnfittableStratum(
                f"no distribution to impute from at {stratum_name(table.x_domains, k)}")
    width = max((len(strata[k][1]) for k in keys), default=1)
    cdf_mat = np.ones((len(keys), width))
    val_mat = np.zeros((len(keys), width), dtype=column.dtype)
    for j, k in enumerate(keys):
        atoms, cdf = strata[k]
        cdf_mat[j, :len(cdf)] = cdf
        val_mat[j, :len(atoms)] = atoms
        val_mat[j, len(atoms):] = atoms[-1]
    return missing, row_of, cdf_mat, val_mat, strata


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def assert_plan_matches_sorted(table, model):
    try:
        expected = sorted_plan(table, model)
    except ImputeBoundsError as e:
        with pytest.raises(type(e)) as raised:
            ImputationPlan(table, model)
        assert str(raised.value) == str(e)
        return
    missing, row_of, cdf_mat, val_mat, strata = expected
    plan = ImputationPlan(table, model)
    for mine, theirs in ((plan.missing, missing), (plan.row_of, row_of),
                         (plan.cdf_mat, cdf_mat), (plan.val_mat, val_mat)):
        assert same_bytes(mine, theirs)
    assert list(plan.fitted.strata) == list(strata)
    for k, (atoms, cdf) in strata.items():
        assert same_bytes(plan.fitted.strata[k][0], atoms)
        assert same_bytes(plan.fitted.strata[k][1], cdf)


KINDS = ("mar_outcome", "explicit_outcome_q", "mar_covariate",
         "explicit_covariate_q", "ecological")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(KINDS),
       st.sampled_from([(0.0, 1.0), (0.0, 0.5, 2.0), (-1.0, 0.25, 0.5, 3.0, 7.5)]),
       st.lists(st.integers(1, 3), min_size=1, max_size=2),
       st.integers(2, 4), st.integers(0, 80), st.integers(0, 2**32 - 1))
def test_plan_equals_the_sorted_plan(kind, values, x_sizes, n_w, n, seed):
    """Every kind, binary and real outcomes, tables from empty to ones with
    strata that lack donors: the counted plan has the sorted plan's bytes,
    or raises its error naming the same stratum."""
    covariate = kind in ("mar_covariate", "explicit_covariate_q", "ecological")
    pop = random_population(seed, outcome_values=values, x_sizes=tuple(x_sizes),
                            w_sizes=(n_w,), regime="covariate" if covariate else "outcome")
    table = sample_table(pop, n, seed + 1)
    model = {"mar_outcome": ImputationModel.mar_outcome(),
             "explicit_outcome_q": true_outcome_model(pop),
             "mar_covariate": ImputationModel.mar_covariate(),
             "explicit_covariate_q": true_covariate_model(pop),
             "ecological": ImputationModel.ecological()}[kind]
    assert_plan_matches_sorted(table, model)


class TestCountedPlanEdges:
    X3 = (CategoricalDomain("g", ("a", "b", "c")),)

    @pytest.mark.parametrize("present", [0.0, 1.0])
    @pytest.mark.parametrize("model", [ImputationModel.mar_covariate(),
                                       ImputationModel.ecological()])
    def test_binary_outcome_with_one_level(self, present, model):
        """y is its own index, so a binary table holding only y = 1 codes
        (1, x) as 1 * |X| + x, where the sorted coding made it 0 * |X| + x;
        the rows, CDFs and keys are the same."""
        table = ObservationTable(
            OutcomeDomain.binary_01(), self.X3, W2, np.full(6, present),
            np.array([0, 2, 2, 0, 2, 1]), np.array([0, 1, -1, -1, 0, 1]))
        assert_plan_matches_sorted(table, model)
        codes, key, _, space = yx_codes(table)
        assert space == 6
        assert [key(code)[0] for code in codes] == [present] * 6

    def test_real_outcome_takes_the_sorted_route(self):
        """A real outcome with many levels and many x levels makes a (y, x)
        space too large to count densely: each (y, x) stratum holds one
        donor and one missing record."""
        x_domains = (CategoricalDomain("g", tuple(f"v{i}" for i in range(400))),)
        rng = np.random.default_rng(3)
        y = np.repeat(rng.permutation(200) / 7.0, 2)
        x = np.repeat(rng.integers(0, 400, 200), 2)
        w = np.tile([1, -1], 200)
        table = ObservationTable(OutcomeDomain(0.0, 30.0), x_domains, W2, y, x, w)
        assert yx_codes(table)[3] > max(4 * table.n, 2**16)
        with mock.patch.object(np, "unique", wraps=np.unique) as sorts:
            plan = ImputationPlan(table, ImputationModel.mar_covariate())
        # the outcome index, the fit's pairs and the missing strata
        assert sorts.call_count == 3
        assert plan.cdf_mat.tolist() == [[1.0]] * 200
        assert_plan_matches_sorted(table, ImputationModel.mar_covariate())

    @pytest.mark.parametrize("model", [ImputationModel.mar_outcome(),
                                       ImputationModel.mar_covariate()])
    def test_table_without_missing_records(self, model):
        table = ObservationTable(OutcomeDomain.binary_01(), self.X3, W2,
                                 [0.0, 1.0, 1.0], [0, 1, 2], [0, 1, 1])
        plan = ImputationPlan(table, model)
        assert (len(plan.missing), plan.cdf_mat.shape) == (0, (0, 1))
        assert_plan_matches_sorted(table, model)

    def test_unfittable_stratum_names_the_first_in_string_order(self):
        """Strata (1.0, x=c) and (0.0, x=b) lack donors; the error names
        the first in the string order of their keys, as it always did."""
        table = ObservationTable(
            OutcomeDomain.binary_01(), self.X3, W2,
            [1.0, 0.0, 1.0, 0.0, 1.0], [2, 1, 0, 0, 0], [-1, -1, 0, 1, -1])
        with pytest.raises(UnfittableStratum, match=r"\(y=0\.0, x=\('b',\)\)"):
            ImputationPlan(table, ImputationModel.mar_covariate())
        assert_plan_matches_sorted(table, ImputationModel.mar_covariate())
