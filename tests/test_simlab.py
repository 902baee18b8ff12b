import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest

from imputebounds import (
    CellSelector,
    ImputationModel,
    OutcomeDomain,
    bias_gap,
    population_to_json,
    sample_table,
    true_mean,
    true_long_mean,
)
from imputebounds.domain import CategoricalDomain
from imputebounds.simlab import (
    ExperimentSpec,
    MissingnessMechanism,
    apply_mechanism,
    convergence_experiment,
    experiment_from_json,
    default_domains,
    joint_population,
    load_experiment,
    random_population,
)
from imputebounds.errors import DataError, ProbabilityOutOfRange
from conftest import X1, build_covariate_pop, build_mnar_pop


def simple_joint(p1=0.6):
    return joint_population(
        {(1.0, "a", None): p1, (0.0, "a", None): 1 - p1},
        outcome=OutcomeDomain.binary_01(), x_domains=X1)


class TestApplyMechanism:
    def test_zero_rate_keeps_everything_observed(self):
        pop = apply_mechanism(simple_joint(), MissingnessMechanism.constant(0.0))
        assert pop.mass_where(z=0) == 0.0

    def test_constant_rate_splits_every_cell(self):
        pop = apply_mechanism(simple_joint(), MissingnessMechanism.constant(0.3))
        for y_idx in (0, 1):
            m1 = pop.mass_where(y_index=y_idx, z=1)
            m0 = pop.mass_where(y_index=y_idx, z=0)
            assert m0 / (m0 + m1) == pytest.approx(0.3, abs=1e-12)

    def test_outcome_dependent_rate_is_mnar(self):
        mech = MissingnessMechanism.by_outcome({1.0: 0.1, 0.0: 0.5})
        pop = apply_mechanism(simple_joint(), mech)
        p1_given_obs = pop.mass_where(y_value=1.0, z=1) / pop.mass_where(z=1)
        p1_given_mis = pop.mass_where(y_value=1.0, z=0) / pop.mass_where(z=0)
        assert abs(p1_given_obs - p1_given_mis) > 0.1

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ProbabilityOutOfRange):
            apply_mechanism(simple_joint(), MissingnessMechanism.constant(1.5))

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_rate_rejected(self, rate):
        with pytest.raises(ProbabilityOutOfRange, match="not finite"):
            apply_mechanism(simple_joint(), MissingnessMechanism.constant(rate))

    def test_non_finite_per_cell_rate_rejected(self):
        mech = MissingnessMechanism.by_x({"a": float("nan")})
        with pytest.raises(ProbabilityOutOfRange, match="not finite"):
            mech.probabilities(simple_joint())

    def test_covariate_conditional_rate(self):
        from imputebounds import CategoricalDomain

        xd = (CategoricalDomain("g", ("a", "b")),)
        joint = joint_population(
            {(1.0, "a", None): 0.3, (0.0, "a", None): 0.2,
             (1.0, "b", None): 0.25, (0.0, "b", None): 0.25},
            outcome=OutcomeDomain.binary_01(), x_domains=xd)
        pop = apply_mechanism(joint, MissingnessMechanism.by_x({"a": 0.1, "b": 0.5}))
        assert pop.mass_where(xi=0, z=0) / pop.mass_where(xi=0) == pytest.approx(0.1)
        assert pop.mass_where(xi=1, z=0) / pop.mass_where(xi=1) == pytest.approx(0.5)

    def test_by_cell_needs_triple_keys(self):
        with pytest.raises(DataError, match=r"\(y, x_value, w_value\) triple"):
            MissingnessMechanism.by_cell({("a", "o"): 0.8, ("a", "p"): 0.1})

    @pytest.mark.parametrize("make", [
        lambda: MissingnessMechanism.constant("x"),
        lambda: MissingnessMechanism.by_outcome({1.0: "x"}),
        lambda: MissingnessMechanism.by_x({"a": None}),
        lambda: MissingnessMechanism.by_cell({(1.0, "a", None): "x"}),
    ])
    def test_rate_that_is_not_a_number_rejected(self, make):
        with pytest.raises(DataError, match="missingness rate .* is not a number"):
            make()

    @pytest.mark.parametrize("make, key", [
        (lambda: MissingnessMechanism.by_outcome({"1.0": 0.1, True: 0.2}), "'1.0'"),
        (lambda: MissingnessMechanism.by_outcome({True: 0.2, 0.0: 0.1}), "True"),
        (lambda: MissingnessMechanism.by_cell({("1", "a", None): 0.1}), r"\('1', 'a', None\)"),
        (lambda: MissingnessMechanism.by_cell({(False, "a", None): 0.1}),
         r"\(False, 'a', None\)"),
    ])
    def test_outcome_key_that_is_not_a_number_rejected(self, make, key):
        # float() would map '1.0' and True to one outcome and drop a rate
        with pytest.raises(DataError, match=f"key {key}.* is not a number"):
            make()

    @pytest.mark.parametrize("make, key", [
        (lambda: MissingnessMechanism.by_x({"1": 0.1, 1: 0.7, ("1",): 0.3, "2": 0.0}),
         "1"),
        (lambda: MissingnessMechanism.by_x({("2",): 0.1, "1": 0.7, "2": 0.3}), "'2'"),
        (lambda: MissingnessMechanism.by_cell({
            (1.0, "1", None): 0.1, (0.0, "2", None): 0.0, (1.0, ("1",), None): 0.9}),
         r"\(1.0, \('1',\), None\)"),
        (lambda: MissingnessMechanism.by_cell({
            (0.0, 2, None): 0.1, (1.0, "1", None): 0.0, (0.0, "2", None): 0.9}),
         r"\(0.0, '2', None\)"),
    ])
    def test_keys_naming_one_cell_twice_rejected(self, make, key):
        # once merged silently, the last rate winning
        from imputebounds import CategoricalDomain

        xd = (CategoricalDomain("g", ("1", "2")),)
        joint = joint_population({(1.0, "1", None): 0.5, (0.0, "2", None): 0.5},
                                 outcome=OutcomeDomain.binary_01(), x_domains=xd)
        with pytest.raises(DataError, match=f"key {key} names the same cell"):
            make().probabilities(joint)

    def test_base_must_be_fully_observed(self):
        with pytest.raises(DataError):
            apply_mechanism(build_mnar_pop(), MissingnessMechanism.constant(0.1))


class TestSampleTable:
    def test_same_seed_identical(self, mnar_pop):
        a = sample_table(mnar_pop, 500, seed=4)
        b = sample_table(mnar_pop, 500, seed=4)
        assert np.array_equal(a.y, b.y, equal_nan=True)
        assert np.array_equal(a.x, b.x)

    def test_point_mass_population(self):
        pop = simple_joint(1.0)
        t = sample_table(pop, 50, seed=1)
        assert np.all(t.y == 1.0)

    def test_frequencies_converge(self, mnar_pop):
        t = sample_table(mnar_pop, 200000, seed=12)
        missing_share = float((~t.z_y).mean())
        assert missing_share == pytest.approx(mnar_pop.mass_where(z=0), abs=0.01)
        obs_mean = float((t.y[t.z_y] == 1.0).mean())
        pop_obs_mean = mnar_pop.ymass_where(z=1) / mnar_pop.mass_where(z=1)
        assert obs_mean == pytest.approx(pop_obs_mean, abs=0.01)

    def test_covariate_regime_blanks_w(self, eco_pop):
        t = sample_table(eco_pop, 100, seed=3)
        assert t.regime == "covariate"
        assert not t.z_w.any()
        assert t.z_y.all()

    @pytest.mark.parametrize("n", [-1, 2.5, "5", True, None])
    def test_bad_n_rejected(self, mnar_pop, n):
        with pytest.raises(DataError):
            sample_table(mnar_pop, n, seed=1)

    def test_zero_records(self, mnar_pop):
        t = sample_table(mnar_pop, 0, seed=1)
        assert t.n == 0 and t.y.dtype == np.float64 and t.w.dtype == np.int64


def zero_mass_outcome_pop():
    """Outcome regime, three outcome values, 10 of 18 cells without mass:
    the middle outcome value has none, and x = a and x = c are never
    missing, so zero-mass cells come in runs and end the cell list."""
    cells = {}
    for y_val, p_y in ((0.0, 0.2), (0.5, 0.0), (1.0, 0.8)):
        for x_val, p_x in (("a", 0.5), ("b", 0.3), ("c", 0.2)):
            cells[(y_val, x_val, None)] = p_y * p_x
    base = joint_population(cells, outcome=OutcomeDomain(0.0, 1.0),
                            x_domains=default_domains("x", (3,)))
    return apply_mechanism(base, MissingnessMechanism.by_x({"a": 0.0, "b": 0.4, "c": 0.0}))


#: sha256 of the ``y``, ``x`` and ``w`` bytes of ``sample_table(pop, n,
#: 2024 + n)``, recorded from the binary-search sampler with per-record
#: blanking that preceded the guide-table search
SAMPLE_DIGESTS = {
    ("outcome_zero_mass", 1):
        "725c4777db328932b197731b1c986c84913a069a2090deb3667b697624551c8b",
    ("outcome_zero_mass", 1000):
        "cb9c5aeca78dff4e206a0410c9cb3b513e3cf03e3a8e5473148d7ce79196f83a",
    ("outcome_zero_mass", 200000):
        "548233fe9c4462944bde8822a0306a35acdc829ab9397d15d0e4abf7fd755a18",
    ("covariate", 1):
        "a227259515c7872ea14931d21bc8fb05e1f8fa1ffbcaee497fe8214eeab1a760",
    ("covariate", 1000):
        "3fa28ab1f76968853e27fc7ca326902d8f63e274d4a308e475fc191878ee27a7",
    ("covariate", 200000):
        "3f1bd4d8fe5a9738066fa507f0bc29d7777c210e8159ed772325cb80c959b88a",
}


@pytest.mark.parametrize("case, n", sorted(SAMPLE_DIGESTS))
def test_sampled_tables_are_pinned(case, n):
    if case == "outcome_zero_mass":
        pop = zero_mass_outcome_pop()
    else:
        pop = random_population(11, x_sizes=(3, 2), w_sizes=(4,), regime="covariate")
    t = sample_table(pop, n, 2024 + n)
    digest = hashlib.sha256()
    for column in (t.y, t.x, t.w):
        digest.update(column.tobytes())
    assert digest.hexdigest() == SAMPLE_DIGESTS[case, n]


class TestRandomPopulation:
    def test_valid_and_deterministic(self):
        a = random_population(5)
        b = random_population(5)
        assert np.array_equal(a.mass, b.mass)

    def test_floor_keeps_every_cell_alive(self):
        pop = random_population(9, w_sizes=(3,), regime="covariate")
        assert pop.mass.min() >= 1e-3

    def test_floor_too_large_rejected(self):
        # the fixed floor of 1e-3 caps a random population below 1000 cells
        random_population(0, outcome_values=tuple(range(499)), x_sizes=(1,))
        with pytest.raises(DataError, match="floor 0.001 too large for 1000 cells"):
            random_population(0, outcome_values=tuple(range(500)), x_sizes=(1,))


class TestExperimentSpec:
    def test_grid_must_increase(self, mnar_pop):
        with pytest.raises(DataError):
            ExperimentSpec(mnar_pop, ImputationModel.mar_outcome(), CellSelector("a"),
                           n_grid=(100, 100), reps=2, seed=0, tolerance=0.1)

    def test_json_round_trip(self, tmp_path, mnar_pop):
        pop_path = tmp_path / "pop.json"
        pop_path.write_text(json.dumps(population_to_json(mnar_pop)))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "population": "pop.json",
            "model": "mar",
            "estimator": "imputation_mean",
            "xi": {"g": "a"},
            "omega": None,
            "n_grid": [50, 100],
            "reps": 2,
            "seed": 7,
            "tolerance": 0.5,
        }))
        spec = load_experiment(spec_path)
        assert spec.n_grid == (50, 100)
        assert spec.model.kind == "mar_outcome"
        assert spec.population.mass_where(z=0) == pytest.approx(0.5)

    def test_inline_population_and_q_model(self, mnar_pop):
        spec = experiment_from_json({
            "population": population_to_json(mnar_pop),
            "model": {"kind": "outcome_q",
                      "strata": [{"x": ["a"],
                                  "dist": [{"y": 0.0, "p": 0.9},
                                           {"y": 1.0, "p": 0.1}]}]},
            "estimator": "imputation_mean",
            "xi": {"g": "a"},
            "n_grid": [100],
            "reps": 1,
            "seed": 1,
            "tolerance": 1.0,
        })
        assert spec.model.kind == "explicit_outcome_q"

    def test_unknown_estimator_rejected_when_loaded(self, mnar_pop):
        with pytest.raises(DataError, match=r"unknown estimator 'nope'; expected one of "
                                            r"\['imputation_mean', 'long_mean'\]"):
            experiment_from_json({
                "population": population_to_json(mnar_pop), "model": "mar",
                "estimator": "nope", "xi": {"g": "a"}, "n_grid": [100],
                "reps": 1, "seed": 1, "tolerance": 1.0})


class TestConvergenceExperiment:
    def test_biased_model_converges_to_plim_not_truth(self, mnar_pop, sel_a):
        model = ImputationModel.explicit_outcome({"a": {0.0: 0.9, 1.0: 0.1}})
        spec = ExperimentSpec(mnar_pop, model, sel_a,
                              n_grid=(500, 20000), reps=4, seed=21,
                              tolerance=0.05)
        report = convergence_experiment(spec)
        assert report.plim == pytest.approx(0.40, abs=1e-12)
        assert abs(report.plim - true_mean(mnar_pop, sel_a)) > 0.3
        assert report.entries[-1].max_abs_dev < report.entries[0].max_abs_dev + 0.05
        assert report.entries[-1].passed

    def test_long_mean_report_plim_is_a_float(self, covariate_pop, sel_ao):
        spec = ExperimentSpec(covariate_pop, ImputationModel.mar_covariate(),
                              sel_ao, n_grid=(200,), reps=1,
                              seed=3, tolerance=1.0)
        assert type(convergence_experiment(spec).to_json()["plim"]) is float

    def test_consistent_model_converges_to_truth(self, sel_a):
        pop = apply_mechanism(simple_joint(), MissingnessMechanism.constant(0.4))
        spec = ExperimentSpec(pop, ImputationModel.mar_outcome(), sel_a,
                              n_grid=(500, 20000), reps=4, seed=22,
                              tolerance=0.1)
        report = convergence_experiment(spec)
        assert report.plim == pytest.approx(true_mean(pop, sel_a), abs=1e-12)
        assert report.passed
        assert report.entries[-1].max_abs_dev < 0.02

    def test_tiny_n_with_loose_tolerance_passes(self, mnar_pop, sel_a):
        spec = ExperimentSpec(mnar_pop, ImputationModel.mar_outcome(), sel_a,
                              n_grid=(10,), reps=5, seed=3, tolerance=1.0)
        assert convergence_experiment(spec).passed

    def test_rare_cell_skips_are_recorded_and_fail_the_entry(self):
        from imputebounds import CategoricalDomain

        xd = (CategoricalDomain("g", ("a", "b")),)
        pop = apply_mechanism(
            joint_population(
                {(1.0, "a", None): 0.58, (0.0, "a", None): 0.40,
                 (1.0, "b", None): 0.01, (0.0, "b", None): 0.01},
                outcome=OutcomeDomain.binary_01(), x_domains=xd),
            MissingnessMechanism.constant(0.3))
        spec = ExperimentSpec(pop, ImputationModel.mar_outcome(), CellSelector("b"),
                              n_grid=(20,), reps=20, seed=5, tolerance=1.0)
        report = convergence_experiment(spec)
        assert report.entries[0].skips > 1
        assert not report.entries[0].passed

    def test_all_skipped_entry_reports_null_deviations(self):
        from imputebounds import CategoricalDomain

        # no outcome at x = b is ever observed, so mar_outcome cannot be
        # fitted on any sample that holds a record there: every rep skips
        xd = (CategoricalDomain("g", ("a", "b")),)
        pop = apply_mechanism(
            joint_population(
                {(1.0, "a", None): 0.3, (0.0, "a", None): 0.2,
                 (1.0, "b", None): 0.25, (0.0, "b", None): 0.25},
                outcome=OutcomeDomain.binary_01(), x_domains=xd),
            MissingnessMechanism.by_x({"a": 0.0, "b": 1.0}))
        spec = ExperimentSpec(pop, ImputationModel.mar_outcome(), CellSelector("a"),
                              n_grid=(50,), reps=4, seed=1, tolerance=1.0)
        report = convergence_experiment(spec)
        assert report.entries[0].skips == 4
        entry = report.to_json()["entries"][0]
        assert entry["mean_abs_dev"] is None and entry["max_abs_dev"] is None
        json.dumps(report.to_json(), allow_nan=False)

    def test_deviation_shrinks_with_n(self, mnar_pop, sel_a):
        model = ImputationModel.explicit_outcome({"a": {0.0: 0.9, 1.0: 0.1}})
        wins = 0
        for seed in range(20):
            spec = ExperimentSpec(mnar_pop, model, sel_a,
                                  n_grid=(2000, 200000), reps=1, seed=seed,
                                  tolerance=1.0)
            rep = convergence_experiment(spec)
            wins += rep.entries[1].max_abs_dev < rep.entries[0].max_abs_dev
        assert wins >= 18


    def test_one_table_of_columns_alive_at_a_time(self):
        """A replication's table dies before the next is sampled, and each
        sampled column is held once: the traced peak of two reps at n stays
        within 2.5 times one table's column bytes (y, x and w, 8 bytes a
        record each)."""
        n = 200_000
        pop = random_population(6061, x_sizes=(3, 2), w_sizes=(4,),
                                regime="covariate")
        spec = ExperimentSpec(pop, ImputationModel.mar_covariate(),
                              CellSelector(["a", "a"], ["a"]), n_grid=(n,),
                              reps=2, seed=9303, tolerance=1.0)
        tracemalloc.start()
        try:
            convergence_experiment(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * 24


class TestBiasGap:
    def test_worked_mnar_gap(self, mnar_pop, sel_a):
        model = ImputationModel.explicit_outcome({"a": {0.0: 0.9, 1.0: 0.1}})
        rep = bias_gap(mnar_pop, model, sel_a)
        assert rep.gap == pytest.approx(-0.40, abs=1e-12)
        assert rep.truth == pytest.approx(0.80, abs=1e-12)
        assert rep.truth_covered
        assert (rep.interval.lo, rep.interval.hi) == (
            pytest.approx(0.35), pytest.approx(0.85))
        assert rep.imputation_point_in_interval

    def test_consistent_model_has_zero_gap(self, mnar_pop, sel_a):
        from imputebounds import true_outcome_model

        rep = bias_gap(mnar_pop, true_outcome_model(mnar_pop), sel_a)
        assert abs(rep.gap) <= 1e-12

    def test_ecological_gap_is_short_minus_long(self, eco_pop, sel_ao):
        rep = bias_gap(eco_pop, ImputationModel.ecological(), sel_ao)
        short = eco_pop.ymass_where(xi=0) / eco_pop.mass_where(xi=0)
        expected = short - true_long_mean(eco_pop, sel_ao)
        assert rep.gap == pytest.approx(expected, abs=1e-12)
        assert abs(rep.gap) > 0.1
        assert rep.truth_covered


def x2_spec(**fields):
    """A valid experiment spec object on :data:`X2_POP`, ``fields`` replaced."""
    return dict({"population": population_to_json(X2_POP), "model": "mar",
                 "xi": {"g": "a"}, "n_grid": [100], "reps": 1, "seed": 1,
                 "tolerance": 1.0}, **fields)


X2_POP = joint_population({(1.0, "a", None): 0.3, (0.0, "a", None): 0.2,
                           (1.0, "b", None): 0.1, (0.0, "b", None): 0.4},
                          outcome=OutcomeDomain.binary_01(),
                          x_domains=(CategoricalDomain("g", ("a", "b")),))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: apply_mechanism(X2_POP, MissingnessMechanism.by_outcome({1.0: 0.5})),
                 "no missingness rate for outcome 0.0", id="by_outcome_missing_rate"),
    pytest.param(lambda: apply_mechanism(X2_POP, MissingnessMechanism.by_x({"a": 0.1})),
                 "no missingness rate for some x cell", id="by_x_missing_rate"),
    pytest.param(lambda: apply_mechanism(X2_POP, MissingnessMechanism.by_cell(
        {(1.0, "a", None): 0.5})), "no missingness rate for some cell",
                 id="by_cell_missing_rate"),
    pytest.param(lambda: apply_mechanism(X2_POP, MissingnessMechanism("mvn", None)),
                 "unknown mechanism kind 'mvn'", id="unknown_kind"),
    pytest.param(lambda: apply_mechanism(X2_POP, MissingnessMechanism.by_x(
        {True: 0.5, "a": 0.1, "b": 0.1})), "True names no level of domain 'g'",
                 id="by_x_boolean_key"),
    pytest.param(lambda: apply_mechanism(X2_POP, MissingnessMechanism.by_cell(
        {(y, x, None): 0.5 for y in (0.0, 1.0) for x in ("a", "b", True)})),
                 "True names no level of domain 'g'", id="by_cell_boolean_key"),
    pytest.param(lambda: ExperimentSpec(X2_POP, ImputationModel.mar_outcome(),
                                        CellSelector("a"), (), 1, 1, 0.1),
                 "n_grid is empty", id="empty_n_grid"),
    pytest.param(lambda: ExperimentSpec(X2_POP, ImputationModel.mar_outcome(),
                                        CellSelector("zz"), (100,), 1, 1, 0.1),
                 "unknown level 'zz' for domain 'g'", id="spec_xi_names_no_level"),
    pytest.param(lambda: experiment_from_json(x2_spec(xi={"g": "zz"})),
                 "unknown level 'zz' for domain 'g'", id="spec_json_xi_names_no_level"),
    pytest.param(lambda: experiment_from_json(x2_spec(estimator="long_mean")),
                 re.escape("estimator 'long_mean' does not read the cell "
                           "xi={'g': 'a'}, omega=None"), id="spec_names_the_xw_estimator"),
    pytest.param(lambda: experiment_from_json(x2_spec(
        population=population_to_json(build_covariate_pop()), model="marcov",
        estimator="imputation_mean", xi=["a"], omega={"m": "o"})),
                 re.escape("estimator 'imputation_mean' does not read the cell "
                           "xi=('a',), omega={'m': 'o'}"), id="spec_names_the_x_estimator"),
])
def test_error_paths(call, message):
    with pytest.raises(DataError, match=message):
        call()


def test_more_levels_than_letters_are_numbered():
    assert default_domains("x", (27,))[0].levels == tuple(f"v{i}" for i in range(27))
