import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imputebounds import (
    CategoricalDomain,
    CellSelector,
    FinitePopulation,
    ImputationModel,
    ObservationTable,
    OutcomeDomain,
    RestrictionGamma,
    consistency_condition,
    identification_interval_pop,
    imputation_mean,
    plim_imputation_mean,
    q_mean_estimate,
    restricted_interval_pop,
    sample_interval,
    true_mean,
    true_outcome_model,
    population_to_json,
)
from imputebounds.simlab import (
    MissingnessMechanism,
    apply_mechanism,
    joint_population,
    random_population,
    sample_table,
)
from imputebounds.rmi import EstimatorSpec, run_multiple_imputation
from imputebounds.errors import (
    DataError,
    EmptyCell,
    MeanOutOfDomain,
    ModelUndefinedOnCell,
    OutcomeOutOfDomain,
    RegimeMismatch,
    ZeroCellMass,
)
from imputebounds.simlab import bias_gap
from conftest import W2, X1, build_mnar_pop


# --- independent oracles -----------------------------------------------------

def full_table_mean(pop, xi_label):
    """Conditional mean by brute-force walk over serialized cells."""
    num = den = 0.0
    for cell in population_to_json(pop)["cells"]:
        if cell["x"] == [xi_label]:
            num += cell["y"] * cell["mass"]
            den += cell["mass"]
    return num / den


def endpoint_enumeration_interval(pop, xi_label):
    """Worst-case interval by re-walking the cells with every missing
    (z=0) outcome forced to each domain endpoint."""
    obj = population_to_json(pop)
    extremes = []
    for v in (obj["outcome_domain"]["lo"], obj["outcome_domain"]["hi"]):
        num = den = 0.0
        for cell in obj["cells"]:
            if cell["x"] != [xi_label]:
                continue
            den += cell["mass"]
            num += (cell["y"] if cell["z"] == 1 else v) * cell["mass"]
        extremes.append(num / den)
    return min(extremes), max(extremes)


def completion_enumeration_interval(observed, n_missing, lo, hi, grid=21):
    """Achievable pooled means when each missing value sweeps a grid of the
    outcome domain (extremes included)."""
    means = []
    values = np.linspace(lo, hi, grid)
    import itertools

    for fill in itertools.product(values, repeat=n_missing):
        means.append(float(np.mean(list(observed) + list(fill))))
    return min(means), max(means)


def make_outcome_table(ys, outcome=None):
    outcome = outcome or OutcomeDomain.binary_01()
    return ObservationTable.from_records(
        [(y, "a", None) for y in ys], outcome, X1)


def completed_single_cell(observed, imputed, outcome=None):
    """A complete table at x = "a": the observed outcomes, then the imputed."""
    return make_outcome_table(list(observed) + list(imputed), outcome)


# --- exact population quantities ----------------------------------------------


class TestTrueMean:
    def test_mixes_observed_and_missing_parts(self, mnar_pop, sel_a):
        assert true_mean(mnar_pop, sel_a) == pytest.approx(
            full_table_mean(mnar_pop, "a"), abs=1e-12)
        assert true_mean(mnar_pop, sel_a) == pytest.approx(0.80, abs=1e-12)

    def test_no_missing_mass_equals_observed_mean(self, sel_a):
        pop = joint_population({(1.0, "a", None): 0.7, (0.0, "a", None): 0.3},
                               outcome=OutcomeDomain.binary_01(), x_domains=X1)
        assert true_mean(pop, sel_a) == pytest.approx(0.7, abs=1e-12)

    def test_zero_cell_guard(self, mnar_pop):
        from imputebounds import CategoricalDomain, FinitePopulation

        xd = (CategoricalDomain("g", ("a", "b")),)
        pop = FinitePopulation.from_cells(
            {(1.0, "a", None, 1): 1.0},
            outcome=OutcomeDomain.binary_01(), x_domains=xd)
        with pytest.raises(ZeroCellMass):
            true_mean(pop, CellSelector("b"))


class TestIdentificationInterval:
    def test_matches_endpoint_enumeration(self, mnar_pop, sel_a):
        lo, hi = endpoint_enumeration_interval(mnar_pop, "a")
        iv = identification_interval_pop(mnar_pop, sel_a)
        assert iv.lo == pytest.approx(lo, abs=1e-12)
        assert iv.hi == pytest.approx(hi, abs=1e-12)
        assert (iv.lo, iv.hi) == (pytest.approx(0.35), pytest.approx(0.85))

    def test_no_missingness_degenerates(self, sel_a):
        pop = joint_population({(1.0, "a", None): 0.6, (0.0, "a", None): 0.4},
                               outcome=OutcomeDomain.binary_01(), x_domains=X1)
        iv = identification_interval_pop(pop, sel_a)
        assert iv.lo == iv.hi == pytest.approx(0.6, abs=1e-12)

    def test_nothing_observed_gives_domain(self, sel_a):
        pop = apply_mechanism(
            joint_population({(1.0, "a", None): 0.6, (0.0, "a", None): 0.4},
                             outcome=OutcomeDomain.binary_01(), x_domains=X1),
            MissingnessMechanism.constant(1.0))
        iv = identification_interval_pop(pop, sel_a)
        assert (iv.lo, iv.hi) == (0.0, 1.0)

    def test_width_law(self, sel_a):
        for seed in range(25):
            pop = random_population(seed)
            iv = identification_interval_pop(pop, sel_a)
            p0 = pop.mass_where(xi=0, z=0) / pop.mass_where(xi=0)
            expected = (pop.outcome.hi - pop.outcome.lo) * p0
            assert abs(iv.width - expected) <= 1e-9

    def test_truth_always_inside(self, sel_a):
        for seed in range(25):
            pop = random_population(seed, outcome_values=(0.0, 0.25, 1.0))
            iv = identification_interval_pop(pop, sel_a)
            assert iv.contains(true_mean(pop, sel_a), tol=1e-9)


class TestRestrictedInterval:
    def test_shrinks_to_assumed_range(self, mnar_pop, sel_a):
        iv = restricted_interval_pop(mnar_pop, sel_a, RestrictionGamma(0.4, 0.6))
        assert iv.lo == pytest.approx(0.35 + 0.4 * 0.5, abs=1e-12)
        assert iv.hi == pytest.approx(0.35 + 0.6 * 0.5, abs=1e-12)

    def test_vacuous_restriction_equals_worst_case(self, mnar_pop, sel_a):
        iv = restricted_interval_pop(mnar_pop, sel_a, RestrictionGamma(0.0, 1.0))
        full = identification_interval_pop(mnar_pop, sel_a)
        assert (iv.lo, iv.hi) == (full.lo, full.hi)

    def test_point_restriction_is_degenerate(self, mnar_pop, sel_a):
        iv = restricted_interval_pop(mnar_pop, sel_a, RestrictionGamma(0.9, 0.9))
        assert iv.width == 0.0

    @pytest.mark.parametrize("lo, hi", [(0.6, 0.4), (float("-inf"), 0.5),
                                        (0.5, float("nan"))])
    def test_restriction_is_a_checked_interval(self, lo, hi):
        with pytest.raises(DataError, match="interval"):
            RestrictionGamma(lo, hi)


class TestSampleInterval:
    def test_matches_completion_enumeration(self, sel_a):
        t = make_outcome_table([1, 0, 1, 1, None])
        lo, hi = completion_enumeration_interval([1, 0, 1, 1], 1, 0.0, 1.0)
        iv = sample_interval(t, sel_a)
        assert iv.lo == pytest.approx(lo, abs=1e-12)
        assert iv.hi == pytest.approx(hi, abs=1e-12)
        assert (iv.lo, iv.hi) == (pytest.approx(0.6), pytest.approx(0.8))

    def test_no_missing_degenerates(self, sel_a):
        iv = sample_interval(make_outcome_table([1, 0, 1, 1]), sel_a)
        assert iv.lo == iv.hi == pytest.approx(0.75)

    def test_all_missing_gives_domain(self, sel_a):
        iv = sample_interval(make_outcome_table([None, None]), sel_a)
        assert (iv.lo, iv.hi) == (0.0, 1.0)

    def test_empty_cell_guard(self):
        from imputebounds import CategoricalDomain

        xd = (CategoricalDomain("g", ("a", "b")),)
        t = ObservationTable.from_records(
            [(1.0, "a", None)], OutcomeDomain.binary_01(), xd)
        with pytest.raises(EmptyCell):
            sample_interval(t, CellSelector("b"))

    @given(st.lists(st.sampled_from([0.0, 1.0]), min_size=0, max_size=12),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_any_completion_lands_inside(self, observed, fills):
        dom = OutcomeDomain(0.0, 1.0)
        t = make_outcome_table(list(observed) + [None] * len(fills), dom)
        iv = sample_interval(t, CellSelector("a"))
        pooled = imputation_mean(
            completed_single_cell(observed, fills, dom), CellSelector("a"))
        assert iv.contains(pooled, tol=1e-12)


class TestTableCell:
    """The records at x = xi of a table, as the sample interval and the
    q-mean read them: the interval's width is the missing share of the
    cell times the domain's width."""

    @pytest.mark.parametrize("dom", [OutcomeDomain.binary_01(), OutcomeDomain(-2.0, 3.0)],
                             ids=["binary", "real"])
    def test_width_is_the_missing_share(self, dom, sel_a):
        t = make_outcome_table([1, 0, 1, 1, 0, 1, None, None], dom)
        assert sample_interval(t, sel_a).width == pytest.approx(0.25 * (dom.hi - dom.lo))
        assert q_mean_estimate(t, sel_a, dom.hi) - q_mean_estimate(
            t, sel_a, dom.lo) == pytest.approx(0.25 * (dom.hi - dom.lo))

    def test_fully_observed(self, sel_a):
        t = make_outcome_table([1, 0, 1], OutcomeDomain.binary_01())
        iv = sample_interval(t, sel_a)
        assert iv.width == 0.0 and iv.lo == pytest.approx(2 / 3)
        assert q_mean_estimate(t, sel_a, 0.0) == q_mean_estimate(t, sel_a, 1.0)

    @pytest.mark.parametrize("estimate", [
        sample_interval, lambda t, sel: q_mean_estimate(t, sel, 0.5)],
        ids=["sample_interval", "q_mean_estimate"])
    def test_empty_cell(self, estimate):
        xd = (CategoricalDomain("g", ("a", "b")),)
        t = ObservationTable.from_records(
            [(1.0, "a", None)], OutcomeDomain.binary_01(), xd)
        with pytest.raises(EmptyCell, match="no records at x = 'b'"):
            estimate(t, CellSelector("b"))

    @pytest.mark.parametrize("estimate", [
        sample_interval, lambda t, sel: sample_interval(t, sel).midpoint,
        lambda t, sel: q_mean_estimate(t, sel, 0.5)],
        ids=["sample_interval", "midpoint_estimate", "q_mean_estimate"])
    def test_covariate_table_refused(self, estimate):
        t = ObservationTable.from_records(
            [(1.0, "a", "o"), (0.0, "a", None)], OutcomeDomain.binary_01(), X1, W2)
        for sel in (CellSelector("a"), CellSelector("a", "o")):
            with pytest.raises(RegimeMismatch, match="needs a table in the outcome regime"):
                estimate(t, sel)

    @given(st.lists(st.sampled_from([0.0, 1.0, None]), min_size=1, max_size=40),
           st.sampled_from([OutcomeDomain.binary_01(), OutcomeDomain(0.0, 1.0),
                            OutcomeDomain(-1.0, 2.0)]))
    def test_width_within_domain_width_and_interval_inside_domain(self, ys, dom):
        iv = sample_interval(make_outcome_table(ys, dom), CellSelector("a"))
        assert 0.0 <= iv.width <= dom.hi - dom.lo
        assert dom.lo <= iv.lo <= iv.hi <= dom.hi
        assert iv.width == pytest.approx(
            ys.count(None) / len(ys) * (dom.hi - dom.lo), abs=1e-12)


class TestImputationMean:
    def test_pools_observed_and_imputed(self, sel_a):
        assert imputation_mean(
            completed_single_cell([1, 0, 1], [0]), sel_a) == pytest.approx(0.5)

    def test_mean_preserving_fill(self, sel_a):
        dom = OutcomeDomain(0.0, 1.0)
        c = completed_single_cell([1, 0, 1, 0], [0.5, 0.5], dom)
        assert imputation_mean(c, sel_a) == pytest.approx(0.5)

    def test_out_of_domain_guard(self):
        # no completion can hold an outcome outside its domain
        with pytest.raises(OutcomeOutOfDomain):
            completed_single_cell([1, 0], [1.5], OutcomeDomain(0.0, 1.0))

    def test_decomposition(self, sel_a):
        obs = [1.0, 0.0, 1.0, 1.0]
        imp = [0.25, 0.75]
        c = completed_single_cell(obs, imp, OutcomeDomain(0.0, 1.0))
        pi = len(obs) / (len(obs) + len(imp))
        expected = pi * np.mean(obs) + (1 - pi) * np.mean(imp)
        assert imputation_mean(c, sel_a) == pytest.approx(expected, abs=1e-12)


class TestPlimImputationMean:
    def test_worked_mnar_value(self, mnar_pop, sel_a):
        model = ImputationModel.explicit_outcome({"a": {0.0: 0.9, 1.0: 0.1}})
        assert plim_imputation_mean(mnar_pop, model, sel_a) == pytest.approx(
            0.7 * 0.5 + 0.1 * 0.5, abs=1e-12)

    def test_true_distribution_recovers_truth(self, mnar_pop, sel_a):
        model = true_outcome_model(mnar_pop)
        assert plim_imputation_mean(mnar_pop, model, sel_a) == pytest.approx(
            true_mean(mnar_pop, sel_a), abs=1e-12)
        assert consistency_condition(mnar_pop, model, sel_a)

    def test_mar_model_consistent_under_mar(self, sel_a):
        joint = joint_population(
            {(1.0, "a", None): 0.6, (0.0, "a", None): 0.4},
            outcome=OutcomeDomain.binary_01(), x_domains=X1)
        pop = apply_mechanism(joint, MissingnessMechanism.constant(0.4))
        model = ImputationModel.mar_outcome()
        assert plim_imputation_mean(pop, model, sel_a) == pytest.approx(
            true_mean(pop, sel_a), abs=1e-12)
        assert consistency_condition(pop, model, sel_a)


class TestModelGuards:
    """Each raise of :class:`ModelUndefinedOnCell` on an outcome limit,
    with its message: no outcome is observed at x = a."""

    POP_CELLS = {(1.0, "a", None, 0): 0.4, (0.0, "a", None, 0): 0.1,
                 (1.0, "b", None, 1): 0.3, (0.0, "b", None, 0): 0.2}

    @pytest.mark.parametrize("model, message", [
        (ImputationModel.mar_outcome(), "no observed outcomes at x = 'a' to match"),
        (ImputationModel.explicit_outcome([(("b",), [(0.0, 0.5), (1.0, 0.5)])]),
         "model has no distribution at x = 'a'"),
    ], ids=["mar_outcome", "explicit_q"])
    def test_model_undefined_at_xi(self, model, message):
        pop = FinitePopulation.from_cells(
            self.POP_CELLS, outcome=OutcomeDomain.binary_01(),
            x_domains=(CategoricalDomain("g", ("a", "b")),))
        with pytest.raises(ModelUndefinedOnCell) as exc:
            plim_imputation_mean(pop, model, CellSelector("a"))
        assert str(exc.value) == message


class TestPopulationRegime:
    """z of a covariate-regime population marks missing covariates, so
    every reading of z as outcome missingness refuses it; the truth reads
    no z."""

    POP = random_population(3, x_sizes=(2,), w_sizes=(2,), regime="covariate")
    SEL = CellSelector("a")

    @pytest.mark.parametrize("reading", [
        identification_interval_pop,
        lambda pop, sel: restricted_interval_pop(pop, sel, RestrictionGamma(0.2, 0.8)),
        lambda pop, sel: plim_imputation_mean(pop, ImputationModel.mar_outcome(), sel),
        lambda pop, sel: consistency_condition(pop, ImputationModel.mar_outcome(), sel),
        lambda pop, sel: bias_gap(pop, ImputationModel.mar_outcome(), sel),
    ], ids=["interval", "restricted", "plim", "consistency", "bias_gap"])
    def test_covariate_regime_population_refused(self, reading):
        with pytest.raises(RegimeMismatch, match="needs a population in the outcome regime"):
            reading(self.POP, self.SEL)

    def test_truth_reads_either_regime(self):
        assert true_mean(self.POP, self.SEL) == true_mean(
            random_population(3, x_sizes=(2,), w_sizes=(2,)), self.SEL)

    @pytest.mark.parametrize("model", [
        ImputationModel.mar_covariate(), ImputationModel.ecological()], ids=lambda m: m.kind)
    @pytest.mark.parametrize("reading", [plim_imputation_mean, consistency_condition],
                             ids=["plim", "consistency"])
    def test_covariate_model_refused(self, reading, model):
        pop = random_population(3, x_sizes=(2,), w_sizes=(2,))
        message = (f"model '{model.kind}' needs a population in the covariate "
                   "regime, not the outcome regime")
        with pytest.raises(RegimeMismatch, match=f"^{message}$"):
            reading(pop, model, self.SEL)


class TestConsistencyCondition:
    def test_mar_empirical_fails_under_mnar(self, mnar_pop, sel_a):
        model = ImputationModel.mar_outcome()
        assert not consistency_condition(mnar_pop, model, sel_a)
        plim = plim_imputation_mean(mnar_pop, model, sel_a)
        assert plim == pytest.approx(0.7, abs=1e-12)
        assert plim != pytest.approx(true_mean(mnar_pop, sel_a), abs=1e-3)

    def test_mean_matched_distribution_suffices(self, sel_a):
        dom = OutcomeDomain(0.0, 1.0)
        joint = joint_population(
            {(1.0, "a", None): 0.7, (0.5, "a", None): 0.2, (0.0, "a", None): 0.1},
            outcome=dom, x_domains=X1)
        pop = apply_mechanism(
            joint, MissingnessMechanism.by_outcome({1.0: 0.5, 0.5: 0.2, 0.0: 0.1}))
        missing_mean = pop.ymass_where(xi=0, z=0) / pop.mass_where(xi=0, z=0)
        assert 0.05 <= missing_mean <= 0.95
        shifted = {missing_mean - 0.05: 0.5, missing_mean + 0.05: 0.5}
        model = ImputationModel.explicit_outcome({"a": shifted})
        assert consistency_condition(pop, model, sel_a)
        assert plim_imputation_mean(pop, model, sel_a) == pytest.approx(
            true_mean(pop, sel_a), abs=1e-12)


class TestQMeanEstimate:
    def test_weighted_blend(self, sel_a):
        dom = OutcomeDomain(0.0, 1.0)
        t = make_outcome_table([1, 1, 0.8, 0, None, None, None, None], dom)
        assert q_mean_estimate(t, sel_a, 0.9) == pytest.approx(
            0.5 * 0.7 + 0.5 * 0.9, abs=1e-12)

    def test_mean_preserving(self, sel_a):
        t = make_outcome_table([1, 0, None, None])
        assert q_mean_estimate(t, sel_a, 0.5) == pytest.approx(0.5)

    def test_no_missing_ignores_e_q(self, sel_a):
        t = make_outcome_table([1, 0, 1, 1])
        assert q_mean_estimate(t, sel_a, 0.1) == pytest.approx(0.75)

    def test_out_of_domain_mean_rejected(self, sel_a):
        with pytest.raises(MeanOutOfDomain):
            q_mean_estimate(make_outcome_table([1, None]), sel_a, 1.5)


class TestMidpointEstimate:
    def test_center_of_sample_interval(self, sel_a):
        t = make_outcome_table([1, 0, 1, 1, None])
        assert sample_interval(t, sel_a).midpoint == pytest.approx(0.7)

    def test_no_missing_returns_observed_mean(self, sel_a):
        assert sample_interval(make_outcome_table([1, 0]), sel_a).midpoint == pytest.approx(0.5)

    def test_all_missing_returns_domain_center(self, sel_a):
        assert sample_interval(make_outcome_table([None, None, None]),
                               sel_a).midpoint == pytest.approx(0.5)

    def test_minimax_over_candidate_grid(self, sel_a):
        for seed in range(5):
            pop = random_population(seed)
            iv = identification_interval_pop(pop, sel_a)
            grid = np.linspace(iv.lo, iv.hi, 101)
            worst = np.maximum((grid - iv.lo) ** 2, (grid - iv.hi) ** 2)
            best = int(np.argmin(worst))
            assert best == 50
            assert worst[best] < worst[best - 1] and worst[best] < worst[best + 1]
            assert grid[best] == pytest.approx(iv.midpoint, abs=1e-12)


class TestOmegaRejected:
    """The missing-outcome functions select on x alone: an omega is
    rejected whether or not its (xi, omega) cell holds a missing outcome."""

    @pytest.mark.parametrize("omega", ["o", "p"])
    @pytest.mark.parametrize("estimate", [
        sample_interval, lambda t, sel: sample_interval(t, sel).midpoint,
        lambda t, sel: q_mean_estimate(t, sel, 0.5)],
        ids=["sample_interval", "midpoint_estimate", "<lambda>"])
    def test_table_functions(self, estimate, omega):
        t = ObservationTable.from_records(
            [(1.0, "a", "o"), (None, "a", "o"), (0.0, "a", "p")],
            OutcomeDomain.binary_01(), X1, W2)
        with pytest.raises(DataError, match="select on x only"):
            estimate(t, CellSelector("a", omega))

    def test_population_interval(self, sel_ao):
        pop = joint_population({(1.0, "a", "o"): 0.5, (0.0, "a", "p"): 0.5},
                               outcome=OutcomeDomain.binary_01(), x_domains=X1,
                               w_domains=W2)
        with pytest.raises(DataError, match="select on x only"):
            identification_interval_pop(pop, sel_ao)


class TestDrawsShareOneLimit:
    def test_every_draw_near_the_same_plim(self, mnar_pop, sel_a):
        model = ImputationModel.explicit_outcome({"a": {0.0: 0.9, 1.0: 0.1}})
        plim = plim_imputation_mean(mnar_pop, model, sel_a)
        table = sample_table(mnar_pop, 20000, seed=41)
        res = run_multiple_imputation(
            table, model, 5, EstimatorSpec("imputation_mean", sel_a), seed=42)
        for est in res.per_draw_estimates:
            assert abs(est - plim) < 0.03
        assert res.pooled_mean == pytest.approx(
            np.mean(res.per_draw_estimates), abs=1e-15)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: restricted_interval_pop(build_mnar_pop(), CellSelector("a"),
                                                 RestrictionGamma(0.5, 1.5)),
                 DataError, "restriction must lie inside the outcome domain",
                 id="restriction_outside_domain"),
])
def test_error_paths(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_consistency_holds_without_missing_mass():
    pop = joint_population({(1.0, "a", None): 0.4, (0.0, "a", None): 0.6},
                           outcome=OutcomeDomain.binary_01(), x_domains=X1)
    assert consistency_condition(pop, ImputationModel.mar_outcome(), CellSelector("a"))
