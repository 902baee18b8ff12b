import itertools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imputebounds import (
    CellSelector,
    FinitePopulation,
    ImputationModel,
    ObservationTable,
    OutcomeDomain,
    QCovariateModel,
    binary_bounds_closed_form,
    binary_bounds_oracle,
    imputed_cell_share,
    imputed_long_mean,
    matching_conditions,
    midpoint_long_estimate,
    mixture_conditional_mean,
    mixture_joint_estimate,
    plim_imputed_long_mean,
    true_covariate_model,
    true_long_mean,
)
from imputebounds.simlab import (
    MissingnessMechanism,
    apply_mechanism,
    bias_gap,
    joint_population,
    random_population,
    sample_table,
)
from imputebounds.domain import (
    CategoricalDomain, flat_value, value_labels)
from imputebounds.rmi import draw_completion, fit_model
from imputebounds.ecological import ecological_plim
from imputebounds.errors import (
    DataError,
    EmptyCell,
    ModelUndefinedOnCell,
    NonBinaryOutcome,
    QUndefinedForStratum,
    RegimeMismatch,
    ZeroCellMass,
    ZeroDenominator,
)
from conftest import X1, W2, build_routing_pop_and_q


# --- independent allocation oracle ---------------------------------------------

def allocation_extremes(obs_success, obs_total, missing_by_y):
    """Extremes of (obs_success + s1) / (obs_total + s1 + s0) when each
    missing stratum's mass goes entirely into or out of the cell."""
    strata = list(missing_by_y.items())
    values = []
    for corner in itertools.product((0, 1), repeat=len(strata)):
        s1 = sum(m for take, (y, m) in zip(corner, strata) if take and y == 1.0)
        s0 = sum(m for take, (y, m) in zip(corner, strata) if take and y == 0.0)
        den = obs_total + s1 + s0
        if den > 1e-15:
            values.append((obs_success + s1) / den)
    return min(values), max(values)


def covariate_table(records):
    """records: (y, w or None) at the single x cell."""
    return ObservationTable.from_records(
        [(y, "a", w) for y, w in records], OutcomeDomain.binary_01(), X1, W2)


def completed_cell(observed_pairs, imputed_pairs):
    """A complete table at a single x: the observed (y, w label) pairs,
    then the imputed."""
    return covariate_table(list(observed_pairs) + list(imputed_pairs))


def random_covariate_pop(seed, w_size=2):
    return random_population(seed, x_sizes=(1,), w_sizes=(w_size,),
                             regime="covariate")


class TestTrueLongMean:
    def test_two_cell_ratio(self):
        pop = joint_population(
            {(1.0, "a", "o"): 0.3, (0.0, "a", "o"): 0.1, (0.0, "a", "p"): 0.6},
            outcome=OutcomeDomain.binary_01(), x_domains=X1, w_domains=W2,
            regime="covariate")
        assert true_long_mean(pop, CellSelector("a", "o")) == pytest.approx(0.75)

    def test_constant_outcome(self):
        pop = joint_population(
            {(1.0, "a", "o"): 0.5, (0.0, "a", "p"): 0.5},
            outcome=OutcomeDomain.binary_01(), x_domains=X1, w_domains=W2,
            regime="covariate")
        assert true_long_mean(pop, CellSelector("a", "o")) == 1.0

    def test_zero_mass_guard(self, eco_pop):
        pop = joint_population(
            {(1.0, "a", "o"): 1.0},
            outcome=OutcomeDomain.binary_01(), x_domains=X1, w_domains=W2,
            regime="covariate")
        with pytest.raises(ZeroCellMass):
            true_long_mean(pop, CellSelector("a", "p"))


class TestImputedLongMean:
    def test_pooled_average(self, sel_ao):
        c = completed_cell([(1, "o"), (0, "o"), (1, "o")], [(0, "o")])
        assert imputed_long_mean(c, sel_ao) == pytest.approx(0.5)

    def test_nothing_imputed_in(self, sel_ao):
        c = completed_cell([(1, "o"), (0, "o"), (1, "o")], [(0, "p")])
        assert imputed_long_mean(c, sel_ao) == pytest.approx(2 / 3)

    def test_everything_imputed_in(self, sel_ao):
        c = completed_cell([(1, "p")], [(0, "o"), (0, "o")])
        assert imputed_long_mean(c, sel_ao) == 0.0


class TestPlimImputedLongMean:
    def test_worked_routing_example(self):
        pop, q = build_routing_pop_and_q()
        model = ImputationModel.explicit_covariate(q)
        sel = CellSelector("a", "o")
        assert imputed_cell_share(pop, model, sel) == pytest.approx(0.75, abs=1e-12)
        assert plim_imputed_long_mean(pop, model, sel) == pytest.approx(0.70, abs=1e-12)

    @pytest.mark.parametrize("model", [
        ImputationModel.explicit_covariate(build_routing_pop_and_q()[1]),
        ImputationModel.mar_covariate(), ImputationModel.ecological()])
    def test_values_are_python_floats(self, model):
        pop, _ = build_routing_pop_and_q()
        sel = CellSelector("a", "o")
        assert type(plim_imputed_long_mean(pop, model, sel)) is float
        assert type(imputed_cell_share(pop, model, sel)) is float

    def test_true_distribution_recovers_long_mean(self):
        for seed, x_sizes in ((3, (1,)), (11, (2,))):
            pop = random_population(seed, x_sizes=x_sizes, w_sizes=(2,),
                                    regime="covariate")
            model = true_covariate_model(pop)
            for omega in ("a", "b"):
                sel = CellSelector({"x1": "a"}, {"w1": omega})
                assert plim_imputed_long_mean(pop, model, sel) == pytest.approx(
                    true_long_mean(pop, sel), abs=1e-12)

    def test_unreachable_cell_guard(self):
        pop = joint_population(
            {(1.0, "a", "p"): 0.5, (0.0, "a", "p"): 0.5},
            outcome=OutcomeDomain.binary_01(), x_domains=X1, w_domains=W2,
            regime="covariate")
        q = QCovariateModel({(0.0, ("a",)): {("p",): 1.0},
                             (1.0, ("a",)): {("p",): 1.0}})
        with pytest.raises(ZeroCellMass):
            plim_imputed_long_mean(
                pop, ImputationModel.explicit_covariate(q), CellSelector("a", "o"))

    def test_ecological_draws_recover_only_short_mean(self, eco_pop, sel_ao, sel_ap):
        model = ImputationModel.ecological()
        short = eco_pop.ymass_where(xi=0) / eco_pop.mass_where(xi=0)
        assert plim_imputed_long_mean(eco_pop, model, sel_ao) == pytest.approx(
            short, abs=1e-12)
        assert plim_imputed_long_mean(eco_pop, model, sel_ap) == pytest.approx(
            short, abs=1e-12)


class TestMatchingConditions:
    def test_true_distribution_matches_both(self, covariate_pop, sel_ao):
        model = true_covariate_model(covariate_pop)
        assert matching_conditions(covariate_pop, model, sel_ao) == (True, True)

    def test_ecological_fails_mean_condition(self, eco_pop, sel_ao):
        flag_mass, flag_mean = matching_conditions(
            eco_pop, ImputationModel.ecological(), sel_ao)
        assert flag_mass is True
        assert flag_mean is False

    def test_mar_covariate_matches_when_missingness_ignores_w(self):
        joint = joint_population({
            (1.0, "a", "o"): 0.30, (0.0, "a", "o"): 0.10,
            (1.0, "a", "p"): 0.15, (0.0, "a", "p"): 0.45,
        }, outcome=OutcomeDomain.binary_01(), x_domains=X1, w_domains=W2,
            regime="covariate")
        pop = apply_mechanism(
            joint, MissingnessMechanism.by_outcome({1.0: 0.4, 0.0: 0.2}))
        model = ImputationModel.mar_covariate()
        sel = CellSelector("a", "o")
        assert matching_conditions(pop, model, sel) == (True, True)
        assert plim_imputed_long_mean(pop, model, sel) == pytest.approx(
            true_long_mean(pop, sel), abs=1e-12)

    def test_match_chain_from_exact_distribution(self):
        for seed in range(8):
            pop = random_covariate_pop(seed, w_size=3)
            model = true_covariate_model(pop)
            for omega in pop.w_domains[0].levels:
                sel = CellSelector({"x1": "a"}, {"w1": omega})
                assert matching_conditions(pop, model, sel) == (True, True)
                assert abs(plim_imputed_long_mean(pop, model, sel)
                           - true_long_mean(pop, sel)) <= 1e-9


class TestBinaryBoundsClosedForm:
    def test_worked_instance_matches_allocation_oracle(self, covariate_pop, sel_ao):
        lo, hi = allocation_extremes(0.3, 0.4, {1.0: 0.2, 0.0: 0.2})
        iv = binary_bounds_closed_form(covariate_pop, sel_ao)
        assert iv.lo == pytest.approx(lo, abs=1e-12)
        assert iv.hi == pytest.approx(hi, abs=1e-12)
        assert iv.lo == pytest.approx(0.5, abs=1e-9)
        assert iv.hi == pytest.approx(0.8333333333, abs=1e-9)

    def test_no_missing_data_degenerates(self, sel_ao):
        pop = joint_population(
            {(1.0, "a", "o"): 0.3, (0.0, "a", "o"): 0.3, (0.0, "a", "p"): 0.4},
            outcome=OutcomeDomain.binary_01(), x_domains=X1, w_domains=W2,
            regime="covariate")
        iv = binary_bounds_closed_form(pop, sel_ao)
        assert iv.lo == iv.hi == pytest.approx(0.5)

    def test_non_binary_rejected(self, sel_ao):
        pop = joint_population(
            {(0.5, "a", "o"): 1.0}, outcome=OutcomeDomain(0.0, 1.0),
            x_domains=X1, w_domains=W2, regime="covariate")
        with pytest.raises(NonBinaryOutcome):
            binary_bounds_closed_form(pop, sel_ao)

    def test_table_counts_version(self, sel_ao):
        t = covariate_table([(1, "o"), (1, "o"), (1, "o"), (0, "o"),
                             (1, None), (1, None), (0, None), (0, None)])
        lo, hi = allocation_extremes(3, 4, {1.0: 2, 0.0: 2})
        iv = binary_bounds_closed_form(t, sel_ao)
        assert iv.lo == pytest.approx(lo, abs=1e-12)
        assert iv.hi == pytest.approx(hi, abs=1e-12)


class TestBinaryBoundsOracle:
    def test_matches_closed_form_on_worked_instance(self, covariate_pop, sel_ao):
        iv = binary_bounds_oracle(covariate_pop, sel_ao)
        cf = binary_bounds_closed_form(covariate_pop, sel_ao)
        assert iv.lo == pytest.approx(cf.lo, abs=1e-12)
        assert iv.hi == pytest.approx(cf.hi, abs=1e-12)

    def test_matches_closed_form_on_random_populations(self):
        for seed in range(60):
            pop = random_covariate_pop(seed, w_size=2 + seed % 2)
            for omega in pop.w_domains[0].levels:
                sel = CellSelector({"x1": "a"}, {"w1": omega})
                cf = binary_bounds_closed_form(pop, sel)
                orc = binary_bounds_oracle(pop, sel)
                assert abs(cf.lo - orc.lo) <= 1e-9
                assert abs(cf.hi - orc.hi) <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(1, 4),
           st.lists(st.integers(2, 4), min_size=1, max_size=2))
    def test_closed_form_equals_oracle_on_drawn_populations(self, seed, nx, w_sizes):
        """Criterion 5's check, at its 1e-9 tolerance, on every (xi, omega)
        cell of drawn ``random_population`` seeds and sizes."""
        pop = random_population(seed, x_sizes=(nx,), w_sizes=tuple(w_sizes),
                                regime="covariate")
        for xi in pop.x_domains[0].levels:
            for omega in itertools.product(*(d.levels for d in pop.w_domains)):
                sel = CellSelector({"x1": xi}, omega)
                cf = binary_bounds_closed_form(pop, sel)
                orc = binary_bounds_oracle(pop, sel)
                assert abs(cf.lo - orc.lo) <= 1e-9
                assert abs(cf.hi - orc.hi) <= 1e-9

    def test_truth_always_inside(self):
        for seed in range(40):
            pop = random_covariate_pop(seed, w_size=3)
            for omega in pop.w_domains[0].levels:
                sel = CellSelector({"x1": "a"}, {"w1": omega})
                assert binary_bounds_oracle(pop, sel).contains(
                    true_long_mean(pop, sel), tol=1e-9)

    def test_nothing_to_allocate(self, sel_ao):
        pop = joint_population(
            {(1.0, "a", "o"): 0.4, (0.0, "a", "o"): 0.4, (0.0, "a", "p"): 0.2},
            outcome=OutcomeDomain.binary_01(), x_domains=X1, w_domains=W2,
            regime="covariate")
        iv = binary_bounds_oracle(pop, CellSelector("a", "o"))
        assert iv.lo == iv.hi == pytest.approx(0.5)

    def test_all_mass_missing_gives_unit_interval(self, eco_pop, sel_ao):
        iv = binary_bounds_oracle(eco_pop, sel_ao)
        assert (iv.lo, iv.hi) == (0.0, 1.0)

    def test_strata_at_other_x_do_not_count(self):
        """Only the strata at xi reach the cell, so a population with many
        x cells has at most four corners to enumerate."""
        pop = random_population(0, x_sizes=(7,), w_sizes=(2,), regime="covariate")
        sel = CellSelector({"x1": "a"}, {"w1": "a"})
        cf = binary_bounds_closed_form(pop, sel)
        orc = binary_bounds_oracle(pop, sel)
        assert abs(cf.lo - orc.lo) <= 1e-9
        assert abs(cf.hi - orc.hi) <= 1e-9
        gap = bias_gap(pop, ImputationModel.mar_covariate(), sel)
        assert gap.interval == orc


XAB = (CategoricalDomain("g", ("a", "b")),)


def two_x_covariate_pop(cells):
    return FinitePopulation.from_cells(
        cells, outcome=OutcomeDomain.binary_01(), x_domains=XAB, w_domains=W2,
        regime="covariate")


class TestModelGuards:
    """Each raise of :class:`ModelUndefinedOnCell` and
    :class:`ZeroDenominator` on a covariate limit, with its message."""

    def test_ecological_at_an_x_with_no_mass(self):
        pop = two_x_covariate_pop({
            (1.0, "a", "o", 1): 0.4, (0.0, "a", "p", 1): 0.3,
            (1.0, "a", "o", 0): 0.2, (0.0, "a", "p", 0): 0.1})
        with pytest.raises(ModelUndefinedOnCell) as exc:
            plim_imputed_long_mean(pop, ImputationModel.ecological(),
                                   CellSelector("b", "o"))
        assert str(exc.value) == "P(x = 'b') = 0"

    def test_mar_covariate_stratum_without_donors(self):
        pop = two_x_covariate_pop({
            (0.0, "a", "o", 1): 0.4, (0.0, "a", "p", 1): 0.3,
            (1.0, "a", "o", 0): 0.2, (0.0, "a", "p", 0): 0.1})
        with pytest.raises(ModelUndefinedOnCell) as exc:
            plim_imputed_long_mean(pop, ImputationModel.mar_covariate(),
                                   CellSelector("a", "o"))
        assert str(exc.value) == "no observed covariates at (y=1.0, x='a') to match"

    def test_explicit_q_lacking_a_stratum(self):
        pop = two_x_covariate_pop({
            (1.0, "a", "o", 1): 0.4, (0.0, "a", "p", 1): 0.3,
            (1.0, "a", "o", 0): 0.2, (0.0, "a", "p", 0): 0.1})
        q = ImputationModel.explicit_covariate({(1.0, ("a",)): {("o",): 1.0}})
        with pytest.raises(ModelUndefinedOnCell) as exc:
            plim_imputed_long_mean(pop, q, CellSelector("a", "o"))
        assert str(exc.value) == "model has no stratum (y=0.0, x='a')"

    @pytest.mark.parametrize("bounds, message", [
        (binary_bounds_closed_form, "bound denominator is zero"),
        (binary_bounds_oracle, "the pooled cell is empty under every allocation"),
    ], ids=["closed_form", "oracle"])
    def test_empty_pooled_cell(self, bounds, message):
        pop = two_x_covariate_pop({
            (1.0, "b", "o", 1): 0.4, (0.0, "b", "p", 1): 0.3,
            (1.0, "b", "o", 0): 0.2, (0.0, "b", "p", 0): 0.1})
        with pytest.raises(ZeroDenominator) as exc:
            bounds(pop, CellSelector("a", "o"))
        assert str(exc.value) == message


class TestPopulationRegime:
    """z of an outcome-regime population marks missing outcomes, so every
    reading of z as covariate missingness refuses it; the truth reads no z."""

    POP = random_population(3, x_sizes=(2,), w_sizes=(2,))
    SEL = CellSelector("a", "a")

    @pytest.mark.parametrize("reading", [
        lambda pop, sel: plim_imputed_long_mean(pop, ImputationModel.mar_covariate(), sel),
        lambda pop, sel: imputed_cell_share(pop, ImputationModel.ecological(), sel),
        lambda pop, sel: matching_conditions(pop, ImputationModel.mar_covariate(), sel),
        binary_bounds_closed_form,
        binary_bounds_oracle,
    ], ids=["plim", "cell_share", "matching", "closed_form", "oracle"])
    def test_outcome_regime_population_refused(self, reading):
        with pytest.raises(RegimeMismatch, match="needs a population in the covariate regime"):
            reading(self.POP, self.SEL)

    def test_ecological_plim_refuses_an_outcome_regime_population(self):
        pop = FinitePopulation.from_cells(
            {(1.0, "a", "o", 0): 0.3, (0.0, "a", "o", 0): 0.2,
             (1.0, "a", "p", 0): 0.1, (0.0, "a", "p", 0): 0.4},
            outcome=OutcomeDomain.binary_01(), x_domains=X1, w_domains=W2)
        with pytest.raises(RegimeMismatch, match="needs a population in the covariate regime"):
            ecological_plim(pop, CellSelector("a", "o"))

    def test_truth_reads_either_regime(self):
        assert true_long_mean(self.POP, self.SEL) == true_long_mean(
            random_population(3, x_sizes=(2,), w_sizes=(2,), regime="covariate"),
            self.SEL)

    @pytest.mark.parametrize("reading", [
        plim_imputed_long_mean, imputed_cell_share, matching_conditions],
        ids=["plim", "cell_share", "matching"])
    def test_outcome_model_refused(self, reading):
        pop = random_population(3, x_sizes=(2,), w_sizes=(2,), regime="covariate")
        message = ("model 'mar_outcome' needs a population in the outcome "
                   "regime, not the covariate regime")
        with pytest.raises(RegimeMismatch, match=f"^{message}$"):
            reading(pop, ImputationModel.mar_outcome(), self.SEL)


class TestMidpointLongEstimate:
    def test_midpoint_of_worked_instance(self, sel_ao):
        t = covariate_table(
            [(1, "o")] * 3 + [(0, "o")] + [(1, "p")] + [(0, "p")]
            + [(1, None)] * 2 + [(0, None)] * 2)
        iv = binary_bounds_closed_form(t, sel_ao)
        assert midpoint_long_estimate(t, sel_ao) == pytest.approx(iv.midpoint)

    def test_degenerate_cell(self, sel_ao):
        t = covariate_table([(1, "o"), (0, "o"), (0, "p")])
        assert midpoint_long_estimate(t, sel_ao) == pytest.approx(0.5)

    def test_empty_observed_cell_widens_fully(self, sel_ao):
        t = covariate_table([(1, None), (1, None), (0, None)])
        assert midpoint_long_estimate(t, sel_ao) == pytest.approx(0.5)
        iv = binary_bounds_closed_form(t, sel_ao)
        assert (iv.lo, iv.hi) == (0.0, 1.0)


class TestMixtureEstimate:
    def test_two_record_example(self, sel_ao):
        t = covariate_table([(1, "o"), (0, None)])
        q = QCovariateModel({(0.0, ("a",)): {("o",): 1.0}})
        measure = mixture_joint_estimate(t, q)
        assert measure.mass.tolist() == [0.5, 0.5]
        assert mixture_conditional_mean(measure, sel_ao) == pytest.approx(0.5)

    def test_no_missing_reproduces_empirical_joint(self, sel_ao):
        t = covariate_table([(1, "o"), (1, "o"), (0, "p"), (1, "p")])
        q = QCovariateModel({(0.0, ("a",)): {("o",): 1.0}})
        measure = mixture_joint_estimate(t, q)
        assert mixture_conditional_mean(measure, sel_ao) == pytest.approx(1.0)
        assert float(measure.mass.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_undefined_stratum_guard(self):
        t = covariate_table([(1, "o"), (1, None)])
        q = QCovariateModel({(0.0, ("a",)): {("o",): 1.0}})
        with pytest.raises(QUndefinedForStratum):
            mixture_joint_estimate(t, q)

    def test_single_atom_slice(self, sel_ao, sel_ap):
        t = covariate_table([(1, "o"), (0, "p")])
        measure = mixture_joint_estimate(
            t, QCovariateModel({(0.0, ("a",)): {("o",): 1.0}}))
        assert mixture_conditional_mean(measure, sel_ao) == 1.0
        assert mixture_conditional_mean(measure, sel_ap) == 0.0

    def test_empty_slice_guard(self, sel_ap):
        t = covariate_table([(1, "o"), (0, "o")])
        measure = mixture_joint_estimate(
            t, QCovariateModel({(0.0, ("a",)): {("o",): 1.0}}))
        with pytest.raises(ZeroCellMass, match="P\\(x = 'a', w = 'p'\\) = 0"):
            mixture_conditional_mean(measure, sel_ap)

    def test_table_without_w_roles_is_rejected(self):
        # a population in the covariate regime needs a w role to blank
        t = ObservationTable.from_records([(1.0, "a"), (0.0, "a")],
                                          OutcomeDomain.binary_01(), X1, ())
        q = QCovariateModel({(1.0, ("a",)): {(): 1.0}})
        with pytest.raises(DataError, match="covariate regime requires w domains"):
            mixture_joint_estimate(t, q)

    def test_empirical_q_reproduces_plim_arithmetic(self, sel_ao):
        t = covariate_table(
            [(1, "o"), (1, "o"), (1, "p"), (0, "o"), (0, "p"), (0, "p"),
             (1, None), (1, None), (0, None)])
        obs = np.asarray(t.z_w)
        q_hat = {}
        for y_val in (0.0, 1.0):
            donors = obs & (t.y == y_val)
            p_o = float((t.w[donors] == 0).sum()) / donors.sum()
            q_hat[(y_val, ("a",))] = {("o",): p_o, ("p",): 1.0 - p_o}
        measure = mixture_joint_estimate(t, QCovariateModel(q_hat))

        def q_o(y_val):
            return q_hat[(y_val, ("a",))][("o",)]

        num = float((t.y[obs & (t.w == 0)]).sum())
        den = float((obs & (t.w == 0)).sum())
        for y_val in (0.0, 1.0):
            n_missing = int(((~obs) & (t.y == y_val)).sum())
            num += y_val * q_o(y_val) * n_missing
            den += q_o(y_val) * n_missing
        assert mixture_conditional_mean(measure, sel_ao) == pytest.approx(
            num / den, abs=1e-12)

    def test_mixture_consistent_under_true_q(self):
        pop = random_covariate_pop(17)
        q = true_covariate_model(pop).covariate_q
        sel = CellSelector({"x1": "a"}, {"w1": "a"})
        t = sample_table(pop, 200000, seed=5)
        measure = mixture_joint_estimate(t, q)
        assert mixture_conditional_mean(measure, sel) == pytest.approx(
            true_long_mean(pop, sel), abs=0.015)


def record_loop_mixture(table, q):
    """The mixture estimate as a record-by-record pass: each observed record
    adds 1/N to its own (y, x, w) atom, each missing one adds p/N to every
    atom of its q stratum."""
    share = 1.0 / table.n
    atoms = {}
    for y_val, xf, wf in zip(table.y.tolist(), table.x.tolist(), table.w.tolist()):
        if wf >= 0:
            atoms[(y_val, xf, wf)] = atoms.get((y_val, xf, wf), 0.0) + share
            continue
        for w_key, p in q.distribution(y_val, value_labels(table.x_domains, xf)):
            key = (y_val, xf, flat_value(table.w_domains, w_key))
            atoms[key] = atoms.get(key, 0.0) + p * share
    return sorted(atoms.items())


XG = (CategoricalDomain("g", ("a", "b", "c")), CategoricalDomain("h", ("u", "v")))
WG = (CategoricalDomain("m", ("o", "p", "r")),)
MIXTURE_RECORD = st.tuples(
    st.sampled_from([0.0, 0.3, 1.0]),
    st.tuples(st.sampled_from("abc"), st.sampled_from("uv")),
    st.sampled_from([("o",), ("p",), ("r",), None]))


@st.composite
def mixture_inputs(draw):
    records = draw(st.lists(MIXTURE_RECORD, min_size=1, max_size=60))
    table = ObservationTable.from_records(records, OutcomeDomain(0.0, 1.0), XG, WG)
    strata = {}
    for y_val in (0.0, 0.3, 1.0):
        for x_val in ((g, h) for g in "abc" for h in "uv"):
            raw = draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
            total = sum(raw)
            probs = [r / total for r in raw] if total > 0 else [1.0, 0.0, 0.0]
            probs[-1] = 1.0 - sum(probs[:-1])
            strata[(y_val, x_val)] = {(w,): max(p, 0.0) for w, p in zip("opr", probs)}
    return table, QCovariateModel(strata)


class TestMixtureAgainstRecordLoop:
    @settings(max_examples=100, deadline=None)
    @given(mixture_inputs())
    def test_counts_match_the_record_loop(self, inputs):
        table, q = inputs
        measure = mixture_joint_estimate(table, q)
        expected = record_loop_mixture(table, q)
        got = list(zip(measure.outcome_values[measure.y_i].tolist(),
                       measure.x_i.tolist(), measure.w_i.tolist()))
        assert got == [key for key, _ in expected]
        assert np.abs(measure.mass - [m for _, m in expected]).max() <= 1e-12

    def test_large_random_table(self):
        pop = random_covariate_pop(29)
        table = sample_table(pop, 20000, seed=3)
        q = true_covariate_model(pop).covariate_q
        measure = mixture_joint_estimate(table, q)
        expected = record_loop_mixture(table, q)
        assert len(measure.mass) == len(expected)
        assert np.abs(measure.mass - [m for _, m in expected]).max() <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(mixture_inputs())
    def test_estimate_is_a_valid_population(self, inputs):
        table, q = inputs
        measure = mixture_joint_estimate(table, q)
        assert measure.regime == "covariate" and np.all(measure.z == 1)
        assert (measure.x_domains, measure.w_domains) == (XG, WG)
        assert measure.outcome_values.tolist() == sorted(set(table.y.tolist()))

    def test_large_random_table_is_a_valid_population(self):
        pop = random_covariate_pop(29)
        table = sample_table(pop, 20000, seed=3)
        measure = mixture_joint_estimate(table, true_covariate_model(pop).covariate_q)
        assert measure.outcome_values.tolist() == [0.0, 1.0]

    def test_binary_outcome_is_counted_without_a_sort(self):
        """A binary outcome is its own index, so the observed atoms, the
        missing strata and the merged atoms of 2e3 records are counted."""
        pop = random_covariate_pop(29)
        table = sample_table(pop, 2000, seed=3)
        q = true_covariate_model(pop).covariate_q
        with mock.patch.object(np, "unique", wraps=np.unique) as sorts:
            mixture_joint_estimate(table, q)
        assert not sorts.called

    def test_first_undefined_stratum_in_record_order_is_named(self):
        t = ObservationTable.from_records(
            [(1.0, ("b", "u"), None), (0.0, ("a", "u"), None)],
            OutcomeDomain(0.0, 1.0), XG, WG)
        q = QCovariateModel({(0.5, ("a", "u")): {("o",): 1.0}})
        with pytest.raises(QUndefinedForStratum, match="y=1.0, x=\\('b', 'u'\\)"):
            mixture_joint_estimate(t, q)


class TestPlimConvergence:
    def test_imputed_long_mean_converges_to_plim(self):
        joint = joint_population({
            (1.0, "a", "o"): 0.25, (0.0, "a", "o"): 0.10,
            (1.0, "a", "p"): 0.15, (0.0, "a", "p"): 0.50,
        }, outcome=OutcomeDomain.binary_01(), x_domains=X1, w_domains=W2,
            regime="covariate")
        mech = MissingnessMechanism.by_cell({
            (1.0, "a", "o"): 0.6, (0.0, "a", "o"): 0.2,
            (1.0, "a", "p"): 0.3, (0.0, "a", "p"): 0.5,
        })
        pop = apply_mechanism(joint, mech)
        model = ImputationModel.mar_covariate()
        sel = CellSelector("a", "o")
        plim = plim_imputed_long_mean(pop, model, sel)
        truth = true_long_mean(pop, sel)
        assert abs(plim - truth) > 0.01
        for seed in range(20):
            t = sample_table(pop, 200000, seed=seed)
            completed = draw_completion(t, fit_model(model, t), seed=seed)
            assert abs(imputed_long_mean(completed, sel) - plim) <= 0.015


X2 = (CategoricalDomain("g", ("a", "b")),)


def covariate_cells(cells, outcome=OutcomeDomain.binary_01(), x_domains=X2):
    """A covariate-regime population from ``{(y, x, w, z): mass}``."""
    return FinitePopulation.from_cells(cells, outcome=outcome, x_domains=x_domains,
                                       w_domains=W2, regime="covariate")


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: true_long_mean(covariate_cells({(1.0, "a", "o", 1): 1.0}),
                                         CellSelector("a")),
                 DataError, "this operation selects a (xi, omega) cell",
                 id="x_only_selector"),
    pytest.param(lambda: matching_conditions(
        covariate_cells({(1.0, "a", "o", 1): 0.5, (0.0, "a", "p", 0): 0.5}),
        ImputationModel.mar_covariate(), CellSelector("b", "o")),
                 ZeroCellMass, "P(x = 'b') = 0", id="matching_zero_mass"),
    pytest.param(lambda: binary_bounds_closed_form(object(), CellSelector("a", "o")),
                 DataError, "source must be a population or an observation table",
                 id="wrong_source_type"),
    pytest.param(lambda: binary_bounds_closed_form(ObservationTable(
        OutcomeDomain(0.0, 10.0), X1, W2, [0.0, 5.0], [0, 0], [0, -1]),
        CellSelector("a", "o")),
                 NonBinaryOutcome, "bounds require a binary {0,1} outcome",
                 id="table_not_binary"),
    pytest.param(lambda: binary_bounds_oracle(covariate_cells(
        {(0.5, "a", "o", 1): 0.5, (0.0, "a", "p", 0): 0.5},
        outcome=OutcomeDomain(0.0, 1.0), x_domains=X1), CellSelector("a", "o")),
                 NonBinaryOutcome, "oracle requires a binary {0,1} outcome",
                 id="oracle_not_binary"),
    pytest.param(lambda: mixture_joint_estimate(
        ObservationTable(OutcomeDomain.binary_01(), X1, W2, [], [], []),
        QCovariateModel({(1.0, "a"): {"o": 1.0}})),
                 EmptyCell, "empty table", id="mixture_empty_table"),
])
def test_error_paths(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


@pytest.mark.parametrize("cells, expected", [
    pytest.param({(1.0, "a", "o", 1): 0.5, (0.0, "a", "p", 1): 0.3,
                  (0.0, "b", "o", 0): 0.2}, (True, True), id="vacuous"),
    pytest.param({(1.0, "a", "o", 1): 0.4, (1.0, "a", "p", 0): 0.6}, (False, False),
                 id="one_sided"),
])
def test_matching_conditions_without_missing_mass_at_omega(cells, expected):
    """With no missing mass at (xi, omega) the means match only when the
    model routes none there either."""
    assert matching_conditions(covariate_cells(cells), ImputationModel.ecological(),
                               CellSelector("a", "o")) == expected
