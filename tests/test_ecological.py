import numpy as np
import pytest

from imputebounds import (
    ImputationModel,
    ShortDistributions,
    duncan_davis_bounds,
    duncan_davis_oracle,
    ecological_plim,
    imputed_long_mean,
    joint_population,
    plim_imputed_long_mean,
    sample_table,
)
from imputebounds.domain import (
    CategoricalDomain, CellSelector, FinitePopulation, OutcomeDomain)
from imputebounds.rmi import draw_completion, fit_model
from imputebounds.simlab import MissingnessMechanism, apply_mechanism
from imputebounds.errors import (
    DataError, ProbabilityOutOfRange, RegimeMismatch, ZeroCellMass)
from conftest import X1, W2


def frechet_corners(py, pw):
    """Feasible extremes of P(y=1, w=omega) given the two marginals."""
    return max(0.0, py + pw - 1.0), min(py, pw)


class TestDuncanDavisBounds:
    def test_informative_case(self):
        iv = duncan_davis_bounds(ShortDistributions(0.6, 0.5))
        lo_t, hi_t = frechet_corners(0.6, 0.5)
        assert iv.lo == pytest.approx(lo_t / 0.5, abs=1e-12)
        assert iv.hi == pytest.approx(hi_t / 0.5, abs=1e-12)
        assert (iv.lo, iv.hi) == (pytest.approx(0.2), pytest.approx(1.0))

    def test_uninformative_case(self):
        iv = duncan_davis_bounds(ShortDistributions(0.3, 0.2))
        assert (iv.lo, iv.hi) == (0.0, 1.0)

    def test_degenerate_w(self):
        iv = duncan_davis_bounds(ShortDistributions(0.6, 1.0))
        assert iv.lo == iv.hi == pytest.approx(0.6)

    def test_zero_outcome_rate(self):
        iv = duncan_davis_bounds(ShortDistributions(0.0, 0.5))
        assert (iv.lo, iv.hi) == (0.0, 0.0)

    def test_infeasible_inputs_rejected(self):
        with pytest.raises(ProbabilityOutOfRange):
            ShortDistributions(1.2, 0.5)
        with pytest.raises(ProbabilityOutOfRange):
            ShortDistributions(0.5, 0.0)
        with pytest.raises(ProbabilityOutOfRange):
            ShortDistributions(-0.1, 0.5)

    @pytest.mark.parametrize("py, pw", [("0.5", 0.5), (0.5, True), (None, 0.5)])
    def test_probability_that_is_not_a_number_rejected(self, py, pw):
        with pytest.raises(DataError, match="is not a number"):
            ShortDistributions(py, pw)

    def test_matches_oracle_on_grid(self):
        for py in np.linspace(0.0, 1.0, 11):
            for pw in np.linspace(0.1, 1.0, 10):
                sd = ShortDistributions(float(py), float(pw))
                closed = duncan_davis_bounds(sd)
                oracle = duncan_davis_oracle(sd)
                assert abs(closed.lo - oracle.lo) <= 1e-9
                assert abs(closed.hi - oracle.hi) <= 1e-9

    def test_upper_bound_monotone_in_pw(self):
        pws = np.linspace(0.2, 1.0, 30)
        uppers = [duncan_davis_bounds(ShortDistributions(0.55, float(pw))).hi
                  for pw in pws]
        assert all(b <= a + 1e-12 for a, b in zip(uppers, uppers[1:]))
        assert all(0.0 <= u <= 1.0 for u in uppers)


class TestEcologicalPlim:
    def test_equals_short_mean_for_every_omega(self, eco_pop, sel_ao, sel_ap):
        short = eco_pop.ymass_where(xi=0) / eco_pop.mass_where(xi=0)
        assert ecological_plim(eco_pop, sel_ao) == pytest.approx(short, abs=1e-12)
        assert ecological_plim(eco_pop, sel_ap) == pytest.approx(short, abs=1e-12)
        assert ecological_plim(eco_pop, sel_ao) == ecological_plim(eco_pop, sel_ap)

    def test_constant_outcome(self, sel_ao):
        pop = apply_mechanism(
            joint_population({(1.0, "a", "o"): 0.6, (1.0, "a", "p"): 0.4},
                             outcome=OutcomeDomain.binary_01(), x_domains=X1,
                             w_domains=W2, regime="covariate"),
            MissingnessMechanism.constant(1.0))
        assert ecological_plim(pop, sel_ao) == pytest.approx(1.0)

    def test_partially_observed_w_rejected(self, covariate_pop, sel_ao):
        with pytest.raises(RegimeMismatch):
            ecological_plim(covariate_pop, sel_ao)

    def test_agrees_with_general_plim_machinery(self, eco_pop, sel_ao, sel_ap):
        model = ImputationModel.ecological()
        for sel in (sel_ao, sel_ap):
            assert abs(plim_imputed_long_mean(eco_pop, model, sel)
                       - ecological_plim(eco_pop, sel)) <= 1e-12


class TestFutilityExperiment:
    def test_imputed_long_means_collapse_to_short_mean(self, eco_pop, sel_ao, sel_ap):
        # the x-conditional w distribution is estimated from an auxiliary
        # fully observed sample, mirroring the two-dataset setting
        aux_pop = apply_mechanism(
            joint_population({
                (1.0, "a", "o"): 0.30, (0.0, "a", "o"): 0.20,
                (1.0, "a", "p"): 0.10, (0.0, "a", "p"): 0.40,
            }, outcome=OutcomeDomain.binary_01(), x_domains=X1, w_domains=W2,
                regime="covariate"),
            MissingnessMechanism.constant(0.0))
        aux = sample_table(aux_pop, 40000, seed=91)
        fitted = fit_model(ImputationModel.ecological(), aux)
        analysis = sample_table(eco_pop, 40000, seed=17)
        completed = draw_completion(analysis, fitted, seed=23)
        short = eco_pop.ymass_where(xi=0) / eco_pop.mass_where(xi=0)
        est_o = imputed_long_mean(completed, sel_ao)
        est_p = imputed_long_mean(completed, sel_ap)
        assert abs(est_o - est_p) < 0.02
        assert abs(est_o - short) < 0.02
        assert abs(est_p - short) < 0.02


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: ecological_plim(FinitePopulation.from_cells(
        {(1.0, "a", "o", 0): 0.5, (0.0, "a", "p", 0): 0.5},
        outcome=OutcomeDomain.binary_01(),
        x_domains=(CategoricalDomain("g", ("a", "b")),), w_domains=W2,
        regime="covariate"), CellSelector("b")),
                 ZeroCellMass, r"P\(x = 'b'\) = 0", id="plim_zero_cell_mass"),
])
def test_error_paths(call, error, message):
    with pytest.raises(error, match=message):
        call()
