"""Bit-level pins of the exact estimands and of convergence reports.

The values below were recorded (exact values as ``float.hex``) from the
implementation in which each interval and plim function kept its own copy
of the missing-outcome decomposition and convergence replications ran
through ``fit_model``/``draw_completion``; the current code must reproduce
them bit for bit.
"""

import pytest

from imputebounds import CellSelector, ImputationModel, RestrictionGamma
from imputebounds.missing_covariate import (
    binary_bounds_closed_form,
    binary_bounds_oracle,
    imputed_cell_share,
    plim_imputed_long_mean,
)
from imputebounds.missing_outcome import (
    identification_interval_pop,
    midpoint_estimate,
    plim_imputation_mean,
    q_mean_estimate,
    restricted_interval_pop,
    sample_interval,
)
from imputebounds.models import true_covariate_model, true_outcome_model
from imputebounds.simlab import (
    ExperimentSpec,
    convergence_experiment,
    random_population,
    sample_table,
)

#: per case: random-population seed, x sizes, and the x cell selected
CASES = {
    "c31": (31, (2,), "a"),
    "c32": (32, (3,), "c"),
    "c33": (33, (2, 2), ("b", "a")),
}


def outcome_case(seed, x_sizes):
    pop = random_population(seed, outcome_values=(0.0, 0.1, 0.35, 0.8),
                            x_sizes=x_sizes)
    return pop, sample_table(pop, 300, seed + 1)


def covariate_case(seed, x_sizes):
    pop = random_population(seed + 100, x_sizes=x_sizes, w_sizes=(3,),
                            regime="covariate")
    return pop, sample_table(pop, 400, seed + 101)


def exact_values():
    """``{name: float}`` of every pinned exact result."""
    out = {}
    for case, (seed, x_sizes, xi) in CASES.items():
        pop, table = outcome_case(seed, x_sizes)
        sel = CellSelector(xi)
        intervals = {
            "identification": identification_interval_pop(pop, sel),
            "restricted": restricted_interval_pop(pop, sel, RestrictionGamma(0.1, 0.5)),
            "sample": sample_interval(table, sel),
        }
        for name, iv in intervals.items():
            out[f"{case}/{name}.lo"] = iv.lo
            out[f"{case}/{name}.hi"] = iv.hi
        out[f"{case}/midpoint"] = midpoint_estimate(table, sel)
        out[f"{case}/q_mean"] = q_mean_estimate(table, sel, 0.3)
        for name, model in (("mar", ImputationModel.mar_outcome()),
                            ("true_q", true_outcome_model(pop))):
            out[f"{case}/plim.{name}"] = plim_imputation_mean(pop, model, sel)

        pop, table = covariate_case(seed, x_sizes)
        sel = CellSelector(xi, "b")
        bounds = {
            "closed_form.pop": binary_bounds_closed_form(pop, sel),
            "closed_form.table": binary_bounds_closed_form(table, sel),
            "oracle": binary_bounds_oracle(pop, sel),
        }
        for name, iv in bounds.items():
            out[f"{case}/{name}.lo"] = iv.lo
            out[f"{case}/{name}.hi"] = iv.hi
        for name, model in (("marcov", ImputationModel.mar_covariate()),
                            ("true_q", true_covariate_model(pop)),
                            ("ecological", ImputationModel.ecological())):
            out[f"{case}/long_plim.{name}"] = plim_imputed_long_mean(pop, model, sel)
            out[f"{case}/cell_share.{name}"] = imputed_cell_share(pop, model, sel)
    return out


def convergence_reports():
    """``to_json()`` of one ``imputation_mean`` and one ``long_mean``
    experiment; the first has a master seed above 2**63 and a grid size
    small enough that some replications skip."""
    pop_y, _ = outcome_case(31, (2,))
    pop_w, _ = covariate_case(32, (3,))
    specs = {
        "imputation_mean": ExperimentSpec(
            pop_y, ImputationModel.mar_outcome(), "imputation_mean",
            CellSelector("b"), n_grid=(4, 80), reps=6, seed=2**63 + 12345,
            tolerance=0.2),
        "long_mean": ExperimentSpec(
            pop_w, ImputationModel.mar_covariate(), "long_mean",
            CellSelector("c", "a"), n_grid=(60, 200), reps=4, seed=77,
            tolerance=0.3),
    }
    return {name: convergence_experiment(spec).to_json()
            for name, spec in specs.items()}


#: ``float.hex`` of :func:`exact_values`
PINNED_EXACT = {
    "c31/identification.lo": "0x1.615dc7d7051eep-3",
    "c31/identification.hi": "0x1.0bf6dbbab049ap-1",
    "c31/restricted.lo": "0x1.bb2d7cb97c9fdp-3",
    "c31/restricted.hi": "0x1.91362821ad51cp-2",
    "c31/sample.lo": "0x1.aa4bafdc61f2bp-3",
    "c31/sample.hi": "0x1.13c1ab68a0474p-1",
    "c31/midpoint": "0x1.7e54975fb8c3fp-2",
    "c31/q_mean": "0x1.5408e78356d14p-2",
    "c31/plim.mar": "0x1.3aae44f7582c8p-2",
    "c31/plim.true_q": "0x1.95140dca3da18p-2",
    "c31/closed_form.pop.lo": "0x1.0d06593dc7109p-2",
    "c31/closed_form.pop.hi": "0x1.953aefc0dc6f4p-1",
    "c31/closed_form.table.lo": "0x1.1000000000000p-2",
    "c31/closed_form.table.hi": "0x1.b512bb512bb51p-1",
    "c31/oracle.lo": "0x1.0d06593dc7109p-2",
    "c31/oracle.hi": "0x1.953aefc0dc6f4p-1",
    "c31/long_plim.marcov": "0x1.1de414fc139cep-1",
    "c31/cell_share.marcov": "0x1.1eb8f8c7c8a84p-1",
    "c31/long_plim.true_q": "0x1.6c16ae6b21b1ep-2",
    "c31/cell_share.true_q": "0x1.0db98f2fa013cp-1",
    "c31/long_plim.ecological": "0x1.026d17269ca73p-1",
    "c31/cell_share.ecological": "0x1.12344d48220c6p-1",
    "c32/identification.lo": "0x1.75e325deb8295p-4",
    "c32/identification.hi": "0x1.f20a4456bc445p-2",
    "c32/restricted.lo": "0x1.2015f1a71fa32p-3",
    "c32/restricted.hi": "0x1.5a53b64316ee9p-2",
    "c32/sample.lo": "0x1.30be0ded288cfp-4",
    "c32/sample.hi": "0x1.ef9db22d0e561p-2",
    "c32/midpoint": "0x1.1de69ad42c3cap-2",
    "c32/q_mean": "0x1.d2f1a9fbe76c8p-3",
    "c32/plim.mar": "0x1.71599b6391517p-3",
    "c32/plim.true_q": "0x1.b9b20f0965303p-3",
    "c32/closed_form.pop.lo": "0x1.b197d80ad62b3p-4",
    "c32/closed_form.pop.hi": "0x1.cf664da46487cp-1",
    "c32/closed_form.table.lo": "0x1.0842108421084p-3",
    "c32/closed_form.table.hi": "0x1.bcda3ac10c971p-1",
    "c32/oracle.lo": "0x1.b197d80ad62b3p-4",
    "c32/oracle.hi": "0x1.cf664da46487cp-1",
    "c32/long_plim.marcov": "0x1.0ff8389e684ddp-1",
    "c32/cell_share.marcov": "0x1.c0b77e5fe2ae1p-2",
    "c32/long_plim.true_q": "0x1.421314b66c8c4p-1",
    "c32/cell_share.true_q": "0x1.2e853ecd382b0p-1",
    "c32/long_plim.ecological": "0x1.081db951ef916p-1",
    "c32/cell_share.ecological": "0x1.06b0edc09a563p-1",
    "c33/identification.lo": "0x1.301311bdfc5b8p-2",
    "c33/identification.hi": "0x1.3b77eb5b7ee48p-1",
    "c33/restricted.lo": "0x1.58eeaa5d1c893p-2",
    "c33/restricted.hi": "0x1.fc5d0cd99d3ffp-2",
    "c33/sample.lo": "0x1.6fa1fe5241780p-2",
    "c33/sample.hi": "0x1.1c89a7078dd96p-1",
    "c33/midpoint": "0x1.d45aa630ae956p-2",
    "c33/q_mean": "0x1.bb2c7c39134e1p-2",
    "c33/plim.mar": "0x1.f9f2fe6261136p-2",
    "c33/plim.true_q": "0x1.8650277e182b5p-2",
    "c33/closed_form.pop.lo": "0x1.9db8dc0230309p-2",
    "c33/closed_form.pop.hi": "0x1.d17b393985c62p-1",
    "c33/closed_form.table.lo": "0x1.3b13b13b13b14p-3",
    "c33/closed_form.table.hi": "0x1.c71c71c71c71cp-1",
    "c33/oracle.lo": "0x1.9db8dc0230309p-2",
    "c33/oracle.hi": "0x1.d17b393985c62p-1",
    "c33/long_plim.marcov": "0x1.9ed526d1b7ad4p-1",
    "c33/cell_share.marcov": "0x1.ad1caa4a52f1fp-2",
    "c33/long_plim.true_q": "0x1.7ddde7a9216f3p-1",
    "c33/cell_share.true_q": "0x1.3804089ec4ba3p-1",
    "c33/long_plim.ecological": "0x1.73cfde10f4f59p-1",
    "c33/cell_share.ecological": "0x1.1262e092bd226p-1",
}

#: :func:`convergence_reports`, floats compared exactly
PINNED_REPORTS = {"imputation_mean": {"plim": 0.25952996515090254,
                     "tolerance": 0.2,
                     "passed": False,
                     "entries": [{"n": 4,
                                  "reps": 6,
                                  "skips": 4,
                                  "mean_abs_dev": 0.0875,
                                  "max_abs_dev": 0.09047003484909744,
                                  "est_spread": 0.0875,
                                  "passed": False},
                                 {"n": 80,
                                  "reps": 6,
                                  "skips": 0,
                                  "mean_abs_dev": 0.04106458675424195,
                                  "max_abs_dev": 0.059435552090476795,
                                  "est_spread": 0.043946911397967095,
                                  "passed": True}]},
 "long_mean": {"plim": 0.4537326880789829,
               "tolerance": 0.3,
               "passed": False,
               "entries": [{"n": 60,
                            "reps": 4,
                            "skips": 0,
                            "mean_abs_dev": 0.26853301070615815,
                            "max_abs_dev": 0.4537326880789829,
                            "est_spread": 0.21650635094610965,
                            "passed": False},
                           {"n": 200,
                            "reps": 4,
                            "skips": 0,
                            "mean_abs_dev": 0.052672420319479135,
                            "max_abs_dev": 0.12940836375465858,
                            "est_spread": 0.06110674709940945,
                            "passed": True}]}}


def test_exact_values_are_pinned():
    got = {name: value.hex() for name, value in exact_values().items()}
    assert got == PINNED_EXACT


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_convergence_reports_are_pinned(name):
    assert convergence_reports()[name] == PINNED_REPORTS[name]
