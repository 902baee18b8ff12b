"""Bit-level pins of the exact estimands and of convergence reports.

The values below were recorded (exact values as ``float.hex``) from the
implementation in which each interval and plim function kept its own copy
of the missing-outcome decomposition and convergence replications ran
through ``fit_model``/``draw_completion``; the current code must reproduce
them bit for bit.

The mixture pins were recorded the same way from the implementation in
which ``mixture_joint_estimate`` coded, sorted and named its own (y, x)
strata with ``np.unique`` and an ``argsort`` of their first records.
"""

import hashlib

import pytest

from imputebounds import (
    CellSelector,
    ImputationModel,
    QCovariateModel,
    RestrictionGamma,
)
from imputebounds.errors import QUndefinedForStratum
from imputebounds.missing_covariate import (
    binary_bounds_closed_form,
    binary_bounds_oracle,
    imputed_cell_share,
    mixture_conditional_mean,
    mixture_joint_estimate,
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


def mixture_case(seed):
    """A covariate table of 40 to 2890 records, binary y for an odd
    ``seed`` and four real levels for an even one, with the population's
    true q."""
    values = (0.0, 1.0) if seed % 2 else (0.0, 0.25, 1.5, 4.0)
    pop = random_population(seed, outcome_values=values, x_sizes=(3,), w_sizes=(4,),
                            regime="covariate")
    return (sample_table(pop, 40 + 150 * (seed % 20), seed + 1),
            true_covariate_model(pop).covariate_q)


def mixture_digest(table, q):
    """sha256 of the mixture population's outcome support, cell columns and
    masses, then of ``float.hex`` of its conditional mean on every cell."""
    measure = mixture_joint_estimate(table, q)
    digest = hashlib.sha256()
    for column in (measure.outcome_values, measure.y_i, measure.x_i, measure.w_i,
                   measure.mass):
        digest.update(column.tobytes())
    for x_val in measure.x_domains[0].levels:
        for w_val in measure.w_domains[0].levels:
            mean = mixture_conditional_mean(measure, CellSelector(x_val, w_val))
            digest.update(mean.hex().encode())
    return digest.hexdigest()


#: :func:`mixture_digest` of :func:`mixture_case` per seed
PINNED_MIXTURES = {
    300: "08861abbef4d6e1e90d593334a80b00574ca147d727c2a07bea567eb454bade5",
    301: "5bc4b1cd742ef190a63669131c1e063fadeaf6cb141570f59434c9e5c44e3d12",
    302: "366ed7fe88468e3307f031c7c4b314358d1d9e1d91c771254c626beb91ae68de",
    303: "f4f5558e0bf327e4e72ecdc44935dc95806588f032778bbd16716720217ce3b5",
    304: "02b03b9b4970f824065a4c4db90936dd1ee87d9b96afbd33a23bdfe127eaf714",
    305: "66538e146d5c375b22dbf284467d182a01e9b40b28f3756a1c935782cfe02ed4",
    306: "3ccdbfa3f30f3c95b093dc316989a92d73163333351c9468024c3f53748b2d8b",
    307: "1c7ee0987dc2d79a5c93ddc9224f975a8123a83facc74f3f4d32e2f8f8a35e57",
    308: "eda404a07aad76c7d707e86a612eb7895e9a5644aea9964330d5dc3045462502",
    309: "74fda1175e82c0307dee6b18d1a9f581bca903090234dfab10051111175bc7e3",
    310: "bc36d5fc87c6f02a195f2484396d4b89350ae02f0dd43d44da7bf257fb05cfb5",
    311: "76410dbd37f80aaadb1406f2edfe8ac7448db2009423e0e4853ec4a20505ce7c",
    312: "b9491bd19b90d39ddb8c2c61e4590612b4e28f0fcc4acadb5d00e69a5fc0a190",
    313: "8c338e8650cdeb50553913c1e86959f6fe20a54d5718c9360464ca886cdb8bb5",
    314: "cd9b490e2b5e920ddf9fdc71096760676afeaf990a4b6584c59af18cc700f8ed",
    315: "1522fafbe5ad82e2f9d98832335489890af48747455080567e307b0faedb18f4",
    316: "c97bf0dc105ceb47d3efa2925f6eb2eb5ea5b2deac440d27f81296e5fbbccd7b",
    317: "1ad516f2f9d643487d372644ee8cb06c8e563a43db8a550152b0a73b0ae6376b",
    318: "cbdef998198b076d61732a482b0ac0bbb4fd2cddd436742c3dfe35c7d8538031",
    319: "33ceccaa6cc87415d0f7b20feb1c3aeee4af698bd62d65b3e64cc2887644acc4",
}


@pytest.mark.parametrize("seed", sorted(PINNED_MIXTURES))
def test_mixture_estimate_is_pinned(seed):
    assert mixture_digest(*mixture_case(seed)) == PINNED_MIXTURES[seed]


def undefined_case(seed):
    """A 300-record covariate table over three outcome levels and a q that
    defines only the strata at x = "a", so that five or six (y, x) strata
    with missing records are undefined."""
    pop = random_population(seed, outcome_values=(0.0, 0.5, 1.0), x_sizes=(3,),
                            w_sizes=(2,), regime="covariate")
    strata = true_covariate_model(pop).covariate_q.strata
    return (sample_table(pop, 300, seed + 1),
            QCovariateModel({k: d for k, d in strata.items() if k[1] == ("a",)}))


#: the QUndefinedForStratum message of :func:`undefined_case` per seed: the
#: first undefined stratum in record order, never (y=0.0, x=('b',)), the
#: first in the text order of the keys
PINNED_UNDEFINED = {
    331: "q has no stratum (y=0.5, x=('c',))",
    333: "q has no stratum (y=0.5, x=('b',))",
    334: "q has no stratum (y=1.0, x=('c',))",
}


@pytest.mark.parametrize("seed", sorted(PINNED_UNDEFINED))
def test_undefined_stratum_message_is_pinned(seed):
    table, q = undefined_case(seed)
    with pytest.raises(QUndefinedForStratum) as raised:
        mixture_joint_estimate(table, q)
    assert str(raised.value) == PINNED_UNDEFINED[seed]
