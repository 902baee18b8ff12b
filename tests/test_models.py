"""One reading of a model's stratum keys: the draws, the exact plim, the
q-mean and the mixture all resolve an explicit model through
``models.coded_strata``, so they agree on which cell a key names."""

import json

import pytest

from imputebounds import (
    CategoricalDomain,
    CellSelector,
    EstimatorSpec,
    ImputationModel,
    ObservationTable,
    OutcomeDomain,
    mixture_joint_estimate,
    plim_imputation_mean,
    plim_imputed_long_mean,
    q_mean_estimate,
    run_multiple_imputation,
    true_covariate_model,
)
from imputebounds.cli import EXIT_DATA, main
from imputebounds.domain import FinitePopulation
from imputebounds.errors import DataError, ImputedValueOutOfDomain, ProbabilityOutOfRange
from imputebounds.missing_outcome import assumed_missing_mean
from imputebounds.models import (
    QCovariateModel, coded_strata, model_from_json, model_to_json, true_outcome_model)
from conftest import X1, W2, build_covariate_pop

#: x levels whose labels read as numbers, in an order that differs from
#: their positions
X_NUMERIC = (CategoricalDomain("g", ("1", "0")),)
Q_AT_1 = {"kind": "outcome_q",
          "strata": [{"x": [1], "dist": [{"y": 1.0, "p": 1.0}]}]}


class TestNumericLabels:
    """With x levels ("1", "0"), ``"x": [1]`` names the level "1" (code 0),
    not the level at position 1."""

    def test_coded_strata_reads_the_label(self):
        t = ObservationTable.from_records(
            [(0.0, "1", None), (None, "1", None)], OutcomeDomain.binary_01(),
            X_NUMERIC)
        (cell, (values, probs)), = coded_strata(model_from_json(Q_AT_1), t).items()
        assert cell == 0
        assert values.tolist() == [1.0] and probs.tolist() == [1.0]

    def test_draws_and_q_mean_agree(self):
        t = ObservationTable.from_records(
            [(0.0, "1", None), (None, "1", None), (1.0, "0", None)],
            OutcomeDomain.binary_01(), X_NUMERIC)
        model = model_from_json(Q_AT_1)
        sel = CellSelector({"g": "1"})
        pooled = run_multiple_imputation(
            t, model, 3, EstimatorSpec("imputation_mean", sel), 7).pooled_mean
        e_q = assumed_missing_mean(model, t, 0)
        assert e_q == 1.0
        assert pooled == q_mean_estimate(t, sel, e_q) == 0.5

    def test_plim_reads_the_label(self):
        pop = FinitePopulation.from_cells({
            (0.0, "1", None, 1): 0.25, (1.0, "1", None, 0): 0.25,
            (1.0, "0", None, 1): 0.5,
        }, outcome=OutcomeDomain.binary_01(), x_domains=X_NUMERIC)
        model = model_from_json(Q_AT_1)
        assert plim_imputation_mean(pop, model, CellSelector({"g": "1"})) == 0.5

    def test_estimate_through_the_cli(self, tmp_path, capsys):
        (tmp_path / "d.csv").write_text("y,g\n0,1\n,1\n1,0\n")
        (tmp_path / "c.json").write_text(json.dumps({
            "outcome": {"column": "y", "binary": True}, "x": ["g"],
            "levels": {"g": ["1", "0"]}}))
        (tmp_path / "q.json").write_text(json.dumps(Q_AT_1))
        code = main(["estimate", "--data", str(tmp_path / "d.csv"),
                     "--config", str(tmp_path / "c.json"),
                     "--model", f"q:{tmp_path / 'q.json'}", "--xi", "g=1",
                     "--m", "2"])
        results = json.loads(capsys.readouterr().out)["results"]
        assert code == 0
        assert results["pooled_mean"] == results["q_mean"] == 0.5


class TestUnknownLabel:
    """A covariate q whose key names no level fails the same way wherever
    it is read, whether or not the cell at hand needs that stratum."""

    @pytest.mark.parametrize("bad", [
        {(1.0, ("zzz",)): {("o",): 1.0}},
        {(1.0, ("a",)): {("zzz",): 1.0}},
    ])
    def test_same_data_error_everywhere(self, bad):
        pop = build_covariate_pop()
        q = dict(true_covariate_model(pop).covariate_q.strata)
        model = ImputationModel.explicit_covariate({**q, **bad})
        table = ObservationTable.from_records(
            [(1.0, "a", "o"), (0.0, "a", None), (1.0, "a", None)],
            OutcomeDomain.binary_01(), X1, W2)
        sel = CellSelector("a", "o")
        messages = set()
        for run in (
                lambda: run_multiple_imputation(
                    table, model, 2, EstimatorSpec("long_mean", sel), 1),
                lambda: mixture_joint_estimate(table, model.covariate_q),
                lambda: plim_imputed_long_mean(pop, model, sel)):
            with pytest.raises(DataError, match="unknown level 'zzz'") as info:
                run()
            messages.add((type(info.value), str(info.value)))
        assert len(messages) == 1


class TestStratumNamedTwice:
    @pytest.mark.parametrize("obj", [
        {"kind": "outcome_q", "strata": [
            {"x": ["1"], "dist": [{"y": 0.0, "p": 1.0}]},
            {"x": [1], "dist": [{"y": 1.0, "p": 1.0}]}]},
        {"kind": "outcome_q", "strata": [
            {"x": ["1"], "dist": [{"y": 0.0, "p": 1.0}]},
            {"x": ["1"], "dist": [{"y": 0.0, "p": 1.0}]}]},
        {"kind": "covariate_q", "strata": [
            {"y": 1, "x": ["1"], "dist": [{"w": ["o"], "p": 1.0}]},
            {"y": 1.0, "x": [1], "dist": [{"w": ["p"], "p": 1.0}]}]},
    ])
    def test_model_json_raises(self, obj, tmp_path, capsys):
        with pytest.raises(DataError, match="twice"):
            model_from_json(obj)
        (tmp_path / "d.csv").write_text("y,g\n0,1\n,1\n")
        (tmp_path / "c.json").write_text(json.dumps({
            "outcome": {"column": "y", "binary": True}, "x": ["g"]}))
        (tmp_path / "q.json").write_text(json.dumps(obj))
        code = main(["estimate", "--data", str(tmp_path / "d.csv"),
                     "--config", str(tmp_path / "c.json"),
                     "--model", f"q:{tmp_path / 'q.json'}", "--xi", "g=1"])
        assert code == EXIT_DATA
        assert "twice" in capsys.readouterr().err

    def test_python_mappings_raise(self):
        with pytest.raises(DataError, match="twice"):
            ImputationModel.explicit_outcome({("1",): {0.0: 1.0}, (1,): {1.0: 1.0}})
        with pytest.raises(DataError, match="twice"):
            QCovariateModel({(1.0, ("a",)): {("o",): 1.0},
                             (1, "a"): {("p",): 1.0}})


def test_support_outside_the_domain_anywhere_is_rejected():
    """The outcome support is checked for every stratum, also where the
    selected cell does not need it."""
    pop = FinitePopulation.from_cells({
        (0.0, "1", None, 1): 0.25, (1.0, "1", None, 0): 0.25,
        (1.0, "0", None, 1): 0.5,
    }, outcome=OutcomeDomain.binary_01(), x_domains=X_NUMERIC)
    model = ImputationModel.explicit_outcome(
        {"1": {1.0: 1.0}, "0": {0.5: 1.0}})
    with pytest.raises(ImputedValueOutOfDomain):
        plim_imputation_mean(pop, model, CellSelector({"g": "1"}))


class TestNoBooleanOrNullLabels:
    """``true`` is no level label: JSON booleans are Python ``int``s, and
    would otherwise name the level ``"True"``."""

    @pytest.mark.parametrize("obj, label", [
        ({"kind": "outcome_q", "strata": [{"x": True, "dist": [{"y": 1.0, "p": 1.0}]}]},
         True),
        ({"kind": "outcome_q", "strata": [{"x": [True], "dist": [{"y": 1.0, "p": 1.0}]}]},
         True),
        ({"kind": "outcome_q", "strata": [{"x": [None], "dist": [{"y": 1.0, "p": 1.0}]}]},
         None),
        ({"kind": "covariate_q", "strata": [
            {"y": 1.0, "x": ["a"], "dist": [{"w": [False], "p": 1.0}]}]}, False),
        ({"kind": "covariate_q", "strata": [
            {"y": 1.0, "x": None, "dist": [{"w": ["o"], "p": 1.0}]}]}, None),
    ], ids=["bare_x", "x_list", "null_in_x", "w_atom", "null_x"])
    def test_model_json_raises(self, obj, label, tmp_path, capsys):
        with pytest.raises(DataError) as raised:
            model_from_json(obj)
        assert f"holds {label!r}, which is not a level label" in str(raised.value)
        (tmp_path / "d.csv").write_text("y,g,m\n0,a,o\n1,a,\n")
        (tmp_path / "c.json").write_text(json.dumps({
            "outcome": {"column": "y", "binary": True}, "x": ["g"], "w": ["m"]}))
        (tmp_path / "q.json").write_text(json.dumps(obj))
        code = main(["estimate", "--data", str(tmp_path / "d.csv"),
                     "--config", str(tmp_path / "c.json"),
                     "--model", f"q:{tmp_path / 'q.json'}", "--xi", "g=a",
                     "--omega", "m=o"])
        assert code == EXIT_DATA
        assert "which is not a level label" in capsys.readouterr().err

    def test_numbers_still_name_their_text(self):
        model = model_from_json({"kind": "covariate_q", "strata": [
            {"y": 1.0, "x": [1], "dist": [{"w": 2.5, "p": 1.0}]}]})
        assert model.covariate_q.strata == {(1.0, ("1",)): ((("2.5",), 1.0),)}


def fully_observed(regime):
    """A population with no missing mass in ``regime``."""
    return FinitePopulation.from_cells(
        {(1.0, "a", "o", 1): 0.4, (0.0, "a", "p", 1): 0.6},
        outcome=OutcomeDomain.binary_01(), x_domains=X1, w_domains=W2, regime=regime)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: QCovariateModel({(1.0, "a"): {"o": -0.5, "p": 1.5}}),
                 ProbabilityOutOfRange, "negative probability -0.5", id="negative_probability"),
    pytest.param(lambda: ImputationModel("mvn"), DataError,
                 "unknown imputation model kind 'mvn'", id="unknown_kind"),
    pytest.param(lambda: ImputationModel("explicit_outcome_q"), DataError,
                 "explicit outcome model needs a distribution", id="outcome_q_missing"),
    pytest.param(lambda: ImputationModel("explicit_covariate_q"), DataError,
                 "explicit covariate model needs a distribution", id="covariate_q_missing"),
    pytest.param(lambda: true_outcome_model(fully_observed("outcome")), DataError,
                 "population has no missing-outcome mass to mirror",
                 id="true_outcome_model_no_missing_mass"),
    pytest.param(lambda: true_covariate_model(fully_observed("covariate")), DataError,
                 "population has no missing-covariate mass to mirror",
                 id="true_covariate_model_no_missing_mass"),
])
def test_error_paths(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("model", [
    ImputationModel.explicit_outcome({("a",): {0.0: 0.25, 1.0: 0.75}}),
    ImputationModel.mar_outcome(),
    ImputationModel.mar_covariate(),
    ImputationModel.ecological(),
], ids=lambda model: model.kind)
def test_model_json_round_trip(model):
    assert model_from_json(json.loads(json.dumps(model_to_json(model)))) == model
