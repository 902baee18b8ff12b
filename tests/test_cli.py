import json

import pytest

from imputebounds import (
    CategoricalDomain,
    OutcomeDomain,
    cli,
    population_to_json,
    run_multiple_imputation,
)
from imputebounds.cli import EXIT_DATA, main
from imputebounds.simlab import (
    MissingnessMechanism,
    apply_mechanism,
    joint_population,
    load_experiment,
)
from conftest import build_covariate_pop, build_mnar_pop


def _reject_constant(name):
    raise ValueError(f"bare {name} is not strict JSON")


def strict_json(text):
    """Parse ``text`` as JSON, rejecting NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured


@pytest.fixture
def outcome_fixture(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("y,g\n1,a\n0,a\n1,a\n1,a\n,a\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "outcome": {"column": "y", "binary": True},
        "x": ["g"],
        "levels": {"g": ["a", "b"]},
    }))
    return str(data), str(config)


@pytest.fixture
def covariate_fixture(tmp_path):
    rows = ["1,a,o"] * 3 + ["0,a,o", "1,a,p", "0,a,p",
                            "1,a,", "1,a,", "0,a,", "0,a,"]
    data = tmp_path / "cov.csv"
    data.write_text("y,g,m\n" + "\n".join(rows) + "\n")
    config = tmp_path / "cov_config.json"
    config.write_text(json.dumps({
        "outcome": {"column": "y", "binary": True},
        "x": ["g"],
        "w": ["m"],
    }))
    return str(data), str(config)


class TestBounds:
    def test_outcome_fixture_interval(self, outcome_fixture, capsys):
        data, config = outcome_fixture
        code, report, _ = run_cli(
            ["bounds", "--data", data, "--config", config, "--xi", "g=a"], capsys)
        assert code == 0
        iv = report["results"]["interval"]
        assert iv["lo"] == pytest.approx(0.6)
        assert iv["hi"] == pytest.approx(0.8)
        assert report["results"]["midpoint"] == pytest.approx(0.7)
        assert report["artifact"]["name"] == "imputebounds"

    def test_covariate_fixture_interval(self, covariate_fixture, capsys):
        data, config = covariate_fixture
        code, report, _ = run_cli(
            ["bounds", "--data", data, "--config", config,
             "--xi", "g=a", "--omega", "m=o"], capsys)
        assert code == 0
        iv = report["results"]["interval"]
        assert iv["lo"] == pytest.approx(0.5)
        assert iv["hi"] == pytest.approx(5 / 6)
        assert report["results"]["midpoint"] == pytest.approx(2 / 3)

    def test_out_dir_writes_report_and_series(self, outcome_fixture, tmp_path, capsys):
        data, config = outcome_fixture
        out = tmp_path / "run"
        code, _, cap = run_cli(
            ["bounds", "--data", data, "--config", config, "--xi", "g=a",
             "--out", str(out)], capsys)
        assert code == 0
        assert (out / "report.json").read_text() == cap.out
        series = (out / "minimax_bias.csv").read_text().splitlines()
        assert series[0] == "candidate,max_squared_bias"
        assert len(series) == 102


class TestEcological:
    def test_prints_bounds(self, capsys):
        code, report, _ = run_cli(
            ["ecological", "--py", "0.6", "--pw", "0.5"], capsys)
        assert code == 0
        iv = report["results"]["interval"]
        assert iv["lo"] == pytest.approx(0.2)
        assert iv["hi"] == pytest.approx(1.0)

    def test_infeasible_probability_is_guard_error(self, capsys):
        code, _, cap = run_cli(["ecological", "--py", "1.5", "--pw", "0.5"], capsys)
        assert code == 4
        assert "ProbabilityOutOfRange" in cap.err


class TestEstimate:
    def test_mar_single_draw(self, outcome_fixture, capsys):
        data, config = outcome_fixture
        code, report, _ = run_cli(
            ["estimate", "--data", data, "--config", config, "--model", "mar",
             "--xi", "g=a", "--m", "1", "--seed", "7"], capsys)
        assert code == 0
        res = report["results"]
        assert res["m"] == 1
        assert res["pooled_mean"] == res["per_draw"][0]
        assert res["pooled_mean"] in (0.6, 0.8)

    def test_q_model_reports_q_mean(self, outcome_fixture, tmp_path, capsys):
        data, config = outcome_fixture
        qfile = tmp_path / "q.json"
        qfile.write_text(json.dumps({
            "kind": "outcome_q",
            "strata": [{"x": ["a"],
                        "dist": [{"y": 0.0, "p": 0.5}, {"y": 1.0, "p": 0.5}]}],
        }))
        code, report, _ = run_cli(
            ["estimate", "--data", data, "--config", config,
             "--model", f"q:{qfile}", "--xi", "g=a", "--m", "4", "--seed", "3"],
            capsys)
        assert code == 0
        assert report["results"]["q_mean"] == pytest.approx(
            0.8 * 0.75 + 0.2 * 0.5)


class TestAudit:
    def test_single_draw_pooling_identity(self, outcome_fixture, capsys):
        data, config = outcome_fixture
        argv = ["audit", "--data", data, "--config", config, "--model", "mar",
                "--xi", "g=a", "--m", "1", "--seed", "5"]
        code, report, _ = run_cli(argv, capsys)
        assert code == 0
        res = report["results"]
        assert res["pooled_mean"] == res["per_draw"][0]
        assert res["point_in_interval"] is True
        assert "assumption-free interval" in res["headline"]

    def test_population_reference_adds_exact_gap(self, outcome_fixture,
                                                 tmp_path, capsys):
        data, config = outcome_fixture
        pop_path = tmp_path / "pop.json"
        pop_path.write_text(json.dumps(population_to_json(build_mnar_pop())))
        code, report, _ = run_cli(
            ["audit", "--data", data, "--config", config, "--model", "mar",
             "--xi", "g=a", "--m", "2", "--seed", "5",
             "--population", str(pop_path)], capsys)
        assert code == 0
        gap = report["results"]["bias_gap"]
        assert gap["plim"] == pytest.approx(0.7)
        assert gap["truth"] == pytest.approx(0.8)
        assert gap["truth_covered"] is True

    def test_population_reference_on_omega_cell(self, covariate_fixture,
                                                tmp_path, capsys):
        data, config = covariate_fixture
        pop_path = tmp_path / "pop.json"
        pop_path.write_text(json.dumps(population_to_json(build_covariate_pop())))
        code, report, _ = run_cli(
            ["audit", "--data", data, "--config", config, "--model", "marcov",
             "--xi", "g=a", "--omega", "m=o", "--m", "3", "--seed", "5",
             "--population", str(pop_path)], capsys)
        assert code == 0
        gap = report["results"]["bias_gap"]
        assert gap["truth_covered"] is True
        assert isinstance(gap["imputation_point_in_interval"], bool)

    def test_non_finite_population_mass_is_data_error(self, outcome_fixture,
                                                      tmp_path, capsys):
        data, config = outcome_fixture
        obj = population_to_json(build_mnar_pop())
        obj["cells"][0]["mass"] = float("nan")
        pop_path = tmp_path / "pop.json"
        pop_path.write_text(json.dumps(obj))
        assert "NaN" in pop_path.read_text()
        code, report, captured = run_cli(
            ["audit", "--data", data, "--config", config, "--model", "mar",
             "--xi", "g=a", "--m", "2", "--seed", "5",
             "--population", str(pop_path)], capsys)
        assert code == EXIT_DATA == 3
        assert report is None
        assert "NonFiniteMass" in captured.err


class TestSimulate:
    def test_spec_run_and_series(self, tmp_path, capsys):
        pop_path = tmp_path / "pop.json"
        pop_path.write_text(json.dumps(population_to_json(build_mnar_pop())))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "population": "pop.json",
            "model": "mar",
            "estimator": "imputation_mean",
            "xi": {"g": "a"},
            "omega": None,
            "n_grid": [100, 1000],
            "reps": 3,
            "seed": 11,
            "tolerance": 0.2,
        }))
        out = tmp_path / "sim"
        code, report, _ = run_cli(
            ["simulate", "--spec", str(spec_path), "--out", str(out)], capsys)
        assert code == 0
        assert report["seed"] == 11
        assert len(report["results"]["entries"]) == 2
        lines = (out / "deviations.csv").read_text().splitlines()
        assert lines[0] == "n,mean_abs_dev,max_abs_dev"
        assert len(lines) == 3


    def test_all_skipped_entry_is_strict_json(self, tmp_path, capsys):
        xd = (CategoricalDomain("g", ("a", "b")),)
        pop = apply_mechanism(
            joint_population(
                {(1.0, "a", None): 0.3, (0.0, "a", None): 0.2,
                 (1.0, "b", None): 0.25, (0.0, "b", None): 0.25},
                outcome=OutcomeDomain.binary_01(), x_domains=xd),
            MissingnessMechanism.by_x({"a": 0.0, "b": 1.0}))
        (tmp_path / "pop.json").write_text(json.dumps(population_to_json(pop)))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "population": "pop.json", "model": "mar",
            "estimator": "imputation_mean", "xi": {"g": "a"}, "omega": None,
            "n_grid": [50], "reps": 3, "seed": 2, "tolerance": 0.5}))
        assert main(["simulate", "--spec", str(spec_path)]) == 0
        report = strict_json(capsys.readouterr().out)
        entry = report["results"]["entries"][0]
        assert entry["skips"] == 3
        assert entry["mean_abs_dev"] is None and entry["max_abs_dev"] is None
        assert report["results"]["passed"] is False


class TestDeterminism:
    def test_repeat_run_is_byte_identical(self, outcome_fixture, capsys):
        data, config = outcome_fixture
        argv = ["estimate", "--data", data, "--config", config, "--model", "mar",
                "--xi", "g=a", "--m", "8", "--seed", "42"]
        _, _, cap1 = run_cli(argv, capsys)
        _, _, cap2 = run_cli(argv, capsys)
        assert cap1.out == cap2.out

    def test_rerun_from_report_header(self, outcome_fixture, capsys):
        data, config = outcome_fixture
        argv = ["audit", "--data", data, "--config", config, "--model", "mar",
                "--xi", "g=a", "--m", "4", "--seed", "9"]
        _, report, cap1 = run_cli(argv, capsys)
        cfg = report["config"]
        rebuilt = ["audit", "--data", cfg["data"], "--config", cfg["config"],
                   "--model", cfg["model"], "--xi", cfg["xi"],
                   "--m", str(cfg["m"]), "--seed", str(report["seed"])]
        if cfg["omega"]:
            rebuilt += ["--omega", cfg["omega"]]
        if cfg["population"]:
            rebuilt += ["--population", cfg["population"]]
        _, _, cap2 = run_cli(rebuilt, capsys)
        assert cap1.out == cap2.out


class TestErrorPaths:
    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--xi", "g=a"])
        assert exc.value.code == 2

    def test_unknown_column_is_data_error(self, outcome_fixture, tmp_path, capsys):
        data, _ = outcome_fixture
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "outcome": {"column": "zzz", "binary": True}, "x": ["g"]}))
        code, _, cap = run_cli(
            ["bounds", "--data", data, "--config", str(bad), "--xi", "g=a"],
            capsys)
        assert code == 3
        assert "UnknownColumn" in cap.err

    def test_outcome_outside_binary_domain(self, tmp_path, outcome_fixture, capsys):
        _, config = outcome_fixture
        data = tmp_path / "bad.csv"
        data.write_text("y,g\n1.5,a\n")
        code, _, cap = run_cli(
            ["bounds", "--data", str(data), "--config", config, "--xi", "g=a"],
            capsys)
        assert code == 3
        assert "line 2" in cap.err

    def test_malformed_row_reports_line(self, tmp_path, outcome_fixture, capsys):
        _, config = outcome_fixture
        data = tmp_path / "short.csv"
        data.write_text("y,g\n1,a\n0\n")
        code, _, cap = run_cli(
            ["bounds", "--data", str(data), "--config", config, "--xi", "g=a"],
            capsys)
        assert code == 3
        assert "line 3" in cap.err

    def test_empty_cell_is_guard_error(self, outcome_fixture, capsys):
        data, config = outcome_fixture
        code, _, cap = run_cli(
            ["bounds", "--data", data, "--config", config, "--xi", "g=b"],
            capsys)
        assert code == 4
        assert "EmptyCell" in cap.err

    def test_missing_file_is_data_error(self, outcome_fixture, capsys):
        _, config = outcome_fixture
        code, _, cap = run_cli(
            ["bounds", "--data", "nope.csv", "--config", config, "--xi", "g=a"],
            capsys)
        assert code == 3

    def test_duplicate_header_column_rejected(self, tmp_path, outcome_fixture,
                                              capsys):
        _, config = outcome_fixture
        data = tmp_path / "dup.csv"
        data.write_text("y,y,g\n1,1,a\n")
        code, _, cap = run_cli(
            ["bounds", "--data", str(data), "--config", config, "--xi", "g=a"],
            capsys)
        assert code == 3
        assert "UnknownColumn" in cap.err


Q_OUTCOME = {"kind": "outcome_q",
             "strata": [{"x": ["a"],
                         "dist": [{"y": 0.0, "p": 0.5}, {"y": 1.0, "p": 0.5}]}]}


def spec_json(**fields):
    """A small valid experiment spec with an inline population."""
    spec = {"population": population_to_json(build_mnar_pop()), "model": "mar",
            "estimator": "imputation_mean", "xi": {"g": "a"}, "omega": None,
            "n_grid": [50], "reps": 1, "seed": 1, "tolerance": 1.0}
    return json.dumps(dict(spec, **fields))


class TestModelReference:
    @pytest.mark.parametrize("ref, fixture, omega", [
        ("mar", "outcome_fixture", None),
        ("mar_outcome", "outcome_fixture", None),
        ("marcov", "covariate_fixture", "m=o"),
        ("ecological", "covariate_fixture", "m=o"),
        ("q:q.json", "outcome_fixture", None),
    ])
    def test_flag_and_spec_load_the_same_model(self, ref, fixture, omega, request,
                                               tmp_path, monkeypatch, capsys):
        """``--model`` resolves q:FILE against the working directory, a
        spec's ``model`` against the spec's directory."""
        data, config = request.getfixturevalue(fixture)
        spec_dir = tmp_path / "spec"
        spec_dir.mkdir()
        (spec_dir / "q.json").write_text(json.dumps(Q_OUTCOME))
        spec = spec_dir / "spec.json"
        spec.write_text(spec_json(model=ref))
        seen = []

        def recording_run(table, model, *args):
            seen.append(model)
            return run_multiple_imputation(table, model, *args)

        monkeypatch.setattr(cli, "run_multiple_imputation", recording_run)
        monkeypatch.chdir(spec_dir)
        argv = ["estimate", "--data", data, "--config", config, "--model", ref,
                "--xi", "g=a"] + (["--omega", omega] if omega else [])
        assert main(argv) == 0
        monkeypatch.chdir(tmp_path)
        assert load_experiment(str(spec)).model == seen[0]

    def test_unknown_name_exits_3(self, outcome_fixture, tmp_path, capsys):
        data, config = outcome_fixture
        code, _, cap = run_cli(
            ["estimate", "--data", data, "--config", config, "--model", "mvn",
             "--xi", "g=a"], capsys)
        assert code == EXIT_DATA
        assert "mar|marcov|q:FILE|ecological" in cap.err
        spec = tmp_path / "spec.json"
        spec.write_text(spec_json(model="mvn"))
        code, _, cap = run_cli(["simulate", "--spec", str(spec)], capsys)
        assert code == EXIT_DATA
        assert "mar|marcov|q:FILE|ecological" in cap.err


class TestMalformedJson:
    """Every JSON file the CLI reads reports a decode error or a missing key
    as a data error naming it, not as an uncaught exception."""

    @pytest.mark.parametrize("loader", ["config", "q_file", "spec", "population"])
    def test_exits_3_naming_the_problem(self, loader, outcome_fixture, tmp_path,
                                        capsys):
        data, config = outcome_fixture
        bad = tmp_path / "bad.json"
        common = ["--data", data, "--config", config, "--xi", "g=a"]
        no_xi = json.loads(spec_json())
        del no_xi["xi"]
        content, argv, expected = {
            "config": ('{"outcome": ', ["bounds", "--data", data, "--config",
                                        str(bad), "--xi", "g=a"], "not valid JSON"),
            "q_file": (json.dumps({"kind": "outcome_q"}),
                       ["estimate", *common, "--model", f"q:{bad}"], "'strata'"),
            "spec": (json.dumps(no_xi), ["simulate", "--spec", str(bad)], "'xi'"),
            "population": (json.dumps({"x_domains": {"g": ["a"]}}),
                           ["audit", *common, "--model", "mar",
                            "--population", str(bad)], "'cells'"),
        }[loader]
        bad.write_text(content)
        code, _, cap = run_cli(argv, capsys)
        assert code == EXIT_DATA
        assert expected in cap.err


class TestSandwichSurfacedAtCli:
    def test_estimate_lands_inside_bounds(self, outcome_fixture, capsys):
        data, config = outcome_fixture
        _, bounds_report, _ = run_cli(
            ["bounds", "--data", data, "--config", config, "--xi", "g=a"], capsys)
        iv = bounds_report["results"]["interval"]
        for seed in ("1", "2", "3"):
            _, est_report, _ = run_cli(
                ["estimate", "--data", data, "--config", config, "--model",
                 "mar", "--xi", "g=a", "--m", "5", "--seed", seed], capsys)
            pooled = est_report["results"]["pooled_mean"]
            assert iv["lo"] <= pooled <= iv["hi"]
