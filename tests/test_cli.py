import codecs
import contextlib
import csv
import json
import os
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from imputebounds import (
    CategoricalDomain,
    ObservationTable,
    OutcomeDomain,
    cli,
    population_from_json,
    population_to_json,
    random_population,
    run_multiple_imputation,
)
from imputebounds.cli import EXIT_DATA, EXIT_GUARD, DataConfig, ingest_csv, main
from imputebounds.domain import flat_value
from imputebounds.errors import DataError, MalformedRow, OutcomeOutOfDomain
from imputebounds.models import model_from_json
from imputebounds.simlab import (
    MissingnessMechanism,
    apply_mechanism,
    experiment_from_json,
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


    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_q_atom_is_data_error(self, outcome_fixture, tmp_path,
                                             capsys, bad):
        data, config = outcome_fixture
        qfile = tmp_path / "q.json"
        qfile.write_text(json.dumps({
            "kind": "outcome_q",
            "strata": [{"x": ["a"], "dist": [{"y": bad, "p": 1.0}]}],
        }))
        code, report, captured = run_cli(
            ["estimate", "--data", data, "--config", config,
             "--model", f"q:{qfile}", "--xi", "g=a", "--m", "4", "--seed", "3"],
            capsys)
        assert code == EXIT_DATA == 3
        assert report is None
        assert "outcome atom" in captured.err


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

    def test_population_with_seven_x_cells_on_omega_cell(self, tmp_path, capsys):
        """Only the strata at xi enter the allocation oracle, so the number
        of x cells of the population does not matter."""
        pop = random_population(0, x_sizes=(7,), w_sizes=(2,), regime="covariate")
        pop_path = tmp_path / "pop.json"
        pop_path.write_text(json.dumps(population_to_json(pop)))
        data = tmp_path / "data.csv"
        data.write_text("y,x1,w1\n1,a,a\n0,a,a\n1,a,b\n0,a,\n1,a,\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "outcome": {"column": "y", "binary": True}, "x": ["x1"],
            "w": ["w1"], "levels": {"x1": list("abcdefg")}}))
        code, report, _ = run_cli(
            ["audit", "--data", str(data), "--config", str(config),
             "--model", "marcov", "--xi", "x1=a", "--omega", "w1=a",
             "--m", "3", "--seed", "5", "--population", str(pop_path)], capsys)
        assert code == 0
        assert report["results"]["bias_gap"]["truth_covered"] is True

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

    @pytest.mark.parametrize("pop, fields, estimator", [
        (build_mnar_pop, {}, "imputation_mean"),
        (build_covariate_pop, {"model": "marcov", "omega": {"m": "o"}}, "long_mean"),
    ], ids=["x_cell", "xw_cell"])
    def test_spec_without_estimator_names_the_cells(self, pop, fields, estimator,
                                                     tmp_path, capsys):
        """The cell names the estimator, so a spec may leave it out; the
        report still names it."""
        spec = json.loads(spec_json(population=population_to_json(pop()), **fields))
        del spec["estimator"]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, report, _ = run_cli(["simulate", "--spec", str(path)], capsys)
        assert code == 0
        assert report["results"]["estimator"] == estimator

    @pytest.mark.parametrize("estimator", [["imputation_mean"], {"a": 1}])
    def test_estimator_that_is_not_a_string_exits_3(self, estimator, tmp_path,
                                                     capsys):
        # an unhashable name once ended in a TypeError traceback (exit 1)
        spec = tmp_path / "spec.json"
        spec.write_text(spec_json(estimator=estimator))
        code, _, cap = run_cli(["simulate", "--spec", str(spec)], capsys)
        assert code == EXIT_DATA
        assert cap.err.startswith(f"error: DataError: {spec}: unknown estimator")


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

    def test_levels_for_an_unknown_column_rejected(self, outcome_fixture, tmp_path,
                                                   capsys):
        data, _ = outcome_fixture
        bad = tmp_path / "typo.json"
        bad.write_text(json.dumps({
            "outcome": {"column": "y", "binary": True}, "x": ["g"],
            "levels": {"gg": ["a", "b"]}}))
        code, _, cap = run_cli(
            ["bounds", "--data", data, "--config", str(bad), "--xi", "g=a"],
            capsys)
        assert code == 3
        assert f"UnknownColumn: {bad}: levels declared for 'gg'" in cap.err

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

    @pytest.mark.parametrize("content, line, reason", [
        (b"y,g\n1,a\n0,\xff\n", 3, "byte 0xff is not UTF-8 (invalid start byte)"),
        (b"y,\xffg\n1,a\n", 1, "byte 0xff is not UTF-8 (invalid start byte)"),
        (b"y,g\n1," + b"a" * 200000 + b"\n", 2, "field larger than field limit (131072)"),
    ], ids=["body", "header", "long_field"])
    def test_unreadable_csv_exits_3(self, content, line, reason, tmp_path,
                                    outcome_fixture, capsys):
        """A byte that is not UTF-8, or a field over the csv module's size
        limit, is a one-line data error naming the file and the line of the
        fault, not a traceback."""
        _, config = outcome_fixture
        data = tmp_path / "bad.csv"
        data.write_bytes(content)
        code, _, cap = run_cli(
            ["bounds", "--data", str(data), "--config", config, "--xi", "g=a"],
            capsys)
        assert code == EXIT_DATA
        assert cap.err == f"error: MalformedRow: line {line}: cannot read {data}: {reason}\n"

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


def loader_argv(loader, path, data, config):
    """CLI arguments under which ``loader`` reads the JSON file at ``path``."""
    common = ["--data", data, "--config", config, "--xi", "g=a"]
    return {
        "config": ["bounds", "--data", data, "--config", str(path), "--xi", "g=a"],
        "q_file": ["estimate", *common, "--model", f"q:{path}"],
        "spec": ["simulate", "--spec", str(path)],
        "population": ["audit", *common, "--model", "mar", "--population", str(path)],
    }[loader]


#: the reader of each kind of JSON file the CLI reads
READERS = {
    "data config": cli.config_from_json,
    "model JSON": model_from_json,
    "experiment spec": experiment_from_json,
    "population JSON": population_from_json,
}


class TestMalformedJson:
    """Every JSON file the CLI reads reports a decode error, a missing key
    or a value of the wrong shape or type as a data error naming it, not as
    an uncaught exception."""

    @pytest.mark.parametrize("loader", ["config", "q_file", "spec", "population"])
    def test_exits_3_naming_the_problem(self, loader, outcome_fixture, tmp_path,
                                        capsys):
        data, config = outcome_fixture
        bad = tmp_path / "bad.json"
        no_xi = json.loads(spec_json())
        del no_xi["xi"]
        content, expected = {
            "config": ('{"outcome": ', "not valid JSON"),
            "q_file": (json.dumps({"kind": "outcome_q"}), "'strata'"),
            "spec": (json.dumps(no_xi), "'xi'"),
            "population": (json.dumps({"x_domains": {"g": ["a"]}}), "'cells'"),
        }[loader]
        bad.write_text(content)
        code, _, cap = run_cli(loader_argv(loader, bad, data, config), capsys)
        assert code == EXIT_DATA
        assert expected in cap.err

    @pytest.mark.parametrize("loader", ["config", "q_file", "spec", "population"])
    def test_undecodable_byte_exits_3(self, loader, outcome_fixture, tmp_path,
                                      capsys):
        data, config = outcome_fixture
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"kind": "\xff"}')
        code, _, cap = run_cli(loader_argv(loader, bad, data, config), capsys)
        assert code == EXIT_DATA
        assert cap.err.startswith(f"error: DataError: {bad} is not valid JSON: "
                                  "'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("loader, content, kind", [
        ("config", [1], "data config"),
        ("config", {"outcome": {"column": "y", "lo": "a", "hi": 1}}, "data config"),
        ("q_file", {"kind": "outcome_q", "strata": 5}, "model JSON"),
        ("spec", dict(json.loads(spec_json()), n_grid=5), "experiment spec"),
        ("population", {"outcome_domain": [0, 1], "cells": []}, "population JSON"),
        ("population", {"x_domains": {"g": ["a"]},
                        "cells": [{"y": "a", "x": ["a"], "z": 1, "mass": 1.0}]},
         "population JSON"),
    ])
    def test_wrong_shape_or_type_exits_3(self, loader, content, kind,
                                         outcome_fixture, tmp_path, capsys):
        """A list where an object belongs or text where a number belongs:
        the CLI reports the data error that the reader of ``kind`` raises,
        a shape error from the reader and a type error from the builder
        that keeps the value."""
        data, config = outcome_fixture
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content))
        code, _, cap = run_cli(loader_argv(loader, bad, data, config), capsys)
        assert code == EXIT_DATA
        with pytest.raises(DataError) as raised:
            READERS[kind](content)
        assert type(raised.value) is DataError
        assert cap.err == f"error: DataError: {bad}: {raised.value}\n"

    @pytest.mark.parametrize("loader, content, message", [
        pytest.param("config", [1], "data config must be an object, got [1]",
                     id="config_not_an_object"),
        pytest.param("config", {"outcome": {"column": "y", "lo": "a", "hi": 1}},
                     "outcome domain endpoint 'a' is not a number", id="config_text_lo"),
        pytest.param("config", {"outcome": {"column": "y", "lo": 0}},
                     "data config: outcome has no key 'hi'", id="config_no_hi"),
        pytest.param("config", {"outcome": {"column": "y", "binary": True},
                                "levels": ["g"]},
                     "data config: levels must be an object, got ['g']",
                     id="config_levels_list"),
        pytest.param("q_file", {"kind": "outcome_q", "strata": 5},
                     "model JSON: strata must be a list, got 5", id="q_strata_number"),
        pytest.param("q_file", {"kind": "outcome_q",
                                "strata": [{"x": ["a"], "dist": [{"y": 1.0}]}]},
                     "model JSON: strata[0].dist[0] has no key 'p'", id="q_atom_no_p"),
        pytest.param("spec", dict(json.loads(spec_json()), n_grid=5),
                     "experiment spec: n_grid must be a list, got 5", id="spec_n_grid"),
        pytest.param("population", {"outcome_domain": [0, 1], "cells": []},
                     "population JSON: outcome_domain must be an object, got [0, 1]",
                     id="population_domain_list"),
        pytest.param("population", {"x_domains": {"g": ["a"]},
                                    "cells": [{"y": "a", "x": ["a"], "z": 1, "mass": 1.0}]},
                     "cell outcome 'a' is not a number", id="population_text_y"),
        pytest.param("population", {"x_domains": {"g": ["a"]},
                                    "cells": [{"y": 1.0, "x": "a", "z": 1, "mass": 1.0}]},
                     "population JSON: cells[0].x must be a list, got 'a'",
                     id="population_cell_x_text"),
        pytest.param("spec", dict(json.loads(spec_json()), estimator="long_mean"),
                     "estimator 'long_mean' does not read the cell xi={'g': 'a'}, "
                     "omega=None", id="spec_other_cells_estimator"),
    ])
    def test_error_names_the_shape_or_the_value(self, loader, content, message,
                                                outcome_fixture, tmp_path, capsys):
        """A shape error names the document and the place in it; a value
        of the wrong type is refused with the message of its builder."""
        data, config = outcome_fixture
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content))
        code, _, cap = run_cli(loader_argv(loader, bad, data, config), capsys)
        assert (code, cap.err) == (EXIT_DATA, f"error: DataError: {bad}: {message}\n")

    @pytest.mark.parametrize("command", ["audit", "simulate"])
    def test_builder_error_names_each_file(self, command, outcome_fixture, tmp_path,
                                           capsys):
        """A value that a builder refuses is reported with the path of the
        file that holds it and, under ``simulate``, of the spec that names
        that file."""
        data, config = outcome_fixture
        pop = population_to_json(build_mnar_pop())
        pop["cells"][2]["y"] = "a"
        pop_path, spec_path = tmp_path / "pop.json", tmp_path / "spec.json"
        pop_path.write_text(json.dumps(pop))
        spec_path.write_text(spec_json(population="pop.json"))
        loader, path, files = {
            "audit": ("population", pop_path, f"{pop_path}: "),
            "simulate": ("spec", spec_path, f"{spec_path}: {pop_path}: "),
        }[command]
        code, _, cap = run_cli(loader_argv(loader, path, data, config), capsys)
        assert (code, cap.err) == (
            EXIT_DATA, f"error: DataError: {files}cell outcome 'a' is not a number\n")


class TestPopulationTypes:
    """A population file's ``z`` is read as a whole number and ``binary`` as
    a JSON boolean: a fractional, text or boolean ``z`` and a ``binary``
    that is not true or false are data errors, not coerced."""

    @pytest.mark.parametrize("edit, message", [
        ({"z": 0.7}, "a cell's 'z' must be an integer, got 0.7"),
        ({"z": "1"}, "a cell's 'z' must be an integer, got '1'"),
        ({"z": True}, "a cell's 'z' must be an integer, got True"),
        ({"binary": "no"}, "'binary' must be true or false, got 'no'"),
        ({"binary": 1}, "'binary' must be true or false, got 1"),
    ])
    @pytest.mark.parametrize("command", ["audit", "simulate"])
    def test_exits_3(self, edit, message, command, outcome_fixture, tmp_path,
                     capsys):
        data, config = outcome_fixture
        pop = population_to_json(build_mnar_pop())
        if "z" in edit:
            pop["cells"][0].update(edit)
        else:
            pop["outcome_domain"].update(edit)
        path = tmp_path / "pop.json"
        if command == "audit":
            path.write_text(json.dumps(pop))
        else:
            path.write_text(spec_json(population=pop))
        loader = "population" if command == "audit" else "spec"
        code, _, cap = run_cli(loader_argv(loader, path, data, config), capsys)
        assert code == EXIT_DATA
        assert message in cap.err

    def test_fractional_z_no_longer_merges_cells(self, tmp_path, capsys):
        """``z`` = 0.7 once loaded as 0, silently merging a z = 1 cell into
        the z = 0 cell beside it."""
        pop = population_to_json(random_population(3, x_sizes=(2,)))
        assert len(pop["cells"]) == 8
        pop["cells"][0]["z"] = 0.7
        path = tmp_path / "pop.json"
        path.write_text(spec_json(population=pop))
        code, _, cap = run_cli(["simulate", "--spec", str(path)], capsys)
        assert code == EXIT_DATA
        assert "a cell's 'z' must be an integer, got 0.7" in cap.err

    def test_integral_float_z_loads(self):
        pop = population_to_json(build_mnar_pop())
        for cell in pop["cells"]:
            cell["z"] = float(cell["z"])
        assert population_to_json(population_from_json(pop)) == population_to_json(
            build_mnar_pop())


class TestNoBooleanOrNullLevels:
    """A boolean or null names no covariate level in a population file or
    a spec, as in a data config or a q file: ``true`` once loaded as the
    level ``"True"``."""

    def test_population_level_exits_3(self, outcome_fixture, tmp_path, capsys):
        data, config = outcome_fixture
        pop = population_to_json(build_mnar_pop())
        pop["x_domains"]["g"].append(True)
        path = tmp_path / "pop.json"
        path.write_text(json.dumps(pop))
        code, _, cap = run_cli(loader_argv("population", path, data, config), capsys)
        assert code == EXIT_DATA
        assert "domain 'g' has the level True, which is not a level label" in cap.err

    @pytest.mark.parametrize("where", ["cell", "xi"])
    def test_spec_label_exits_3(self, where, tmp_path, capsys):
        pop = population_to_json(build_mnar_pop())
        fields = {"xi": {"g": True}} if where == "xi" else {}
        if where == "cell":
            pop["cells"][0]["x"] = [True]
        path = tmp_path / "spec.json"
        path.write_text(spec_json(population=pop, **fields))
        code, _, cap = run_cli(["simulate", "--spec", str(path)], capsys)
        assert code == EXIT_DATA
        assert "True names no level of domain 'g': it is not a level label" in cap.err


class TestConfigBinary:
    """A data config's ``outcome.binary`` is a JSON boolean, as in a
    population file: ``"no"`` once read as true and put the [0, 5] outcome
    on the binary domain."""

    DATA = "y,g\n1,a\n0,a\n,a\n"

    @pytest.mark.parametrize("binary", ["no", "false", 1])
    def test_non_boolean_exits_3(self, binary, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text(self.DATA)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "outcome": {"column": "y", "binary": binary, "lo": 0, "hi": 5},
            "x": ["g"]}))
        code, report, cap = run_cli(
            ["bounds", "--data", str(data), "--config", str(config), "--xi", "g=a"],
            capsys)
        assert (code, report) == (EXIT_DATA, None)
        assert f"'binary' must be true or false, got {binary!r}" in cap.err

    def test_false_keeps_the_declared_range(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text(self.DATA)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "outcome": {"column": "y", "binary": False, "lo": 0, "hi": 5},
            "x": ["g"]}))
        code, report, _ = run_cli(
            ["bounds", "--data", str(data), "--config", str(config), "--xi", "g=a"],
            capsys)
        assert code == 0
        interval = report["results"]["interval"]
        assert interval["lo"] == pytest.approx(1 / 3)
        assert interval["hi"] == pytest.approx(2.0)


class TestConfigLists:
    """A string where the data config needs a list is a data error, never
    split into its characters."""

    @pytest.mark.parametrize("fields, message", [
        ({"x": "g"}, "'x' must be a list"),
        ({"x": ["g"], "w": "m"}, "'w' must be a list"),
        ({"x": ["g"], "levels": {"g": "ab"}}, "the levels of 'g' must be a list"),
    ])
    def test_string_exits_3(self, fields, message, outcome_fixture, tmp_path,
                            capsys):
        data, _ = outcome_fixture
        config = tmp_path / "strings.json"
        config.write_text(json.dumps(
            {"outcome": {"column": "y", "binary": True}, **fields}))
        code, _, cap = run_cli(
            ["bounds", "--data", data, "--config", str(config), "--xi", "g=a"],
            capsys)
        assert code == EXIT_DATA
        assert message in cap.err


class TestConfigTypes:
    """Column names are text, and a declared level is text or a number:
    a boolean or null would otherwise load as the label 'True' or 'None',
    and a number as a column name would be missing from the header."""

    @pytest.mark.parametrize("fields, message", [
        ({"outcome": {"column": 5, "binary": True}, "x": ["g"]},
         "a column name must be text, got 5"),
        ({"x": [1]}, "a column name must be text, got 1"),
        ({"x": ["g"], "w": [None]}, "a column name must be text, got None"),
        ({"x": ["g"], "levels": {"g": [True, "a", "b"]}},
         "the levels of 'g' must be text or numbers, got True"),
        ({"x": ["g"], "levels": {"g": ["a", None]}},
         "the levels of 'g' must be text or numbers, got None"),
        ({"x": ["g"], "levels": {"g": [["a"], "b"]}},
         "the levels of 'g' must be text or numbers, got ['a']"),
    ], ids=["outcome_column", "x_column", "w_column", "true_level", "null_level",
            "list_level"])
    def test_wrong_type_exits_3(self, fields, message, outcome_fixture, tmp_path,
                                capsys):
        data, _ = outcome_fixture
        config = tmp_path / "typed.json"
        config.write_text(json.dumps(
            {"outcome": {"column": "y", "binary": True}, **fields}))
        code, _, cap = run_cli(
            ["bounds", "--data", data, "--config", str(config), "--xi", "g=a"],
            capsys)
        assert code == EXIT_DATA
        assert cap.err == f"error: DataError: {config}: data config: {message}\n"

    def test_numeric_levels_name_their_text(self, tmp_path):
        (tmp_path / "d.csv").write_text("y,g\n1,2\n0,1.5\n")
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"outcome": {"column": "y", "binary": True},
                                      "x": ["g"], "levels": {"g": [1.5, 2]}}))
        table = ingest_csv(str(tmp_path / "d.csv"), cli.load_config(str(config)))
        assert table.x_domains[0].levels == ("1.5", "2")
        assert table.x.tolist() == [1, 0]


class TestCellFlags:
    @pytest.mark.parametrize("xi, message", [
        ("g=a,typo=zzz", "names no role 'typo'"),
        ("typo=a", "names no role 'typo'"),
    ])
    def test_unknown_role_exits_3(self, xi, message, outcome_fixture, capsys):
        data, config = outcome_fixture
        code, _, cap = run_cli(
            ["bounds", "--data", data, "--config", config, "--xi", xi], capsys)
        assert code == EXIT_DATA
        assert message in cap.err

    @pytest.mark.parametrize("flag, cell, role", [
        ("--xi", "g=a,g=b", "g"),
        ("--xi", "g=a, g =a", "g"),
        ("--omega", "m=o,m=p", "m"),
    ])
    def test_role_named_twice_exits_3(self, flag, cell, role, outcome_fixture, capsys):
        data, config = outcome_fixture
        argv = ["bounds", "--data", data, "--config", config, "--xi", "g=a", flag, cell]
        code, _, cap = run_cli(argv, capsys)
        assert code == EXIT_DATA
        assert f"DataError: cell selector names role {role!r} twice" in cap.err


class TestSentinel:
    @pytest.mark.parametrize("sentinel", [None, 0, ["NA"]])
    def test_non_string_sentinel_exits_3(self, sentinel, outcome_fixture,
                                         tmp_path, capsys):
        data, _ = outcome_fixture
        config = tmp_path / "null_missing.json"
        config.write_text(json.dumps({
            "outcome": {"column": "y", "binary": True}, "x": ["g"],
            "missing": sentinel}))
        code, _, cap = run_cli(["bounds", "--data", data, "--config", str(config),
                                "--xi", "g=a"], capsys)
        assert code == EXIT_DATA
        assert (f"DataError: {config}: data config: the missing-value sentinel must be a "
                f"string, got {sentinel!r}") in cap.err


def unreadable(path, reader, error):
    """A read error as the reference names it: a field over the size limit
    on the line where the csv module stops, and a byte that is not UTF-8 on
    the line that its offset in the whole file falls on."""
    if isinstance(error, UnicodeDecodeError):
        raw = Path(path).read_bytes()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as e:
            line = 1 + len(re.findall(rb"\r\n?|\n", raw[:e.start]))
            return MalformedRow(line, (f"cannot read {path}: byte 0x{raw[e.start]:02x} "
                                       f"is not UTF-8 ({e.reason})"))
    return MalformedRow(reader.line_num, f"cannot read {path}: {error}")


def row_loop_ingest(path, cfg):
    """CSV ingest as a loop over the records: the reference the column-wise
    ``ingest_csv`` must match in arrays, domains and errors."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRow(1, "empty file; header row required") from None
        except (csv.Error, UnicodeDecodeError) as e:
            raise unreadable(path, reader, e) from None
        idx_y = cli._column_index(header, cfg.outcome_column)
        idx_x = [cli._column_index(header, c) for c in cfg.x_columns]
        idx_w = [cli._column_index(header, c) for c in cfg.w_columns]

        rows = []
        start = reader.line_num + 1
        while True:
            try:
                row = next(reader)
            except StopIteration:
                break
            except (csv.Error, UnicodeDecodeError) as e:
                raise unreadable(path, reader, e) from None
            line, start = start, reader.line_num + 1
            if len(row) != len(header):
                raise MalformedRow(
                    line, f"expected {len(header)} fields, got {len(row)}")
            raw_y = row[idx_y]
            if raw_y == cfg.sentinel:
                y_val = None
            else:
                try:
                    y_val = float(raw_y)
                except ValueError:
                    raise MalformedRow(line, f"outcome {raw_y!r} is not a number") from None
                if not cfg.outcome.contains([y_val]):
                    raise OutcomeOutOfDomain(
                        f"outcome {y_val} outside declared domain", line=line)
            x_val = []
            for col, i in zip(cfg.x_columns, idx_x):
                if row[i] == cfg.sentinel:
                    raise MalformedRow(line, f"missing value in x column {col!r}")
                x_val.append(row[i])
            w_val = [row[i] for i in idx_w]
            w_missing = any(v == cfg.sentinel for v in w_val)
            rows.append((line, y_val, tuple(x_val),
                         None if w_missing else tuple(w_val)))

    def build_domain(col, observed):
        declared = cfg.declared_levels.get(col)
        levels = tuple(declared) if declared else tuple(sorted(observed))
        return CategoricalDomain(col, levels)

    x_domains = tuple(
        build_domain(col, {r[2][j] for r in rows})
        for j, col in enumerate(cfg.x_columns))
    w_observed = [r[3] for r in rows if r[3] is not None]
    w_domains = tuple(
        build_domain(col, {wv[j] for wv in w_observed})
        for j, col in enumerate(cfg.w_columns)) if cfg.w_columns else ()

    ys, xs, ws = [], [], []
    for line, y_val, x_val, w_val in rows:
        ys.append(np.nan if y_val is None else y_val)
        try:
            xs.append(flat_value(x_domains, x_val))
            if w_val is None and w_domains:
                ws.append(-1)
            else:
                ws.append(flat_value(w_domains, w_val))
        except DataError as e:
            raise MalformedRow(line, str(e)) from None
    return ObservationTable(cfg.outcome, x_domains, w_domains,
                            np.array(ys), np.array(xs), np.array(ws))


def ingest_text(tmp_path, text, **config):
    """``ingest_csv`` of ``text`` under a config with outcome ``y`` in [0, 1]
    and x column ``g`` unless given."""
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    fields = dict(outcome_column="y", outcome=OutcomeDomain(0.0, 1.0),
                  x_columns=("g",))
    return ingest_csv(str(path), DataConfig(**dict(fields, **config)))


def ingest_error(tmp_path, text, **config):
    with pytest.raises(DataError) as exc:
        ingest_text(tmp_path, text, **config)
    return exc.value


class TestIngest:
    """Each ingest error keeps the class, line and message of a loop over
    the records, and the earliest row's error wins."""

    def test_outcome_not_a_number(self, tmp_path):
        e = ingest_error(tmp_path, "y,g\n1,a\n1_0x,a\n")
        assert type(e) is MalformedRow and e.line == 3
        assert str(e) == "line 3: outcome '1_0x' is not a number"

    def test_underscore_number_parses_as_python_float(self, tmp_path):
        table = ingest_text(tmp_path, "y,g\n0_0,a\n 1 ,a\n",
                            outcome=OutcomeDomain(0.0, 10.0))
        assert table.y.tolist() == [0.0, 1.0]

    def test_sentinel_in_x_column(self, tmp_path):
        e = ingest_error(tmp_path, "y,g,h\n1,a,b\n0,a,\n1,,\n",
                         x_columns=("g", "h"))
        assert type(e) is MalformedRow
        assert str(e) == "line 3: missing value in x column 'h'"

    def test_outcome_error_beats_x_sentinel_in_the_same_row(self, tmp_path):
        e = ingest_error(tmp_path, "y,g\n1,a\n7,\n")
        assert type(e) is OutcomeOutOfDomain and e.line == 3
        assert str(e) == "line 3: outcome 7.0 outside declared domain"

    @pytest.mark.parametrize("text, message", [
        ("y,g,m\n1,a,o\n0,z,o\n", "line 3: unknown level 'z' for domain 'g'"),
        ("y,g,m\n1,a,o\n0,a,q\n", "line 3: unknown level 'q' for domain 'm'"),
        ("y,g,m\n1,a,q\n0,z,o\n", "line 2: unknown level 'q' for domain 'm'"),
        ("y,g,m\n1,a,o\n0,z,q\n", "line 3: unknown level 'z' for domain 'g'"),
    ])
    def test_unknown_declared_level(self, tmp_path, text, message):
        e = ingest_error(tmp_path, text, w_columns=("m",),
                         declared_levels={"g": ["a"], "m": ["o"]})
        assert type(e) is MalformedRow and str(e) == message

    def test_unknown_level_in_a_missing_w_row_is_not_checked(self, tmp_path):
        table = ingest_text(tmp_path, "y,g,m,n\n1,a,o,u\n0,a,q,\n",
                            w_columns=("m", "n"),
                            declared_levels={"m": ["o"], "n": ["u"]})
        assert table.w.tolist() == [0, -1]

    def test_short_row_beats_a_later_bad_outcome(self, tmp_path):
        e = ingest_error(tmp_path, "y,g\n1,a\n0\nabc,a\n")
        assert type(e) is MalformedRow
        assert str(e) == "line 3: expected 2 fields, got 1"

    def test_bad_outcome_beats_a_later_short_row(self, tmp_path):
        e = ingest_error(tmp_path, "y,g\n1,a\nabc,a\n0\n")
        assert str(e) == "line 3: outcome 'abc' is not a number"

    def test_bad_outcome_beats_an_earlier_unknown_level(self, tmp_path):
        e = ingest_error(tmp_path, "y,g\n1,z\n0,a\n2,a\n",
                         declared_levels={"g": ["a"]})
        assert type(e) is OutcomeOutOfDomain
        assert str(e) == "line 4: outcome 2.0 outside declared domain"

    @pytest.mark.parametrize("text, error, message", [
        ('y,g,note\n1,a,x\n0,a,"two\nlines"\n1,a,x\n7,a,x\n',
         OutcomeOutOfDomain, "line 6: outcome 7.0 outside declared domain"),
        ('y,g,note\n0,a,"two\nlines"\n1,z,x\n', MalformedRow,
         "line 4: unknown level 'z' for domain 'g'"),
        ('y,g,note\n0,a,"three\n\nlines"\n1,a\n', MalformedRow,
         "line 5: expected 3 fields, got 2"),
        ('y,g,note\n0,"a\nb",x\n', MalformedRow,
         "line 2: unknown level 'a\\nb' for domain 'g'"),
    ], ids=["out_of_domain", "unknown_level", "short_row", "label_spans_lines"])
    def test_lines_are_physical_lines(self, tmp_path, text, error, message):
        """A quoted field spanning lines shifts the lines of later records;
        an error names the line where its record starts."""
        e = ingest_error(tmp_path, text, declared_levels={"g": ["a"]})
        assert type(e) is error and str(e) == message
        cfg = DataConfig("y", OutcomeDomain(0.0, 1.0), ("g",),
                         declared_levels={"g": ["a"]})
        with pytest.raises(error) as ref:
            row_loop_ingest(str(tmp_path / "data.csv"), cfg)
        assert str(ref.value) == message

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_lines_from_a_pipe(self):
        """A pipe can be read only once, as with ``--data <(...)``."""
        read_end, write_end = os.pipe()
        os.write(write_end, b'y,g,note\n0,a,"two\r\nlines"\n7,a,x\n')
        os.close(write_end)
        try:
            with pytest.raises(OutcomeOutOfDomain) as exc:
                ingest_csv(f"/dev/fd/{read_end}",
                           DataConfig("y", OutcomeDomain(0.0, 1.0), ("g",)))
        finally:
            os.close(read_end)
        assert str(exc.value) == "line 4: outcome 7.0 outside declared domain"

    def test_short_row_beats_a_later_undecodable_byte(self, tmp_path):
        """A short row before the bad byte wins; with no short row, the
        error names the byte's line 20003."""
        path = tmp_path / "data.csv"
        cfg = DataConfig("y", OutcomeDomain(0.0, 1.0), ("g",))
        for row, message in ((b"0\n", "line 2: expected 2 fields, got 1"),
                             (b"0,b\n", f"line 20003: cannot read {path}: byte 0xff "
                                         "is not UTF-8 (invalid start byte)")):
            path.write_bytes(b"y,g\n" + row + b"1,a\n" * 20000 + b"1,\xff\n")
            for ingest in (ingest_csv, row_loop_ingest):
                with pytest.raises(MalformedRow) as exc:
                    ingest(str(path), cfg)
                assert str(exc.value) == message

    def test_short_row_beats_an_undecodable_byte_in_a_small_file(self, tmp_path):
        """Errors follow their position in the file however small it is: a
        short row before the bad byte's row wins."""
        path = tmp_path / "data.csv"
        path.write_bytes(b"y,g\n1,a\n0\n1,a\n1,\xff\n")
        with pytest.raises(MalformedRow) as exc:
            ingest_csv(str(path), DataConfig("y", OutcomeDomain(0.0, 1.0), ("g",)))
        assert str(exc.value) == "line 3: expected 2 fields, got 1"

    def test_undecodable_byte_in_a_quoted_field_is_a_read_error(self, tmp_path):
        """The record cut short at the bad byte is not checked, so its
        missing field is no error of its own."""
        path = tmp_path / "data.csv"
        path.write_bytes(b'y,g\n1,a\n"0\n\xff",a\n')
        with pytest.raises(MalformedRow) as exc:
            ingest_csv(str(path), DataConfig("y", OutcomeDomain(0.0, 1.0), ("g",)))
        assert str(exc.value) == (f"line 4: cannot read {path}: byte 0xff "
                                  "is not UTF-8 (invalid start byte)")

    @pytest.mark.parametrize("content, reason", [
        (b"y,g\n1," + b"a" * 131072 + b"\xff\n", "byte 0xff is not UTF-8 (invalid start byte)"),
        (b'y,g\n1,"' + b"a" * 131072 + b'\xff"\n',
         "byte 0xff is not UTF-8 (invalid start byte)"),
        (b"y,g\n1," + b"a" * 131073 + b"\xff\n", "field larger than field limit (131072)"),
        (b"y,g\n1," + b"a" * 131073 + b"\n1,\xff\n",
         "field larger than field limit (131072)"),
    ], ids=["at_limit", "quoted_at_limit", "over_limit", "over_limit_earlier"])
    def test_undecodable_byte_after_a_field_at_the_size_limit(self, content, reason,
                                                              tmp_path):
        """A field of exactly the csv module's size limit before a bad byte
        is no read error of its own; a field over the limit before the bad
        byte, in its record or an earlier one, is the first fault."""
        path = tmp_path / "data.csv"
        path.write_bytes(content)
        with pytest.raises(MalformedRow) as exc:
            ingest_csv(str(path), DataConfig("y", OutcomeDomain(0.0, 1.0), ("g",)))
        assert str(exc.value) == f"line 2: cannot read {path}: {reason}"

    @pytest.mark.parametrize("content, line, byte", [
        (b"y,g\n1,a\n0,\xff\n", 3, 0xff),
        (b"y,\xfeg\n1,a\n", 1, 0xfe),
        (b"y,g\r\n1,a\r\n0,a\xfe\r\n1,a\r\n", 3, 0xfe),
    ], ids=["body", "header", "crlf"])
    def test_undecodable_byte_after_a_byte_order_mark(self, content, line, byte,
                                                      tmp_path):
        """The mark is not counted: the error names the bad byte and its line
        as in the same file without it."""
        path = tmp_path / "data.csv"
        path.write_bytes(codecs.BOM_UTF8 + content)
        with pytest.raises(MalformedRow) as exc:
            ingest_csv(str(path), DataConfig("y", OutcomeDomain(0.0, 1.0), ("g",)))
        assert str(exc.value) == (f"line {line}: cannot read {path}: byte 0x{byte:02x} "
                                  "is not UTF-8 (invalid start byte)")

    @pytest.mark.parametrize("eol", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("start", [8000, 8192, 8193, 8194, 90000])
    def test_undecodable_byte_names_its_line(self, eol, start, tmp_path):
        """The bad byte's line starts at byte ``start``, near and far from
        the start of the file, right after a ``\\n`` or a ``\\r\\n``.
        The error names the byte's line every time."""
        path = tmp_path / "data.csv"
        cfg = DataConfig("y", OutcomeDomain(0.0, 1.0), ("g",))
        head, row = b"y,g" + eol, b"1,a" + eol
        k = (start - len(head) - 10) // len(row)
        pad = start - len(head) - k * len(row) - len(b"1,") - len(eol)
        data = head + row * k + b"1," + b"a" * pad + eol
        assert len(data) == start
        path.write_bytes(data + b"1,a\xfe" + eol + b"0,a" + eol)
        for ingest in (ingest_csv, row_loop_ingest):
            with pytest.raises(MalformedRow) as exc:
                ingest(str(path), cfg)
            assert str(exc.value) == (f"line {k + 3}: cannot read {path}: byte 0xfe "
                                      "is not UTF-8 (invalid start byte)")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([b"a", "\u00e9".encode(), "\u20ac".encode()]),
                              st.sampled_from([b"\n", b"\r\n", b"\r"])),
                    min_size=1, max_size=40),
           st.integers(1, 2), st.integers(0, 40), st.integers(0, 3), st.booleans())
    @example([(b"a", b"\r"), ("\u00e9".encode(), b"\n")], 1, 5, 0, False)
    def test_undecodable_byte_names_its_line_at_any_line_end(self, lines, chunk, back,
                                                             at, pipe):
        """Short lines with mixed ``\\n``, ``\\r\\n`` and lone ``\\r`` ends,
        and labels of one to three UTF-8 bytes, start ``back`` bytes before
        byte ``chunk * 8192`` of the file, and the bad byte may follow any
        of them. The error names the line that the byte's offset in the
        whole file falls on, whether the file is read from disk or from a
        pipe, which cannot be read twice."""
        head = b"g,y\n" + b"a" * (chunk * 8192 - back - 7) + b",1\n"
        tail = b"".join(label + b",1" + eol for label, eol in lines)
        bad = b"a,1"[:at] + b"\xfe" + b"a,1"[at:] + b"\na,0\n"
        data = head + tail + bad
        line = 1 + len(re.findall(rb"\r\n?|\n", data[:data.index(b"\xfe")]))
        cfg = DataConfig("y", OutcomeDomain(0.0, 1.0), ("g",))
        with contextlib.ExitStack() as stack:
            if pipe and os.path.isdir("/dev/fd"):
                read_end, write_end = os.pipe()
                stack.callback(os.close, read_end)
                os.set_blocking(write_end, False)  # fail, not hang, on a small pipe
                assert os.write(write_end, data) == len(data)
                os.close(write_end)
                path = f"/dev/fd/{read_end}"
            else:
                path = os.path.join(stack.enter_context(tempfile.TemporaryDirectory()),
                                    "data.csv")
                Path(path).write_bytes(data)
            with pytest.raises(MalformedRow) as exc:
                ingest_csv(path, cfg)
        assert str(exc.value) == (f"line {line}: cannot read {path}: byte 0xfe "
                                  "is not UTF-8 (invalid start byte)")

    def test_undeclared_levels_are_sorted(self, tmp_path):
        table = ingest_text(tmp_path, "y,g,m\n1,c,p\n0,a,\n1,b,o\n0,a,z\n",
                            w_columns=("m",), sentinel="")
        assert table.x_domains[0].levels == ("a", "b", "c")
        assert table.x.tolist() == [2, 0, 1, 0]

    def test_undeclared_w_levels_come_from_observed_rows(self, tmp_path):
        table = ingest_text(tmp_path, "y,g,m,n\n1,a,p,u\n0,a,a,\n1,a,o,v\n",
                            w_columns=("m", "n"))
        assert [d.levels for d in table.w_domains] == [("o", "p"), ("u", "v")]
        assert table.w.tolist() == [2, -1, 1]

    def test_one_sentinel_among_w_columns_blanks_the_whole_w(self, tmp_path):
        table = ingest_text(tmp_path, "y,g,m,n\n1,a,o,u\n0,a,NA,u\n1,a,o,NA\n",
                            w_columns=("m", "n"), sentinel="NA")
        assert table.w.tolist() == [0, -1, -1]

    def test_quoted_field_with_a_comma(self, tmp_path):
        table = ingest_text(tmp_path, 'y,g,note\n1,"a,b",x\n0,c,"p, q"\n')
        assert table.x_domains[0].levels == ("a,b", "c")
        assert table.x.tolist() == [0, 1]


@st.composite
def csv_cases(draw):
    """A small CSV and a config for it: random columns, fields, sentinel,
    outcome domain and declared levels. One field in ten is drawn from a
    pool of bad values, and some rows lose or gain a field."""
    sentinel, other = draw(st.permutations(["", "NA"]))
    n_x, n_w = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    x_cols = [f"x{j}" for j in range(n_x)]
    w_cols = [f"w{j}" for j in range(n_w)]
    header = draw(st.permutations(["y", *x_cols, *w_cols, "extra"]))
    pools = {"y": (["0", "1", " 1", "-0", "0.5", sentinel],
                   ["nan", "abc", "1_0", "2", other])}
    pools.update({c: (["a", "b", "c", "a,b"], ["z", 'q"r', sentinel]) for c in x_cols})
    pools.update({c: (["a", "b", "c", "a,b", sentinel], ["z", 'q"r']) for c in w_cols})
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        row = []
        for h in header:
            common, rare = pools.get(h, ([other], [sentinel]))
            bad = draw(st.integers(0, 9)) == 0
            row.append(draw(st.sampled_from(rare if bad else common)))
        cut = draw(st.sampled_from([0] * 18 + [-1, 1]))
        rows.append(row[:cut] if cut < 0 else row + ["extra"] * cut)
    levels = {}
    for col in x_cols + w_cols:
        declared = draw(st.sampled_from([None, [], ["a", "b"], ["a", "b", "c", "a,b"]]))
        if declared is not None:
            levels[col] = declared
    outcome = draw(st.sampled_from([OutcomeDomain.binary_01(), OutcomeDomain(0.0, 1.0),
                                    OutcomeDomain(-1.0, 2.0)]))
    cfg = DataConfig("y", outcome, tuple(x_cols), tuple(w_cols),
                     sentinel=sentinel, declared_levels=levels)
    return header, rows, cfg


def outcome_of(ingest, path, cfg):
    try:
        return ingest(path, cfg)
    except Exception as e:  # compared by type and message below
        return e


@settings(max_examples=300, deadline=None)
@given(csv_cases())
def test_ingest_matches_the_row_loop(case):
    header, rows, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([header, *rows])
        got = outcome_of(ingest_csv, path, cfg)
        expected = outcome_of(row_loop_ingest, path, cfg)
    if isinstance(expected, Exception):
        assert (type(got), str(got)) == (type(expected), str(expected))
        assert getattr(got, "line", None) == getattr(expected, "line", None)
        return
    assert not isinstance(got, Exception), got
    assert got.x_domains == expected.x_domains and got.w_domains == expected.w_domains
    assert np.array_equal(got.y, expected.y, equal_nan=True)
    assert got.x.tolist() == expected.x.tolist() and got.w.tolist() == expected.w.tolist()


@settings(max_examples=100, deadline=None)
@given(csv_cases())
def test_byte_order_mark_is_ignored(case):
    """A CSV saved with a UTF-8 byte-order mark ingests as the plain file
    does: the same arrays and domains, or the same error on the same line."""
    header, rows, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        got = []
        for encoding in ("utf-8", "utf-8-sig"):
            path = os.path.join(tmp, f"{encoding}.csv")
            with open(path, "w", encoding=encoding, newline="") as fh:
                csv.writer(fh).writerows([header, *rows])
            got.append(outcome_of(ingest_csv, path, cfg))
    plain, marked = got
    if isinstance(plain, Exception):
        assert (type(marked), str(marked)) == (type(plain), str(plain))
        assert getattr(marked, "line", None) == getattr(plain, "line", None)
        return
    assert marked.x_domains == plain.x_domains and marked.w_domains == plain.w_domains
    assert np.array_equal(marked.y, plain.y, equal_nan=True)
    assert marked.x.tolist() == plain.x.tolist() and marked.w.tolist() == plain.w.tolist()


@pytest.mark.parametrize("chunk", [2, 3])
@settings(max_examples=150, deadline=None)
@given(csv_cases())
def test_ingest_in_small_chunks_matches_the_row_loop(chunk, case):
    """The row-loop equivalence with chunks of two or three records, so
    that most cases span several chunks."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "CHUNK_RECORDS", chunk)
        test_ingest_matches_the_row_loop.hypothesis.inner_test(case)


def ingest_as_the_row_loop(path, text, **config):
    """``ingest_csv`` of ``text`` under a config with outcome ``y`` in
    [0, 1] and x column ``g`` unless given, checked against the row loop:
    the same table, or the same error on the same line. The table or the
    error is returned."""
    path.write_bytes(text.encode())
    fields = dict(outcome_column="y", outcome=OutcomeDomain(0.0, 1.0), x_columns=("g",))
    cfg = DataConfig(**dict(fields, **config))
    got, expected = (outcome_of(ingest, str(path), cfg)
                     for ingest in (ingest_csv, row_loop_ingest))
    if isinstance(expected, Exception):
        assert (type(got), str(got)) == (type(expected), str(expected))
        assert got.line == expected.line
        return got
    assert got.x_domains == expected.x_domains and got.w_domains == expected.w_domains
    assert np.array_equal(got.y, expected.y, equal_nan=True)
    assert got.x.tolist() == expected.x.tolist() and got.w.tolist() == expected.w.tolist()
    return got


class TestIngestAcrossChunks:
    """Ingest in chunks of two records: the errors, their lines and the
    levels do not depend on where a chunk ends."""

    @pytest.fixture(autouse=True)
    def chunks_of_two(self, monkeypatch):
        monkeypatch.setattr(cli, "CHUNK_RECORDS", 2)

    @pytest.mark.parametrize("row, error, message", [
        ("0,a,o", MalformedRow, "expected 4 fields, got 3"),
        ("0,a,o,x,x", MalformedRow, "expected 4 fields, got 5"),
        ("abc,a,o,x", MalformedRow, "outcome 'abc' is not a number"),
        ("7,a,o,x", OutcomeOutOfDomain, "outcome 7.0 outside declared domain"),
        ("1,,o,x", MalformedRow, "missing value in x column 'g'"),
        ("1,z,o,x", MalformedRow, "unknown level 'z' for domain 'g'"),
        ("1,a,q,x", MalformedRow, "unknown level 'q' for domain 'm'"),
    ], ids=["short", "long", "not_a_number", "out_of_domain", "x_sentinel",
            "unknown_x", "unknown_w"])
    @pytest.mark.parametrize("note, line", [("x", 6), ('"two\nlines"', 8)],
                             ids=["one_line", "multi_line"])
    def test_record_error_in_a_later_chunk(self, row, error, message, note, line,
                                           tmp_path):
        """The fifth record, the first of the third chunk, is the offender;
        with a note that spans two lines in each earlier chunk's last
        record, its line moves down by two."""
        rows = ["1,a,o,x", f"0,b,p,{note}", "1,a,,x", f"0,b,o,{note}", row, "1,a,o,x"]
        e = ingest_as_the_row_loop(
            tmp_path / "data.csv", "y,g,m,note\n" + "\n".join(rows) + "\n",
            w_columns=("m",), declared_levels={"g": ["a", "b"], "m": ["o", "p"]})
        assert type(e) is error and str(e) == f"line {line}: {message}"

    @pytest.mark.parametrize("text, message", [
        ('y,g,note\n1,a,x\n0,a,"three\nline\nnote"\n1,a,"two\r\nlines"\n1,a,x\n7,a,x\n',
         "line 9: outcome 7.0 outside declared domain"),
        ('y,g,note\n1,a,x\n0,a,"two\rlines"\n1,a,x\n1,a,"p\nq"\n7,a,"r\ns"\n',
         "line 8: outcome 7.0 outside declared domain"),
        ('y,"g\nh",note\n1,a,x\n0,a,x\n1,a,"two\nlines"\n1,a\n',
         "line 7: expected 3 fields, got 2"),
    ], ids=["spans_each_end", "offender_spans_lines", "header_spans_lines"])
    def test_quoted_line_breaks_at_a_chunk_end(self, text, message, tmp_path):
        """Records whose quoted fields span lines end and start chunks, and
        the header may span lines too: each error names the line where its
        record starts."""
        columns = {"x_columns": ("g\nh",)} if text.startswith('y,"') else {}
        e = ingest_as_the_row_loop(tmp_path / "data.csv", text, **columns)
        assert str(e) == message

    def test_undeclared_level_first_seen_in_the_last_chunk(self, tmp_path):
        table = ingest_as_the_row_loop(
            tmp_path / "data.csv", "y,g,m\n1,c,o\n0,c,\n1,b,p\n0,c,p\n1,a,n\n",
            w_columns=("m",))
        assert table.x_domains[0].levels == ("a", "b", "c")
        assert table.w_domains[0].levels == ("n", "o", "p")
        assert table.x.tolist() == [2, 2, 1, 2, 0]
        assert table.w.tolist() == [1, -1, 2, 2, 0]

    @pytest.mark.parametrize("content, message", [
        (b"y,g\n1,a\n0,a\n1,a\n0,a\n1,\xff\n",
         "line 6: cannot read {path}: byte 0xff is not UTF-8 (invalid start byte)"),
        (b"y,g\n1,a\n0,a\n1,a\n0,\xff\n",
         "line 5: cannot read {path}: byte 0xff is not UTF-8 (invalid start byte)"),
        (b"y,g\n1,a\n0,a\n1,a\n1," + b"a" * 131073 + b"\n0,a\n",
         "line 5: cannot read {path}: field larger than field limit (131072)"),
        (b"y,g\n1,a\n0\n1,a\n0,a\n1,\xff\n", "line 3: expected 2 fields, got 1"),
        (b"y,g\n1,a\n0,a\n1,a\n7,a\n1," + b"a" * 131073 + b"\n",
         "line 5: outcome 7.0 outside declared domain"),
        (b"y,g\n1,z\n0,a\n1,a\n0,a\n1,\xff\n",
         "line 6: cannot read {path}: byte 0xff is not UTF-8 (invalid start byte)"),
        (b"y,g\n1,z\n0,a\n1,a\n0,a\n7,a\n", "line 6: outcome 7.0 outside declared domain"),
    ], ids=["bad_byte_alone_in_a_chunk", "bad_byte_ends_a_full_chunk", "long_field",
            "earlier_short_row_wins", "earlier_bad_outcome_wins",
            "read_error_beats_an_earlier_unknown_level",
            "record_error_beats_an_earlier_unknown_level"])
    def test_faults_after_the_first_chunk(self, content, message, tmp_path):
        """A read error after the first chunk, and which error wins when
        the faults are in different chunks. The row loop is no reference
        here: its decoder meets a bad byte in a small file before the loop
        reaches the earlier rows."""
        path = tmp_path / "data.csv"
        path.write_bytes(content)
        with pytest.raises(DataError) as exc:
            ingest_csv(str(path), DataConfig("y", OutcomeDomain(0.0, 1.0), ("g",),
                                             declared_levels={"g": ["a"]}))
        assert str(exc.value) == message.format(path=path)


def test_ingest_memory_is_bounded(tmp_path):
    """Ingest holds one chunk of records as Python objects at a time. On a
    generated 5e4-row CSV its traced peak stays under 6 MiB; a list of
    every record takes 11 MiB there."""
    n = 50000
    rng = np.random.default_rng(7)
    y = np.array(["0.0", "1.0"])[rng.integers(0, 2, n)]
    x1 = np.array(["a", "b", "c"])[rng.integers(0, 3, n)]
    x2 = np.array(["a", "b"])[rng.integers(0, 2, n)]
    w = np.array(["a", "b", "c", "d", "", "", "", ""])[rng.integers(0, 8, n)]
    path = tmp_path / "large.csv"
    path.write_text("y,x1,x2,w\n" + "".join(
        f"{row[0]},{row[1]},{row[2]},{row[3]}\n" for row in zip(y, x1, x2, w)))
    cfg = DataConfig("y", OutcomeDomain.binary_01(), ("x1", "x2"), ("w",))
    tracemalloc.start()
    try:
        table = ingest_csv(str(path), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.n == n and int((table.w < 0).sum()) == int((w == "").sum())
    assert peak < 6 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"


def test_byte_order_mark_in_json_config(outcome_fixture, tmp_path, capsys):
    data, config = outcome_fixture
    marked = tmp_path / "marked.json"
    marked.write_text(Path(config).read_text(encoding="utf-8"), encoding="utf-8-sig")
    argv = ["bounds", "--data", data, "--xi", "g=a", "--config"]
    code, report, _ = run_cli(argv + [str(marked)], capsys)
    plain_code, plain_report, _ = run_cli(argv + [config], capsys)
    assert (code, report["results"]) == (plain_code, plain_report["results"])


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


@pytest.mark.parametrize("config, rows, cell, code, message", [
    pytest.param({"outcome": {"column": "y", "binary": True}, "x": ["y"]}, "y\n1\n",
                 ["--xi", "y=1"], EXIT_DATA,
                 "UnknownColumn: CONFIG: configured column names are not distinct",
                 id="repeated_config_column"),
    pytest.param({"outcome": {"column": "y", "binary": True}, "x": ["g"]}, "y,g\n1,a\n",
                 ["--xi", "g"], EXIT_DATA, "DataError: cell selector part 'g' is not K=V",
                 id="selector_part_not_k_v"),
    pytest.param({"outcome": {"column": "y", "lo": 0, "hi": 10}, "x": ["g"], "w": ["m"]},
                 "y,g,m\n5,a,o\n0,a,\n", ["--xi", "g=a", "--omega", "m=o"], EXIT_GUARD,
                 "NonBinaryOutcome: bounds require a binary {0,1} outcome",
                 id="bounds_on_a_real_outcome"),
])
def test_bounds_error_paths(config, rows, cell, code, message, tmp_path, capsys):
    (tmp_path / "d.csv").write_text(rows)
    (tmp_path / "c.json").write_text(json.dumps(config))
    got, _, cap = run_cli(["bounds", "--data", str(tmp_path / "d.csv"),
                           "--config", str(tmp_path / "c.json"), *cell], capsys)
    assert got == code
    assert message.replace("CONFIG", str(tmp_path / "c.json")) in cap.err
