"""Golden CLI reports: each case runs ``cli.main`` in-process, in a
directory of inputs generated from fixed seeds and named by relative
paths, and compares stdout, stderr and the exit code with the stored
``tests/golden/<case>.json``. A case that writes files under ``out/``
also stores the text of each one.

A change that alters report bytes on purpose regenerates the goldens and
says which files changed and why::

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import codecs
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from imputebounds import cli, population_to_json
from imputebounds.domain import value_labels
from imputebounds.simlab import random_population, sample_table

GOLDEN_DIR = Path(__file__).parent / "golden"

OUT = ["--data", "out.csv", "--config", "out_config.json"]
COV = ["--data", "cov.csv", "--config", "cov_config.json"]
REAL = ["--data", "real.csv", "--config", "real_config.json"]
#: the directory a case's ``--out`` names; emptied before and after each case
OUT_DIR = Path("out")

#: case name -> CLI argv, run in the directory :func:`write_inputs` fills
CASES = {
    "bounds_x": ["bounds", *OUT, "--xi", "x1=a"],
    "bounds_xw": ["bounds", *COV, "--xi", "x1=a", "--omega", "w1=b"],
    "estimate_mar": ["estimate", *OUT, "--model", "mar", "--xi", "x1=b",
                     "--m", "5", "--seed", "7"],
    "estimate_marcov": ["estimate", *COV, "--model", "marcov", "--xi", "x1=a",
                        "--omega", "w1=a", "--m", "5", "--seed", "7"],
    "estimate_q_covariate": ["estimate", *COV, "--model", "q:q_cov.json",
                             "--xi", "x1=b", "--omega", "w1=b", "--m", "5",
                             "--seed", "8"],
    "estimate_q_outcome": ["estimate", *OUT, "--model", "q:q_out.json",
                           "--xi", "x1=a", "--m", "5", "--seed", "8"],
    "estimate_ecological": ["estimate", *COV, "--model", "ecological",
                            "--xi", "x1=a", "--omega", "w1=b", "--m", "5",
                            "--seed", "9"],
    "estimate_large_m": ["estimate", *OUT, "--model", "mar", "--xi", "x1=a",
                         "--m", "2000", "--seed", "18446744073709551615"],
    "audit_mar_population": ["audit", *OUT, "--model", "mar", "--xi", "x1=a",
                             "--m", "20", "--seed", "3",
                             "--population", "pop_out.json"],
    "audit_marcov_population": ["audit", *COV, "--model", "marcov",
                                "--xi", "x1=b", "--omega", "w1=a", "--m", "20",
                                "--seed", "3", "--population", "pop_cov.json"],
    "estimate_real_wide": ["estimate", *REAL, "--model", "mar", "--xi", "x1=b",
                           "--m", "40", "--seed", "11"],
    "audit_out": ["audit", *OUT, "--model", "mar", "--xi", "x1=b",
                  "--m", "6", "--seed", "4", "--out", str(OUT_DIR)],
    "simulate": ["simulate", "--spec", "spec.json"],
    "simulate_out": ["simulate", "--spec", "spec.json", "--out", str(OUT_DIR)],
    "simulate_outcome": ["simulate", "--spec", "spec_out.json"],
    "ecological": ["ecological", "--py", "0.6", "--pw", "0.3"],
    "read_error_bom_bad_byte": ["bounds", "--data", "bom.csv",
                                "--config", "out_config.json", "--xi", "x1=a"],
    "read_error_cr_bad_byte": ["bounds", "--data", "cr.csv",
                               "--config", "out_config.json", "--xi", "x1=a"],
    "read_error_field_limit": ["bounds", "--data", "wide_field.csv",
                               "--config", "out_config.json", "--xi", "x1=a"],
    "bounds_empty_level": ["bounds", "--data", "one_level.csv",
                           "--config", "two_levels_config.json", "--xi", "x1=b"],
}


def _write_csv(path, table):
    """``table`` as a CSV with a header of the domain names, the empty
    string marking a missing value."""
    domains = table.x_domains + table.w_domains
    lines = [",".join(["y"] + [d.name for d in domains])]
    for y, x, w in zip(table.y, table.x, table.w):
        fields = ["" if np.isnan(y) else f"{y:g}"]
        fields += value_labels(table.x_domains, int(x))
        if w < 0:
            fields += [""] * len(table.w_domains)
        else:
            fields += value_labels(table.w_domains, int(w))
        lines.append(",".join(fields))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_real_csv(path, n, seed):
    """``n`` records of a real outcome on [0, 10] in steps of 0.001, about
    a fifth of them missing, at two x levels: each level's donors take
    more than 200 distinct values."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 10001, size=n) / 1000
    missing = rng.random(n) < 0.2
    x = rng.integers(0, 2, size=n)
    lines = ["y,x1"] + [f"{'' if gone else f'{v:g}'},{'ab'[k]}"
                        for v, gone, k in zip(y, missing, x)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path, obj):
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def write_inputs(directory):
    """Fill ``directory`` with every input the cases read."""
    d = Path(directory)
    pop_out = random_population(1817, x_sizes=(2,))
    pop_cov = random_population(1802, x_sizes=(2,), w_sizes=(2,), regime="covariate")
    _write_json(d / "pop_out.json", population_to_json(pop_out))
    _write_json(d / "pop_cov.json", population_to_json(pop_cov))
    _write_csv(d / "out.csv", sample_table(pop_out, 60, 18))
    _write_csv(d / "cov.csv", sample_table(pop_cov, 80, 19))
    _write_json(d / "out_config.json",
                {"outcome": {"column": "y", "binary": True}, "x": ["x1"]})
    _write_json(d / "cov_config.json",
                {"outcome": {"column": "y", "binary": True}, "x": ["x1"],
                 "w": ["w1"]})
    _write_json(d / "q_out.json", {"kind": "outcome_q", "strata": [
        {"x": [x], "dist": [{"y": 0.0, "p": 0.25}, {"y": 1.0, "p": 0.75}]}
        for x in ("a", "b")]})
    _write_json(d / "q_cov.json", {"kind": "covariate_q", "strata": [
        {"y": y, "x": [x], "dist": [{"w": ["a"], "p": p}, {"w": ["b"], "p": 1 - p}]}
        for y, p in ((0.0, 0.375), (1.0, 0.625)) for x in ("a", "b")]})
    _write_json(d / "spec.json", {
        "population": "pop_cov.json", "model": "marcov", "estimator": "long_mean",
        "xi": {"x1": "a"}, "omega": {"w1": "a"}, "n_grid": [200, 400],
        "reps": 2, "seed": 5, "tolerance": 0.5})
    _write_json(d / "spec_out.json", {
        "population": "pop_out.json", "model": "mar",
        "estimator": "imputation_mean", "xi": {"x1": "b"}, "n_grid": [300, 600],
        "reps": 3, "seed": 12, "tolerance": 0.5})
    _write_real_csv(d / "real.csv", 720, 1820)
    _write_json(d / "real_config.json",
                {"outcome": {"column": "y", "lo": 0, "hi": 10}, "x": ["x1"]})
    (d / "bom.csv").write_bytes(codecs.BOM_UTF8 + b"y,x1\n1,a\n0,\xff\n")
    (d / "cr.csv").write_bytes(b"y,x1\r1,a\r0,b\r1,b\xff\r0,a\r")
    (d / "wide_field.csv").write_bytes(b"y,x1\n1," + b"a" * 200000 + b"\n")
    (d / "one_level.csv").write_text("y,x1\n1,a\n,a\n0,a\n", encoding="utf-8")
    _write_json(d / "two_levels_config.json",
                {"outcome": {"column": "y", "binary": True}, "x": ["x1"],
                 "levels": {"x1": ["a", "b"]}})


def run_case(argv):
    """``{"exit", "stdout", "stderr"}`` of ``cli.main(argv)`` in-process,
    run in the current directory, and ``"files"``, the text of each file
    written under :data:`OUT_DIR` by its path there, when there is one."""
    shutil.rmtree(OUT_DIR, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    result = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    written = sorted(p for p in OUT_DIR.rglob("*") if p.is_file())
    if written:
        result["files"] = {p.relative_to(OUT_DIR).as_posix():
                           p.read_bytes().decode("utf-8") for p in written}
    shutil.rmtree(OUT_DIR, ignore_errors=True)
    return result


def _golden_path(case):
    return GOLDEN_DIR / f"{case}.json"


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden_inputs")
    write_inputs(directory)
    return directory


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, inputs_dir, monkeypatch):
    monkeypatch.chdir(inputs_dir)
    expected = json.loads(_golden_path(case).read_text(encoding="utf-8"))
    got = run_case(CASES[case])
    assert got["exit"] == expected["exit"]
    assert got["stderr"] == expected["stderr"]
    assert got["stdout"] == expected["stdout"]
    assert got.get("files") == expected.get("files")


def regenerate():
    """Rewrite every golden from the current tree, in a fresh directory."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(directory)
        os.chdir(directory)
        try:
            results = {case: run_case(argv) for case, argv in CASES.items()}
        finally:
            os.chdir(here)
    for case, result in results.items():
        _golden_path(case).write_text(json.dumps(result, indent=1) + "\n",
                                      encoding="utf-8")
        print(f"{case}: exit {result['exit']}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
