"""Fuzz of the four JSON loaders: data config, population, model and
experiment spec. Any JSON value either loads or raises :class:`DataError`
(the spec, which names other files, may also raise ``OSError``), and the
CLI reading the same file exits 3 on it instead of ending in a traceback."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from imputebounds import population_to_json
from imputebounds.cli import EXIT_DATA, EXIT_GUARD, config_from_json, main
from imputebounds.domain import population_from_json
from imputebounds.errors import DataError
from imputebounds.models import model_from_json, model_to_json
from imputebounds.simlab import experiment_from_json
from conftest import build_covariate_pop, build_mnar_pop

#: any JSON scalar, NaN and Infinity included
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
#: any value ``json.load`` can return
JSON = st.recursive(
    SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=10)

POPULATIONS = [population_to_json(build_mnar_pop()),
               population_to_json(build_covariate_pop())]
MODELS = [
    {"kind": "outcome_q",
     "strata": [{"x": ["a"], "dist": [{"y": 0.0, "p": 0.5}, {"y": 1.0, "p": 0.5}]}]},
    {"kind": "covariate_q",
     "strata": [{"y": y, "x": ["a"],
                 "dist": [{"w": ["o"], "p": 0.25}, {"w": ["p"], "p": 0.75}]}
                for y in (0.0, 1.0)]},
    {"kind": "mar_covariate"},
]
VALID = {
    "config": [
        {"outcome": {"column": "y", "binary": True}, "x": ["g"], "w": [],
         "missing": "", "levels": {"g": ["a", "b"]}},
        {"outcome": {"column": "y", "lo": 0.0, "hi": 1.0}, "x": ["g"]},
    ],
    "population": POPULATIONS,
    "model": MODELS,
    "spec": [
        {"population": "pop.json", "model": "mar", "estimator": "imputation_mean",
         "xi": {"g": "a"}, "omega": None, "n_grid": [20, 40], "reps": 2,
         "seed": 1, "tolerance": 1.0},
        {"population": POPULATIONS[1], "model": MODELS[1], "estimator": "long_mean",
         "xi": ["a"], "omega": {"m": "o"}, "n_grid": [20], "reps": 1,
         "seed": 2, "tolerance": 1.0},
    ],
}


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _values(doc):
    """``doc`` and every value inside it."""
    yield doc
    children = doc.values() if isinstance(doc, dict) else (
        doc if isinstance(doc, list) else ())
    for child in children:
        yield from _values(child)


#: a JSON scalar, or a value that a valid spec or model holds somewhere
SPEC_VALUES = SCALARS | st.sampled_from(
    [v for doc in VALID["spec"] + MODELS for v in _values(doc)]
    + ["marcov", "ecological", "long_mean", "imputation_mean"])


@st.composite
def mutated(draw, docs, values=JSON):
    """A valid document with one to three of its values replaced by a
    draw of ``values`` or, inside an object, deleted."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(JSON)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(draw(values))
    return doc


LOADERS = {
    "config": config_from_json,
    "population": population_from_json,
    "model": model_from_json,
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A directory with the data the CLI runs on and the file a spec names."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "y.csv").write_text("y,g\n1,a\n0,a\n,a\n")
    (root / "w.csv").write_text("y,g,m\n1,a,o\n0,a,p\n1,a,\n")
    (root / "cfg.json").write_text(json.dumps(VALID["config"][0]))
    (root / "wcfg.json").write_text(json.dumps(
        {"outcome": {"column": "y", "binary": True}, "x": ["g"], "w": ["m"]}))
    (root / "pop.json").write_text(json.dumps(POPULATIONS[0]))
    return root


def _argv(kind, root, doc_path, covariate):
    data, config = ((root / "w.csv", root / "wcfg.json") if covariate
                    else (root / "y.csv", root / "cfg.json"))
    common = ["--data", str(data), "--config", str(config), "--xi", "g=a"]
    return {
        "config": ["bounds", "--data", str(root / "y.csv"), "--config",
                   str(doc_path), "--xi", "g=a"],
        "model": ["estimate", *common, "--model", f"q:{doc_path}"]
                 + (["--omega", "m=o"] if covariate else []),
        "population": ["audit", *common, "--model", "mar", "--m", "1",
                       "--population", str(doc_path)],
        "spec": ["simulate", "--spec", str(doc_path)],
    }[kind]


@pytest.mark.parametrize("change", [
    dict(n_grid=[2e1, 4e1], reps=2.0, seed=-3, tolerance=1),
    dict(seed=2**64 - 1, tolerance=0),
])
def test_integral_numbers_load(change):
    spec = experiment_from_json(dict(VALID["spec"][1], **change))
    assert isinstance(spec.reps, int) and isinstance(spec.seed, int)
    assert all(isinstance(n, int) for n in spec.n_grid)
    assert isinstance(spec.tolerance, float)
    assert spec.seed == change["seed"]


def _run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("kind", ["config", "population", "model", "spec"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_loads_or_raises_a_data_error(kind, data, files):
    doc = data.draw(JSON | mutated(VALID[kind]), label="document")
    doc_path = files / f"{kind}.json"
    doc_path.write_text(json.dumps(doc))
    try:
        if kind == "spec":
            loaded = experiment_from_json(doc, base_dir=str(files))
        else:
            loaded = LOADERS[kind](doc)
    except (DataError, OSError) as e:
        assert kind == "spec" or isinstance(e, DataError)
        code, err = _run_cli(_argv(kind, files, doc_path, False))
        assert code == EXIT_DATA, err
        assert err.startswith("error: ")
        return
    if kind == "spec":
        return  # a loaded spec may ask for any amount of sampling
    covariate = kind == "model" and loaded.target == "covariate"
    code, _ = _run_cli(_argv(kind, files, doc_path, covariate))
    assert code in (0, EXIT_DATA, EXIT_GUARD)


#: the most records a spec may sample in all for the run below
SMALL_SPEC_RECORDS = 2000


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(doc=mutated(VALID["spec"], SPEC_VALUES))
def test_small_loaded_spec_exits_0_3_or_4(doc, files):
    """Every spec that loads and samples at most ``SMALL_SPEC_RECORDS``
    records runs to exit 0, 3 or 4, never to an uncaught exception."""
    try:
        spec = experiment_from_json(doc, base_dir=str(files))
    except (DataError, OSError):
        spec = None
    assume(spec is not None and spec.reps * sum(spec.n_grid) <= SMALL_SPEC_RECORDS)
    doc_path = files / "small_spec.json"
    doc_path.write_text(json.dumps(doc))
    code, err = _run_cli(["simulate", "--spec", str(doc_path)])
    assert code in (0, EXIT_DATA, EXIT_GUARD), err


@pytest.mark.parametrize("kind, doc", [
    ("config", dict(VALID["config"][0], levels={"g": 1.0})),
    ("model", {"kind": "outcome_q",
               "strata": [{"x": ["a"], "dist": [{"y": 0.0, "p": 0.75}]}]}),
    ("population", dict(POPULATIONS[0], cells=[
        dict(POPULATIONS[0]["cells"][0], mass=10**400)])),
    ("spec", dict(VALID["spec"][0], n_grid=[float("inf")])),
    ("population", dict(POPULATIONS[0], x_domains={"g": "a"})),
    ("population", dict(POPULATIONS[0], cells=[
        dict(cell, x="a") for cell in POPULATIONS[0]["cells"]])),
    ("spec", dict(VALID["spec"][0], n_grid="24")),
    ("spec", dict(VALID["spec"][0], n_grid=[-5, 100])),
    ("spec", dict(VALID["spec"][0], tolerance=float("nan"))),
    ("spec", dict(VALID["spec"][0], tolerance=float("inf"))),
    ("spec", dict(VALID["spec"][0], tolerance=-0.5)),
    ("spec", dict(VALID["spec"][0], tolerance=True)),
    ("spec", dict(VALID["spec"][0], reps=2.5)),
    ("spec", dict(VALID["spec"][0], reps=True)),
    ("spec", dict(VALID["spec"][0], n_grid=[20.9, 40])),
    ("spec", dict(VALID["spec"][0], n_grid=[True, 40])),
    ("spec", dict(VALID["spec"][0], seed=True)),
    ("spec", dict(VALID["spec"][0], seed=1.5)),
    ("spec", dict(VALID["spec"][0], seed="1")),
    ("config", dict(VALID["config"][0], levels={"y": []})),
    ("population", dict(POPULATIONS[0], cells=[
        dict(POPULATIONS[0]["cells"][0], z=128)])),
    ("config", dict(VALID["config"][1], outcome={"column": "y", "lo": "0", "hi": 1.0})),
    ("config", dict(VALID["config"][1], outcome={"column": "y", "lo": True, "hi": 2.0})),
    ("config", dict(VALID["config"][1], outcome={"column": "y", "lo": 0.0, "hi": "1"})),
    ("model", {"kind": "outcome_q", "strata": [{"x": ["a"], "dist": [
        {"y": 0.0, "p": "0.5"}, {"y": 1.0, "p": 0.5}]}]}),
    ("model", {"kind": "outcome_q", "strata": [{"x": ["a"], "dist": [
        {"y": 1.0, "p": True}]}]}),
    ("model", dict(MODELS[1], strata=[dict(MODELS[1]["strata"][0], dist=[
        {"w": ["o"], "p": "0.25"}, {"w": ["p"], "p": 0.75}])])),
    ("model", {"kind": "outcome_q", "strata": [{"x": ["a"], "dist": [
        {"y": "0", "p": 0.5}, {"y": 1.0, "p": 0.5}]}]}),
    ("model", {"kind": "outcome_q", "strata": [{"x": ["a"], "dist": [
        {"y": 0.0, "p": 0.5}, {"y": True, "p": 0.5}]}]}),
    ("model", dict(MODELS[1], strata=[dict(MODELS[1]["strata"][0], y="0")])),
    ("model", dict(MODELS[1], strata=[dict(MODELS[1]["strata"][0], y=True)])),
    ("population", dict(POPULATIONS[0], cells=[
        dict(cell, mass=str(cell["mass"])) for cell in POPULATIONS[0]["cells"]])),
    ("population", dict(POPULATIONS[0], cells=[
        dict(cell, y=str(int(cell["y"]))) for cell in POPULATIONS[0]["cells"]])),
    ("population", dict(POPULATIONS[0], cells=[
        dict(cell, y=bool(cell["y"])) for cell in POPULATIONS[0]["cells"]])),
    ("population", dict(POPULATIONS[0], cells=[
        dict(POPULATIONS[0]["cells"][0], mass=True)])),
    ("population", dict(POPULATIONS[0], outcome_domain=dict(
        POPULATIONS[0]["outcome_domain"], lo="0", binary=False))),
    ("population", dict(POPULATIONS[0], outcome_domain=dict(
        POPULATIONS[0]["outcome_domain"], hi=True, binary=False))),
])
def test_rejected_with_exit_3(kind, doc, files):
    """Inputs that once ended in a traceback or in exit 4 (the first four
    and the last, found by the fuzz), loaded with a string split into its
    characters, or ran with a number the spec does not allow (a NaN
    tolerance failed only when the report was written, a fractional or
    boolean count or seed was truncated) or with levels declared for no
    covariate, or read text or a boolean where a number belongs (``"lo":
    true`` read as 1.0, ``"p": "0.5"`` as 0.5, an outcome ``"y": "0"`` as
    0.0, a cell's ``"mass": "0.25"`` as 0.25, the domain's ``"lo": "0"``
    as 0.0)."""
    doc_path = files / f"found_{kind}.json"
    doc_path.write_text(json.dumps(doc))
    with pytest.raises(DataError):
        if kind == "spec":
            experiment_from_json(doc, base_dir=str(files))
        else:
            LOADERS[kind](doc)
    assert _run_cli(_argv(kind, files, doc_path, False))[0] == EXIT_DATA


#: where each file holds a covariate value, the role and label it names,
#: and the forms README says it takes
COVARIATE_VALUES = {
    "population cell x": ("population", POPULATIONS[1], ("cells", 0, "x"), "g", "a",
                          {"list"}),
    "population cell w": ("population", POPULATIONS[1], ("cells", 0, "w"), "m", "o",
                          {"list"}),
    "q stratum x": ("model", MODELS[1], ("strata", 0, "x"), "g", "a", {"list", "label"}),
    "q atom w": ("model", MODELS[1], ("strata", 0, "dist", 0, "w"), "m", "o",
                 {"list", "label"}),
    "spec xi": ("spec", VALID["spec"][1], ("xi",), "g", "a", {"list", "label", "object"}),
    "spec omega": ("spec", VALID["spec"][1], ("omega",), "m", "o",
                   {"list", "label", "object"}),
}


def _load_as_written(kind, doc, files):
    """What a loaded ``doc`` means, in a form that compares with ``==``."""
    if kind == "spec":
        spec = experiment_from_json(doc, base_dir=str(files))
        return spec.selector.resolve(spec.population.x_domains, spec.population.w_domains)
    if kind == "model":
        return model_to_json(model_from_json(doc))
    return population_to_json(population_from_json(doc))


@pytest.mark.parametrize("form", ["list", "label", "object"])
@pytest.mark.parametrize("where", COVARIATE_VALUES)
def test_covariate_value_forms_are_those_readme_lists(where, form, files):
    """Each form README documents for a covariate value loads as the list
    of its labels does; every other form is a data error (exit 3)."""
    kind, doc, path, role, label, forms = COVARIATE_VALUES[where]

    def written(value):
        new = copy.deepcopy(doc)
        parent = new
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        return new

    changed = written({"list": [label], "label": label, "object": {role: label}}[form])
    if form in forms:
        assert (_load_as_written(kind, changed, files)
                == _load_as_written(kind, written([label]), files))
        return
    with pytest.raises(DataError):
        _load_as_written(kind, changed, files)
    doc_path = files / f"form_{kind}.json"
    doc_path.write_text(json.dumps(changed))
    assert _run_cli(_argv(kind, files, doc_path, kind == "model"))[0] == EXIT_DATA
