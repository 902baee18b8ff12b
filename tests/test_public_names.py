"""Every name in the package's ``__all__`` and in each module's ``__all__``
resolves to an attribute, and the package lists none twice, so deleting a
public name cannot leave a stale export behind. A module exports only the
functions and classes it defines, so each has one home. The names the
README lists as removed resolve on no module, so none comes back
unannounced."""

import importlib
import inspect
import os
import pkgutil
import re

import pytest

import imputebounds

MODULES = [imputebounds] + [
    importlib.import_module(f"imputebounds.{info.name}")
    for info in pkgutil.iter_modules(imputebounds.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES[1:], ids=lambda m: m.__name__)
def test_each_exported_definition_is_defined_in_its_module(module):
    strays = [name for name in getattr(module, "__all__", ())
              if (inspect.isclass(obj := getattr(module, name)) or inspect.isfunction(obj))
              and obj.__module__ != module.__name__]
    assert strays == []


def test_package_exports_each_name_once():
    names = imputebounds.__all__
    assert len(names) == len(set(names))


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

#: names removed from the public API; each must stay in the README's list
REMOVED = ("empirical_cond", "errors.EmptyConditioningSet",
           "MissingnessMechanism.from_callable", "cell_partition", "CompletedTable",
           "rmi.ImputationModel", "rmi.QCovariateModel", "rmi.model_from_json",
           "rmi.model_to_json", "rmi.true_outcome_model", "rmi.true_covariate_model",
           "missing_covariate.QCovariateModel", "FinitePopulation.require_regime",
           "FittedImputationModel.stratum", "validate_population",
           "missing_outcome.midpoint_estimate",
           "missing_covariate.midpoint_long_estimate", "ExperimentSpec.estimator")


def readme_removed_names():
    """The dotted names in backticks before the colon of each bullet of the
    README's "Removed public names" section."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Removed public names\n", 1)[1].split("\n## ", 1)[0]
    heads = [line.split(":", 1)[0] for line in section.splitlines() if line.startswith("- ")]
    return {name for head in heads for name in re.findall(r"`([A-Za-z_][\w.]*)`", head)}


def resolves(module, dotted):
    target = module
    for part in dotted.split("."):
        if not hasattr(target, part):
            return False
        target = getattr(target, part)
    return True


def test_removed_names_resolve_on_no_module():
    names = sorted(readme_removed_names())
    assert names
    assert [(m.__name__, name) for m in MODULES for name in names
            if resolves(m, name)] == []


def test_removed_names_are_listed_in_the_readme():
    assert sorted(set(REMOVED) - readme_removed_names()) == []
