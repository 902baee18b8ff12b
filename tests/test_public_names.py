"""Every name in the package's ``__all__`` and in each module's ``__all__``
resolves to an attribute, and the package lists none twice, so deleting a
public name cannot leave a stale export behind."""

import importlib
import pkgutil

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


def test_package_exports_each_name_once():
    names = imputebounds.__all__
    assert len(names) == len(set(names))
