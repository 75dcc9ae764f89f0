"""Every exported name resolves, so removed code leaves no dangling export."""

import importlib
import pkgutil

import pytest

import grobust

MODULES = sorted(m.name for m in pkgutil.iter_modules(grobust.__path__))


def test_package_exports_resolve():
    missing = [n for n in grobust.__all__ if not hasattr(grobust, n)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"grobust.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, (name, missing)
