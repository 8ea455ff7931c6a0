import importlib

import pytest

import coxmix

SUBMODULES = ("cli", "coxfit", "data", "em", "penalties", "simgen", "tdroc", "tuning")


def test_package_exports_resolve():
    missing = [name for name in coxmix.__all__ if not hasattr(coxmix, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"coxmix.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from coxmix import *", namespace)
    assert set(coxmix.__all__) <= set(namespace)
