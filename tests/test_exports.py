import ast
import importlib
import re
import textwrap
from pathlib import Path

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


REPO = Path(__file__).resolve().parent.parent


def coxmix_imports(source):
    """The names a script imports with `from coxmix import ...`."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "coxmix" and node.level == 0
        for alias in node.names
    }


def test_readme_and_ci_scripts_import_only_exported_names():
    # tier-1 runs the README's python block but not the workflow's heredoc
    # scripts, so a name dropped from the package would break only CI
    readme = (REPO / "README.md").read_text()
    workflow = (REPO / ".github" / "workflows" / "tests.yml").read_text()
    scripts = re.findall(r"```python\n(.*?)```", readme, re.S)
    scripts += [textwrap.dedent(body) for body in re.findall(r"<<'EOF'\n(.*?\n)[ \t]*EOF\n", workflow, re.S)]
    imported = [coxmix_imports(script) for script in scripts]
    assert sum(1 for names in imported if names) >= 4
    names = set().union(*imported)
    unexported = sorted(names - set(coxmix.__all__) - set(SUBMODULES))
    assert unexported == []
