"""Public names: each listed name exists, and the package re-exports only listed names."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dpfedsim

MODULES = sorted(info.name for info in pkgutil.iter_modules(dpfedsim.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"dpfedsim.{name}")
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def test_package_imports_only_names_its_modules_list():
    tree = ast.parse(Path(dpfedsim.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    unlisted = [
        f"{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if alias.name not in importlib.import_module(f"dpfedsim.{node.module}").__all__
    ]
    assert unlisted == []
