"""Public names: each listed name exists and is read by some program, the package re-exports
only listed names, and no simulator module imports the reference oracles."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dpfedsim

MODULES = sorted(info.name for info in pkgutil.iter_modules(dpfedsim.__path__))
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"dpfedsim.{name}")
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def _defines(path: Path) -> set[str]:
    """Names a module binds at top level by ``def``, ``class`` or assignment."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_every_module_lists_only_names_it_defines():
    # one public name per rule: a module that imports a name does not re-export it
    # (the package __init__, which re-exports by design, is not in MODULES)
    package = Path(dpfedsim.__file__).parent
    reexported = [
        f"{name}.{public}"
        for name in MODULES
        for public in getattr(importlib.import_module(f"dpfedsim.{name}"), "__all__", [])
        if public not in _defines(package / f"{name}.py")
    ]
    assert reexported == []


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


def _imported(node) -> list[str]:
    """The modules an import statement may load, resolved against the package."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    base = node.module if node.level == 0 else ".".join(filter(None, ["dpfedsim", node.module]))
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


def test_no_simulator_module_imports_the_reference_oracles():
    importers = [
        path.name
        for path in sorted(Path(dpfedsim.__file__).parent.glob("*.py"))
        if path.stem != "reference"
        and any("dpfedsim.reference" in _imported(node)
                for node in ast.walk(ast.parse(path.read_text())))
    ]
    assert importers == []


def _reads(path: Path) -> set[str]:
    """Names a file loads or reads as attributes (neither a ``def`` nor an ``__all__`` entry)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_simulator_name_is_read_by_a_program():
    # the programs are the package's modules, the demos and the benchmark; tests do not count,
    # and the reference oracles' own names are exempt, since tests are their users
    programs = [*Path(dpfedsim.__file__).parent.glob("*.py"),
                *(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    read = set().union(*map(_reads, programs))
    unread = [
        f"{name}.{public}"
        for name in MODULES
        if name != "reference"
        for public in getattr(importlib.import_module(f"dpfedsim.{name}"), "__all__", [])
        if public not in read
    ]
    assert unread == []
