"""The runtime dependencies in pyproject.toml are exactly what the package
imports, every module-level function and class, and every method of
such a class, has a caller outside tests, and ranking is selected and
sorted only in scoring."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import tabret

PACKAGE = Path(tabret.__file__).parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"

# distribution name -> the top-level module it installs
IMPORT_NAMES = {"numpy": "numpy", "PyYAML": "yaml"}


def _runtime_dependencies() -> set[str]:
    block = re.search(r"^dependencies = \[(.*?)\]", PYPROJECT.read_text(), re.M | re.S)
    return set(re.findall(r'"([A-Za-z0-9_.-]+)', block.group(1)))


def _third_party_imports() -> set[str]:
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"tabret"}


def test_third_party_imports_are_the_runtime_dependencies():
    deps = _runtime_dependencies()
    assert deps == set(IMPORT_NAMES), "a dependency was added or dropped; update IMPORT_NAMES"
    assert _third_party_imports() == {IMPORT_NAMES[d] for d in deps}


# file-less modules that Cython-compiled extensions register when they
# load (PyYAML's libyaml binding, numpy.random): part of the dependency
# that loaded them, not one of their own
CYTHON_RUNTIME = re.compile(r"cython_runtime|_cython_[0-9_]+")


def test_cli_import_loads_no_third_party_module_but_the_dependencies():
    # the baseline is what the fresh interpreter holds before the import,
    # as site packages may load modules of their own at start-up
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    check = "import sys; bare = set(sys.modules); import tabret.cli; print(*set(sys.modules) - bare)"
    loaded = subprocess.run(
        [sys.executable, "-c", check], env=env, check=True, capture_output=True, text=True
    ).stdout.split()
    tops = {name.split(".")[0] for name in loaded}
    third_party = {top for top in tops if not CYTHON_RUNTIME.fullmatch(top)}
    third_party -= set(sys.stdlib_module_names) | {"tabret"}
    assert third_party <= set(IMPORT_NAMES.values())


# module-level names no program references on purpose: the entry point of
# the 240-digit loss oracle, which README documents for library use
UNREFERENCED = {"infonce_loss"}


def _names_referenced(paths) -> set[str]:
    """Every name and attribute the files' code uses, imports included;
    string constants do not count."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
    return used


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(path: Path):
    """(qualified name, bare name) of each module-level function and class
    and of each method of a module-level class; dunders are called by
    Python itself and left out."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, _DEFINITIONS):
            continue
        yield f"{path.stem}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, _DEFINITIONS) and not member.name.startswith("__"):
                    yield f"{path.stem}.{node.name}.{member.name}", member.name


def test_every_module_level_function_and_class_is_referenced():
    root = PACKAGE.parents[1]
    paths = [*PACKAGE.glob("*.py"), *(root / "perfbench").glob("*.py"),
             *(root / "scripts").glob("*.py")]
    used = _names_referenced(paths)
    unreferenced = {
        qualified
        for path in PACKAGE.glob("*.py")
        for qualified, name in _definitions(path)
        if name not in used | UNREFERENCED
    }
    assert not unreferenced, "reached only from tests: delete them, or test through a caller"


def test_ranking_is_selected_and_sorted_only_in_scoring():
    """retrieval takes nothing from mining, and within the package only
    scoring.py calls np.lexsort or np.partition, so the (-score, rank)
    rule of search, evaluate and mining is written once."""
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / "retrieval.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(part for alias in node.names for part in alias.name.split("."))
    assert "mining" not in imported
    callers = {
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id in ("np", "numpy")
        and node.func.attr in ("lexsort", "partition")
    }
    assert callers == {"scoring.py"}
