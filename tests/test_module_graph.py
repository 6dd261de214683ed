"""The package's internal import graph, read from the source.

Importing any submodule runs `frankl_lab/__init__.py`, which imports every
module, so the graph is checked statically with `ast`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "frankl_lab"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))
# modules every other layer may build on: they import nothing from the package
LEAVES = ("families", "budget", "certificate")


def parse(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def relative_imports(module: str) -> list[tuple[str, str]]:
    """(source module, imported name) for every relative import in `module`;
    `from . import x` yields (x, x)."""
    found = []
    for node in ast.walk(parse(module)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found += [(node.module or alias.name, alias.name) for alias in node.names]
    return found


def test_the_graph_sees_every_module():
    assert {"__init__", "lp", "search", "theorems", *LEAVES} <= set(MODULES)


def test_lp_does_not_import_the_search_engine():
    assert "search" not in {source for source, _ in relative_imports("lp")}


def test_search_imports_only_budget_and_families():
    # in particular nothing from `certificate` or `lp`
    assert {source for source, _ in relative_imports("search")} <= {"budget", "families"}


def test_theorems_takes_only_the_two_engines_from_search():
    # the lemma corpus reads its n <= 4 families from `families`
    assert {name for source, name in relative_imports("theorems")
            if source == "search"} == {"compute_f", "compute_g"}


@pytest.mark.parametrize("module", LEAVES)
def test_leaf_modules_import_nothing_from_the_package(module):
    assert relative_imports(module) == []


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_private_name(module):
    private = [(source, name) for source, name in relative_imports(module)
               if name.startswith("_") or source.startswith("_")]
    assert private == []


@pytest.mark.parametrize("module", MODULES)
def test_no_module_sets_the_recursion_limit(module):
    # the interpreter's recursion limit is global state; no search may need it raised
    names = set()
    for node in ast.walk(parse(module)):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert "setrecursionlimit" not in names


@pytest.mark.parametrize("module", MODULES)
def test_only_budget_reads_the_clock(module):
    # `budget.Meter` spends every wall-clock limit and times every result
    imported = set()
    for node in ast.walk(parse(module)):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert ("time" in imported) == (module == "budget")
