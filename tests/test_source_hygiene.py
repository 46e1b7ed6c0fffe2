"""Static checks over the source: the benchmark's hold on the package, and
unused imports and private names in it.

The benchmark (bench/) imports names from tplp and wraps attributes of its
modules for tracing, so a rename in the package breaks `bench/run.py --trace
1` long before any bench test runs.  These checks read bench/ with ast and
neither import nor change anything there.
"""

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
PACKAGE = ROOT / "src" / "tplp"
BENCH_FILES = sorted(BENCH.glob("*.py"))
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# what bench/ imports from: the package, and the brute-force oracles of tests/
BENCH_SOURCES = ("tplp", "oracles")


def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _dotted(node: ast.expr) -> str:
    """The dotted name an expression such as ``tplp.cli`` spells."""
    if isinstance(node, ast.Name):
        return node.id
    assert isinstance(node, ast.Attribute), ast.dump(node)
    return f"{_dotted(node.value)}.{node.attr}"


def bench_imports():
    """(file, module, name) per name bench/ imports from tplp or from the
    test oracles; name None for a plain ``import module``."""
    for path in BENCH_FILES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] in BENCH_SOURCES:
                for alias in node.names:
                    yield path.name, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "tplp":
                        yield path.name, alias.name, None


def wrapped_attributes():
    """bench/tracing.py's WRAPPED entries as (module, attribute, span name)."""
    for node in _tree(BENCH / "tracing.py").body:
        if isinstance(node, ast.Assign) and [_dotted(t) for t in node.targets] == ["WRAPPED"]:
            return [
                (_dotted(module), attr.value, name.value)
                for module, attr, name in (entry.elts for entry in node.value.elts)
            ]
    raise AssertionError("bench/tracing.py defines no WRAPPED")


class TestBenchCoupling:
    def test_bench_imports_resolve(self):
        imports = list(bench_imports())
        assert {f for f, _, _ in imports} >= {"checks.py", "run.py", "tracing.py"}
        for path, module, name in imports:
            loaded = importlib.import_module(module)
            assert name is None or hasattr(loaded, name), f"{path}: from {module} import {name}"

    def test_wrapped_attributes_exist(self):
        wrapped = wrapped_attributes()
        assert ("tplp.psat", "WorldDistribution", "worlds.WorldDistribution") in wrapped
        for module, attr, name in wrapped:
            assert hasattr(importlib.import_module(module), attr), f"{name}: {module}.{attr}"


def _bound_names(node: ast.Import | ast.ImportFrom):
    for alias in node.names:
        yield alias.asname or alias.name.split(".")[0]


def _loaded_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, and the first name of each attribute chain."""
    names = (n for n in ast.walk(tree) if isinstance(n, ast.Name))
    return {n.id for n in names if isinstance(n.ctx, ast.Load)}


def _module_private_names(tree: ast.Module):
    """The _private names a module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name


def _package_references() -> set[str]:
    """Every name read, attribute taken or name imported anywhere in the package."""
    refs = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                refs.update(alias.name for alias in node.names)
    return refs


class TestPackageHygiene:
    @pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
    def test_every_import_is_used(self, path):
        tree = _tree(path)
        used = _loaded_names(tree)
        unused = [
            name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for name in _bound_names(node)
            if name not in used
        ]
        assert unused == [], f"{path.name} imports {', '.join(unused)} and never uses it"

    def test_every_private_name_is_referenced(self):
        refs = _package_references()
        unreferenced = [
            f"{path.name}: {name}"
            for path in MODULES
            for name in _module_private_names(_tree(path))
            if name not in refs
        ]
        assert unreferenced == []

    def test_the_checks_see_a_fault(self):
        tree = ast.parse("import os\nfrom fractions import Fraction\n_unused = 1\nos.sep\n")
        used = _loaded_names(tree)
        assert [n for node in tree.body[:2] for n in _bound_names(node) if n not in used] == [
            "Fraction"
        ]
        assert list(_module_private_names(tree)) == ["_unused"]
