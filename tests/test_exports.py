"""The package's public names: each resolves and is listed once."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import coiquery

MODULES = ["coiquery"] + [
    f"coiquery.{info.name}" for info in pkgutil.iter_modules(coiquery.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_and_is_listed_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    repeated = sorted({entry for entry in exported if exported.count(entry) > 1})
    assert not repeated, f"{name}.__all__ lists {repeated} more than once"


#: The submodules whose ``__all__`` the package re-exports.
REEXPORTED = [
    f"coiquery.{name}"
    for name in (
        "core",
        "equilibrium",
        "influence",
        "merge",
        "posterior",
        "trust",
        "utility",
    )
]


@pytest.mark.parametrize("name", REEXPORTED)
def test_package_names_are_the_submodule_objects(name):
    module = importlib.import_module(name)
    for entry in module.__all__:
        assert entry in coiquery.__all__, (name, entry)
        assert getattr(coiquery, entry) is getattr(module, entry), (name, entry)


def test_every_submodule_is_reexported_or_a_named_entry_point():
    found = set(MODULES) - {"coiquery"}
    assert set(REEXPORTED) | {"coiquery.cli", "coiquery.bench"} == found


ROOT = Path(__file__).resolve().parent.parent
#: Where a public name must be reached: every module of the package, or
#: the release gate.  The entry points and the gate may reach a name by
#: importing it; a library module must use it.
REACH = sorted((ROOT / "src" / "coiquery").glob("*.py"))
REACH.append(ROOT / "tests" / "test_acceptance.py")
IMPORTS_COUNT = {"cli.py", "bench.py", "test_acceptance.py"}


def _defined(statement: ast.stmt) -> set[str]:
    """Names a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    targets = getattr(statement, "targets", [getattr(statement, "target", None)])
    return {target.id for target in targets if isinstance(target, ast.Name)}


def _references(path: Path) -> set[str]:
    """Names a file mentions outside the top-level definition of each."""
    found = set()
    for statement in ast.parse(path.read_text(encoding="utf-8")).body:
        mentioned = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                mentioned.add(node.id)
            elif isinstance(node, ast.Attribute):
                mentioned.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and path.name in IMPORTS_COUNT:
                mentioned.update(alias.name for alias in node.names)
        found |= mentioned - _defined(statement)
    return found


def test_every_public_name_is_reached_by_a_subcommand_or_the_gate():
    reached = set().union(*map(_references, REACH))
    unreached = sorted(set(coiquery.__all__) - {"__version__"} - reached)
    assert not unreached, f"no subcommand or gate test reaches {unreached}"


def _self_calls(path: Path) -> set[tuple[str, str]]:
    """(file, function) for each function of a file that calls itself."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            callee = call.func
            if isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name):
                name = callee.attr if callee.value.id in ("self", "cls") else None
            else:
                name = getattr(callee, "id", None)
            if name == node.name:
                found.add((path.name, node.name))
    return found


def test_no_function_in_the_package_calls_itself():
    # Python's recursion limit would otherwise cap the inputs it answers.
    modules = sorted((ROOT / "src" / "coiquery").glob("*.py"))
    assert set().union(*map(_self_calls, modules)) == set()


#: The entry points: the CLI reads every JSON document and writes every report.
BOUNDARY = {"cli.py", "bench.py"}
#: Library methods that read or write JSON: none.
JSON_METHODS: set[tuple[str, str, str]] = set()


def _json_methods(path: Path) -> set[tuple[str, str, str]]:
    """(file, class, method) for each method of a file's classes named for JSON."""
    return {
        (path.name, node.name, item.name)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "json" in item.name.lower()
    }


def test_only_the_entry_points_read_and_write_json():
    # No library type has an ``as_jsonable``/``from_jsonable`` pair: the
    # JSON form of a report or an input document is the CLI's.
    library = [
        path
        for path in sorted((ROOT / "src" / "coiquery").glob("*.py"))
        if path.name not in BOUNDARY
    ]
    assert set().union(*map(_json_methods, library)) == JSON_METHODS


def _imports(path: Path, package: str) -> set[str]:
    """The modules of ``package`` (it or a submodule) a file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        found.update(name for name in names if name.split(".")[0] == package)
    return found


def test_only_the_entry_points_import_json():
    # Escaping a key or printing a float is the report writer's job, and
    # the writer is the CLI's.
    importing = {
        path.name
        for path in (ROOT / "src" / "coiquery").glob("*.py")
        if _imports(path, "json")
    }
    assert importing <= BOUNDARY
    assert "cli.py" in importing


def _decorator_names(node: ast.AST) -> set[str]:
    """The names a definition's decorators call, ``functools.`` or bare."""
    names = set()
    for decorator in getattr(node, "decorator_list", ()):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        names.add(getattr(target, "attr", getattr(target, "id", None)))
    return names


def test_no_library_function_is_cached_across_calls():
    # A module-level cache keeps results between requests; each analysis
    # recomputes what it needs.  The CLI's parser cache stays: it spares
    # every request the parser's construction.
    cached = [
        (name, node.name)
        for name in REEXPORTED
        for node in ast.parse(
            Path(importlib.import_module(name).__file__).read_text(encoding="utf-8")
        ).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and _decorator_names(node) & {"cache", "lru_cache"}
    ]
    assert cached == []


def test_no_module_imports_dataclasses():
    # The validated types are plain classes: ``dataclasses`` and the
    # ``inspect`` it loads would add to every one-shot run's import.
    modules = sorted((ROOT / "src" / "coiquery").glob("*.py"))
    assert [path.name for path in modules if _imports(path, "dataclasses")] == []
