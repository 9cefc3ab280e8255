"""The package's public names: each resolves and is listed once."""

from __future__ import annotations

import importlib
import pkgutil

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
