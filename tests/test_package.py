"""The package's public surface: each module's ``__all__`` names what the
module itself defines, and the package root re-exports nothing."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil

import pytest

import prefixsynth

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(prefixsynth.__path__) if info.name != "__main__"
)


def _defined_names(module) -> set[str]:
    """Names bound at the top level of a module's source by a definition or
    an assignment; imports do not count."""
    names: set[str] = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined_in_their_module(name: str) -> None:
    module = importlib.import_module(f"prefixsynth.{name}")
    exported = module.__all__
    assert len(exported) == len(set(exported)), "duplicate __all__ entry"
    defined = _defined_names(module)
    for attr in exported:
        assert hasattr(module, attr), f"{name}.{attr} does not exist"
        assert attr in defined, f"{name}.{attr} is imported, not defined there"
        owner = getattr(getattr(module, attr), "__module__", module.__name__)
        assert owner == module.__name__, f"{name}.{attr} claims module {owner}"


def test_package_root_exports_nothing() -> None:
    assert not hasattr(prefixsynth, "__all__")
    public = {
        attr for attr, value in vars(prefixsynth).items()
        if not attr.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set()
