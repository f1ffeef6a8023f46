"""Package surface: every name a ``qibc`` module exports in ``__all__`` exists,
and ``qibc`` re-exports exactly the library modules' lists."""

from __future__ import annotations

import ast
import dataclasses
import functools
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import qibc
from qibc.functions import _Value

MODULES = ["qibc"] + sorted(
    f"qibc.{m.name}" for m in pkgutil.iter_modules(qibc.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names undefined attributes: {missing}"


#: The library modules whose ``__all__`` make up the package namespace, in order.
REEXPORTED = ["exceptions", "functions", "information", "adversary", "simulator", "circuits", "bounds"]


def test_package_all_is_the_module_lists():
    want = ["__version__"]
    for name in REEXPORTED:
        want += importlib.import_module(f"qibc.{name}").__all__
    assert qibc.__all__ == want
    assert len(set(want)) == len(want), "two modules export the same name"


def test_every_value_with_an_array_or_a_cache_is_a_value():
    """A dataclass with an ndarray field or a cached_property subclasses ``_Value``."""
    modules = [importlib.import_module(f"qibc.{name}") for name in REEXPORTED]
    exported = [getattr(m, n) for m in modules for n in m.__all__]
    held = {
        cls for cls in exported
        if inspect.isclass(cls) and dataclasses.is_dataclass(cls) and (
            any("ndarray" in str(f.type) for f in dataclasses.fields(cls))
            or any(isinstance(v, functools.cached_property)
                   for base in cls.__mro__ for v in vars(base).values()))
    }
    assert {c.__name__ for c in held} >= {
        "FunctionSpec", "Design", "DataVector", "Quadrature",
        "QState", "OutcomeDistribution", "AlgorithmSpec",
    }
    assert [c.__name__ for c in held if not issubclass(c, _Value)] == []


def test_every_private_definition_is_reached():
    """Each private function, class and method in ``src/qibc`` is named by code there.

    A name counts as reached when a ``Name``, an ``Attribute`` or an import
    alias in the package's code (not a docstring) refers to it.
    """
    trees = [ast.parse(p.read_text()) for p in pathlib.Path(qibc.__file__).parent.glob("*.py")]
    defined, used = set(), set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    private = {n for n in defined if n.startswith("_") and not n.endswith("__")}
    assert sorted(private - used) == []
