"""Package surface: every name a ``qibc`` module exports in ``__all__`` exists,
and ``qibc`` re-exports exactly the library modules' lists."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import qibc

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
