"""Package surface: every name a ``qibc`` module exports in ``__all__`` exists."""

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
