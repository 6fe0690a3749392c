"""Every name a module of the package lists in ``__all__`` is defined there.

A stale entry, left behind when its definition is deleted, breaks
``from deepnarrow.<module> import *`` with an AttributeError, and no import
of the package otherwise reads it.
"""

import importlib
import pkgutil

import pytest

import deepnarrow

MODULES = ["deepnarrow"] + sorted(f"deepnarrow.{info.name}"
                                  for info in pkgutil.iter_modules(deepnarrow.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_is_defined(name):
    module = importlib.import_module(name)
    assert [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)] == []

