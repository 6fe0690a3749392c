"""No module of the package keeps a process-wide function memo.

Facts derived from an activation (its probe atlases, its lowering plans)
live on its spec, ``ActivationSpec.derived``, and go when the spec goes; a
``functools.lru_cache`` or ``functools.cache`` would keep them, keyed by
value, for the life of the process, beside a bound of its own.  This reads
each module's syntax tree: neither name may appear, as an attribute of
``functools`` or imported from it.  A per-object ``cached_property`` is
allowed.
"""

import ast
from pathlib import Path

import pytest

import deepnarrow

MODULES = sorted(Path(deepnarrow.__file__).parent.glob("*.py"))

MEMOS = {"lru_cache", "cache"}


def module_memos(source: str) -> list:
    """(line, name) of every reference to functools' memo decorators."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in MEMOS
                and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in MEMOS]
    return sorted(found)


def test_detects_a_module_memo():
    source = ("import functools\nfrom functools import cache, partial\n\n"
              "@functools.lru_cache(maxsize=8)\ndef f(x):\n    return x\n\n"
              "class A:\n    @functools.cached_property\n    def g(self):\n"
              "        return functools.partial(f, 1)\n")
    assert module_memos(source) == [(2, "cache"), (4, "lru_cache")]
    assert module_memos("import functools\ng = functools.cache(len)\n") == [(2, "cache")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_keeps_no_function_memo(path):
    assert module_memos(path.read_text()) == []
