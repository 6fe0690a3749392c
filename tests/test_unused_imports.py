"""No module of the package, of its test suite or of its tools imports a
name it never uses.

No linter is part of the toolchain, so this reads each module's syntax tree:
every name an import binds must be read somewhere in the module, or be
listed in its ``__all__``.  The package's ``__init__.py`` is exempt, since
its imports are the package's public re-exports.
"""

import ast
from pathlib import Path

import pytest

import deepnarrow

TOOLS = Path(__file__).resolve().parent.parent / "tools"

MODULES = (sorted(p for p in Path(deepnarrow.__file__).parent.glob("*.py")
                  if p.name != "__init__.py")
           + sorted(Path(__file__).parent.glob("*.py"))
           + sorted(TOOLS.glob("*.py")))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_detects_an_unused_import():
    source = "from typing import Optional, Sequence\nimport os\nx: Optional[int] = None\n"
    assert unused_imports(source) == [(1, "Sequence"), (2, "os")]
    assert unused_imports("import numpy as np\n__all__ = ['np']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
