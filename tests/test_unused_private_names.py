"""Every private name the package defines at module level or in a class
body is read somewhere in it.

A private name (a function, class, constant, method or cached property whose
name starts with ``_``) is no part of the package's interface, so a refactor
that stops reading it leaves dead code behind that no import check sees.
This reads the syntax tree of every module: each such name must be read, as
a name or as an attribute, in some module of the package.
"""

import ast
import itertools
from pathlib import Path

import deepnarrow

SOURCES = {p.name: p.read_text()
           for p in sorted(Path(deepnarrow.__file__).parent.glob("*.py"))}


def private_definitions(tree: ast.Module) -> dict:
    """The private names a module defines at its top level or in the body of
    a top-level class, with their lines."""
    defined = {}
    classes = [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    for node in itertools.chain(tree.body, *classes):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        defined.update((name, node.lineno) for name in names
                       if name.startswith("_") and not name.startswith("__"))
    return defined


def read_names(tree: ast.Module) -> set:
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def unused_private_names(sources: dict) -> list:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*map(read_names, trees.values()))
    return sorted((module, line, name) for module, tree in trees.items()
                  for name, line in private_definitions(tree).items() if name not in read)


def test_detects_an_unused_private_name():
    sources = {
        "a.py": "_LIMIT = 3\n_KINDS: dict = {}\n\ndef _helper():\n    return _LIMIT\n\n"
                "class _Gone:\n    pass\n\n__all__ = []\n\n"
                "class Box:\n    _SIZE = 2\n\n    def _used(self):\n        return 1\n\n"
                "    @functools.cached_property\n    def _dead(self):\n        return 2\n\n"
                "    def run(self):\n        return self._used()\n",
        "b.py": "from . import a\n\ndef run():\n    return a._helper()\n",
    }
    assert unused_private_names(sources) == [("a.py", 2, "_KINDS"), ("a.py", 7, "_Gone"),
                                             ("a.py", 13, "_SIZE"), ("a.py", 19, "_dead")]


def test_package_reads_every_private_name():
    assert unused_private_names(SOURCES) == []
