"""Every parameter of every function the package and its tools define is
read by its body.

A parameter that the body never reads changes nothing a caller can see, yet
every caller must pass it, and a value that must match some other fact (a
dimension the data already holds) can be passed wrong.  This reads the
syntax tree of every module: each parameter of each ``def`` (positional,
keyword-only, ``*args`` and ``**kwargs``) must be read, as a name, somewhere
in that function's body, nested functions and lambdas included.  Lambdas'
own parameters are not checked.

The catalog builders in ``activations._BUILDERS`` are exempt: their
``params`` dict is a protocol, in which each builder pops the parameters it
reads and ``get_activation`` refuses the rest, so a builder that reads none
still takes the dict.
"""

import ast
from pathlib import Path

import deepnarrow

TOOLS = Path(__file__).resolve().parent.parent / "tools"

SOURCES = {p.name: p.read_text()
           for p in sorted(Path(deepnarrow.__file__).parent.glob("*.py"))}
SOURCES.update({f"tools/{p.name}": p.read_text() for p in sorted(TOOLS.glob("*.py"))})


def _parameters(args: ast.arguments) -> list:
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return names + [a.arg for a in (args.vararg, args.kwarg) if a is not None]


def _builders(tree: ast.Module) -> set:
    """The names of the functions listed as values of a module-level
    ``_BUILDERS`` dict."""
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and any(isinstance(t, ast.Name) and t.id == "_BUILDERS" for t in node.targets)):
            return {v.id for v in node.value.values if isinstance(v, ast.Name)}
    return set()


def unused_parameters(sources: dict) -> list:
    """(module, line, function, parameter) for every parameter of a ``def``
    that its body never reads."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        exempt = _builders(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name in exempt:
                continue
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found += [(module, node.lineno, node.name, name)
                      for name in _parameters(node.args) if name not in read]
    return sorted(found)


def test_detects_an_unused_parameter():
    sources = {
        "a.py": "def fit(f, n, m, *args, cfg=None, **kw):\n    return f(n, *args)\n\n"
                "def outer(x, y):\n    def inner(z):\n        return x + 1\n    return inner\n\n"
                "key = lambda unused: 0\n\n"
                "class Box:\n    def size(self, scale):\n        return 2\n",
        "b.py": "def _build(params):\n    return 1\n\n"
                "def _other(params):\n    return 2\n\n_BUILDERS = {'one': _build}\n",
    }
    assert unused_parameters(sources) == [
        ("a.py", 1, "fit", "cfg"), ("a.py", 1, "fit", "kw"), ("a.py", 1, "fit", "m"),
        ("a.py", 4, "outer", "y"), ("a.py", 5, "inner", "z"),
        ("a.py", 12, "size", "scale"), ("a.py", 12, "size", "self"),
        ("b.py", 4, "_other", "params"),
    ]


def test_package_reads_every_parameter():
    assert "tools/error_matrix.py" in SOURCES
    assert unused_parameters(SOURCES) == []
