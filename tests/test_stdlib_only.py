"""The runtime stays pure standard-library Python: every import in
``src/astra`` is ``__future__``, relative, or a standard-library module.
It also keeps no dead code that a parse can see: every imported name is
used in its module, and every module-level private function or class is
referenced somewhere in the package."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "astra"


def foreign_imports(source):
    """``(line, module)`` for each import in ``source`` that is neither
    ``__future__``, relative, nor from the standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.partition(".")[0] not in sys.stdlib_module_names
                  and name != "__future__"]
    return found


def test_runtime_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    foreign = {path.name: imports for path in files
               if (imports := foreign_imports(path.read_text(encoding="utf-8")))}
    assert foreign == {}


def test_foreign_imports_are_found():
    source = ("from __future__ import annotations\nimport json, networkx\n"
              "from . import ltl\nfrom .core import Lasso\n"
              "def f():\n    from hypothesis import given\n")
    assert foreign_imports(source) == [(2, "networkx"), (6, "hypothesis")]


def unused_imports(source):
    """``(line, name)`` for each name an import binds in ``source`` (other
    than a ``__future__`` import) that no expression in it reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, bound) for alias in node.names
                      if (bound := alias.asname or alias.name.partition(".")[0]) not in read]
    return found


def private_definitions(source):
    """The module-level ``def`` and ``class`` names in ``source`` that
    start with ``_``."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_")]


def references(source):
    """Every name and attribute name that an expression in ``source`` reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_runtime_keeps_no_dead_code():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    modules = {name: source for name, source in sources.items() if name != "__init__.py"}
    assert modules
    unused = {name: found for name, source in modules.items()
              if (found := unused_imports(source))}
    assert unused == {}
    referenced = set().union(*map(references, sources.values()))
    unreferenced = {name: found for name, source in modules.items()
                    if (found := [d for d in private_definitions(source)
                                  if d not in referenced])}
    assert unreferenced == {}


def test_dead_code_is_found():
    source = ("from __future__ import annotations\nimport json, os.path\n"
              "from .core import Lasso, _helper as helper\n"
              "def _kept():\n    return Lasso\n"
              "def _dropped():\n    return _kept()\n"
              "class _Unused:\n    pass\n"
              "def shown():\n    return os.sep\n")
    assert unused_imports(source) == [(2, "json"), (3, "helper")]
    assert private_definitions(source) == ["_kept", "_dropped", "_Unused"]
    assert {"_kept", "Lasso", "os", "sep"} <= references(source)
    assert {"_dropped", "_Unused", "json"}.isdisjoint(references(source))
