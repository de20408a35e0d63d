"""The runtime stays pure standard-library Python: every import in
``src/astra`` is ``__future__``, relative, or a standard-library module."""

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
