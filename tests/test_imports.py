"""No module imports a name it never uses.

An AST scan in place of a linter's unused-import check: the library
modules (but ``__init__.py``, whose imports are the package's exports)
and the test modules are parsed, and every name an import binds must
be read somewhere in the same module.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "fvtensor").glob("*.py")
                 if p.name != "__init__.py") + sorted(
                     (ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """Names that ``source`` imports and never reads, sorted."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


def test_unused_imports_are_found():
    source = ("import os, os.path\nimport numpy as np\n"
              "from a import b, c as d\nfrom __future__ import annotations\n"
              "np.zeros(d)\n")
    assert unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
