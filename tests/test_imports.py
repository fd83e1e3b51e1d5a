"""No module imports a name it never uses, and no private helper is dead.

AST scans in place of a linter's unused-import and unused-code checks:
the library modules (but ``__init__.py``, whose imports are the
package's exports) and the test modules are parsed, and every name an
import binds must be read somewhere in the same module.  Every private
function or class defined at module level in the library must be read,
as a name or an attribute, by some library module, so a helper that only
tests keep alive is found.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "fvtensor").glob("*.py"))
MODULES = [p for p in LIBRARY if p.name != "__init__.py"] + sorted(
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


def dead_helpers(sources):
    """Module-level private functions and classes defined in ``sources``
    that none of them reads as a name or an attribute, sorted."""
    defined, read = set(), set()
    for tree in map(ast.parse, sources):
        defined |= {node.name for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef,
                                         ast.AsyncFunctionDef))
                    and node.name.startswith("_")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(defined - read)


def test_dead_helpers_are_found():
    sources = ["def _used(): pass\n"
               "def _dead(): pass\n"
               "class _Dead: pass\n"
               "def public(): _used()\n"
               "def outer():\n    def _inner(): pass\n",
               "import m\n_dead = 1\nm._other()\n",
               "def _other(): pass\n"]
    assert dead_helpers(sources) == ["_Dead", "_dead"]


def test_no_dead_private_helpers():
    assert dead_helpers([p.read_text() for p in LIBRARY]) == []
