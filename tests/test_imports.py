"""Every top-level import in a ``steinerdh`` module is read by that module,
and every module-level private name is read by some ``steinerdh`` module.

No linter ships with the project, so this parses each module with ``ast``.
It fails on any name a top-level import binds that its module never reads
(``__init__.py`` is skipped: its imports are the package's exports), and on
any ``_name`` function, class or assigned constant at a module's top level
that no module of the package reads, by name, import or attribute.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "steinerdh"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by top-level imports that no ``ast.Name`` reads;
    ``from __future__`` imports bind no name."""
    tree = ast.parse(source)
    bound = [alias.asname or alias.name.split(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """'module.name' for each private (one leading '_', not a dunder) function,
    class or assigned name at the top level of a module in ``sources`` that
    no module loads as a name, imports or reads as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [f"{module}.{name}" for name in names if name.startswith("_")
                       and not name.startswith("__") and name not in read]
    return unread


def test_modules_found():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(module):
    assert unused_imports(module.read_text()) == []


def test_unused_imports_flags_exactly_the_unread_names():
    source = ("from __future__ import annotations\n"
              "import json\nimport numpy as np\nimport os.path\n"
              "from typing import Iterable, Sequence\n"
              "def f(x: Sequence) -> None:\n    return np.zeros(json.loads(x))\n")
    assert unused_imports(source) == ["os", "Iterable"]


def test_every_private_name_is_read_by_the_package():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unread_private_names(sources) == []


def test_unread_private_names_flags_exactly_the_unread_names():
    sources = {
        "a": ("import re\n_SPACE = re.compile(' ')\n_USED, _PAIR = 1, 2\n"
              "_ANNOTATED: int = 3\n__dunder__ = 4\nPUBLIC = 5\n"
              "def _helper():\n    return _USED\n"
              "def _unread():\n    pass\n"
              "class _Shadow:\n    def _method(self):\n        _local = 6\n"
              "def _by_attribute():\n    pass\n"
              "for _loop in ():\n    pass\n"),
        "b": ("from .a import _helper\nfrom . import a\n"
              "_STORED = a._by_attribute\n"),
    }
    assert unread_private_names(sources) == [
        "a._SPACE", "a._PAIR", "a._ANNOTATED", "a._unread", "a._Shadow", "b._STORED"]
