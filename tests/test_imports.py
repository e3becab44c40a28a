"""Every top-level import in a ``steinerdh`` module is read by that module.

No linter ships with the project, so this parses each module except
``__init__.py`` (whose imports are the package's exports) with ``ast`` and
fails on any name a top-level import binds that the module never reads.
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
