"""No module of the package imports a name it never uses: every name bound
by an import statement in src/dnevolve/*.py is read somewhere in that
module. __init__.py re-exports by design and is skipped, and so is an
import line marked `# noqa: F401` (an import kept for its side effect)."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dnevolve"


def unused_imports(source):
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                # `import a.b` binds a; `import a.b as c` and `from m
                # import a as c` bind c
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_sees_every_form():
    src = ("from __future__ import annotations\n"
           "import os\n"
           "import numpy.random\n"
           "import numpy as np\n"
           "from typing import Dict, List as L\n"
           "import json  # noqa: F401\n"
           "x: Dict = np.zeros(1)\n")
    assert unused_imports(src) == [(2, "os"), (3, "numpy"), (5, "L")]


def test_attribute_use_counts_as_use():
    assert unused_imports("import os\np = os.path.join('a')\n") == []
