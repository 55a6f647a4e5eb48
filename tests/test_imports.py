"""Every name a library module imports is used in that module.

A module's imports are read with ``ast``; an imported name counts as used
when it appears as a name anywhere in the module or is listed in its
``__all__``. A package ``__init__`` imports to re-export, so its imports
are its use. An import line marked ``# noqa`` is kept on purpose.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dfm_em"


def unused_imports(source):
    """(line, name) of each imported name ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported.append((alias.lineno, name))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector():
    src = ("import os\nimport numpy as np\nfrom a import (\n    b,\n"
           "    c,  # noqa: F401\n    d,\n)\n__all__ = ['d']\nnp.ones(b)\n")
    assert unused_imports(src) == [(1, "os")]
