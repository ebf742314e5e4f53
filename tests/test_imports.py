"""Every module-level import of the package is used in its module or
re-exported through `__all__`.

No linter runs on this package, and a dead import still binds a name: it
can look like a caller of a function that nothing calls any more."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "syzkit"


def unused_imports(tree: ast.Module) -> list[str]:
    """The names bound by the module-level imports of `tree` that no Name
    node reads and `__all__` does not list."""
    bound = []
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read and name not in exported]


def test_the_check_finds_a_dead_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path, re\n"
        "from dataclasses import dataclass, field\n"
        "from math import comb as choose, gcd\n"
        "__all__ = ['gcd']\n"
        "@dataclass\n"
        "class A:\n"
        "    def f(self):\n"
        "        return os.path.join(choose(4, 2))\n"
    )
    assert unused_imports(ast.parse(source)) == ["re", "field"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []
