"""Every function and method defined in the package is referenced by some
module of the package, except the few pinned below, each with its reason.

A reference is a name read (`f(...)`, `key=f`) or an attribute read
(`obj.f`) anywhere under src/syzkit; dunder methods are called by the
language and are not listed.  A function that no module reads any more
fails this test: delete it, or pin it here with the reason it stays."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "syzkit"

# name -> why it stays although no module of the package reads it
PINNED = {
    "from_terms": "PolyRing's constructor from an exponent dict, used by tests to build inputs",
    "substitute_linear": "one polynomial through _substitute, the route the tests check by sympy",
    "transform_cocycle": "the tests' reference for transporting a cocycle along a change",
    "strand_entry": "a Betti number in Koszul indexing, the tests' oracle for K_{p,q}",
    "expected_scroll_betti": "the scroll Betti grid from the closed formula, a test reference",
    "geometric_genus": "a nodal model's arithmetic genus less its nodes, checked by the tests",
    "to_vector": "a cocycle as a coordinate vector, which the tests feed to in_span",
}


def unreferenced(trees: list[ast.Module]) -> list[str]:
    """The names of the functions and methods defined in `trees` that no
    Name or Attribute node of `trees` reads, dunders excepted."""
    defined, read = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(
        name for name in defined - read if not (name.startswith("__") and name.endswith("__"))
    )


def test_the_check_finds_a_dead_function():
    source = (
        "def used(): return 1\n"
        "def dead(): return used()\n"
        "class A:\n"
        "    def __eq__(self, other): return True\n"
        "    def method(self): return self.other\n"
        "    def other(self): return 2\n"
        "KEY = sorted([], key=len)\n"
    )
    assert unreferenced([ast.parse(source)]) == ["dead", "method"]


def test_only_the_pinned_functions_lack_a_caller():
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    assert unreferenced(trees) == sorted(PINNED)
