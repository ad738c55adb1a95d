"""Every name a module of the package imports at module level is used in
that module, and every function and class a module defines at top level is
named somewhere in the package outside its own body."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import permact

SOURCES = sorted(Path(permact.__file__).parent.glob("*.py"))
TREES = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
# imported for the order of compilation, not for a name
KEPT = {("__init__", "harness")}


def named(node: ast.AST) -> Counter:
    """The identifiers that node and its descendants name as an ``ast.Name``
    or an ``ast.Attribute``; names in strings and docstrings do not count."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def unused_imports(stem: str) -> list[str]:
    tree = TREES[stem]
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used and (stem, name) not in KEPT]


def uncalled_definitions() -> list[str]:
    """module.name of each top-level function or class that the package
    names only inside its own definition."""
    everywhere = sum(map(named, TREES.values()), Counter())
    return [
        f"{stem}.{node.name}"
        for stem, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and everywhere[node.name] == named(node)[node.name]
    ]


@pytest.mark.parametrize("stem", TREES)
def test_module_level_imports_are_used(stem):
    assert unused_imports(stem) == []


def test_every_definition_is_named_outside_its_own_body():
    assert uncalled_definitions() == []
