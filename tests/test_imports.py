"""Every name a module of the package imports at module level is used in
that module."""

import ast
from pathlib import Path

import pytest

import permact

SOURCES = sorted(Path(permact.__file__).parent.glob("*.py"))
# imported for the order of compilation, not for a name
KEPT = {("__init__", "harness")}


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used and (path.stem, name) not in KEPT]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_module_level_imports_are_used(path):
    assert unused_imports(path) == []
