"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

import arrowlab

MODULES = sorted(Path(arrowlab.__file__).parent.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import statement anywhere in ``source`` that no
    name or attribute base in it reads; ``from __future__`` is exempt."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport operator\nimport json\njson.dumps\n"
    assert _unused_imports(source) == ["operator"]
