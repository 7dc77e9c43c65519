"""Every name a module of the package imports is used in that module, and
every module parses at the oldest Python the package declares."""

import ast
import re
from pathlib import Path

import pytest

import arrowlab

MODULES = sorted(Path(arrowlab.__file__).parent.glob("*.py"))
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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


def _minimum_python() -> tuple[int, int]:
    """The ``(major, minor)`` floor that ``pyproject.toml``'s ``requires-python`` sets."""
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', PYPROJECT.read_text(), re.M)
    return int(floor[1]), int(floor[2])


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_module_parses_at_the_minimum_python(path):
    ast.parse(path.read_text(), feature_version=_minimum_python())


def test_newer_syntax_is_rejected_at_the_minimum_python():
    assert _minimum_python() == (3, 10)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=_minimum_python())
