"""Every name a package module imports is used in that module: a deletion
leaves no stale import behind."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "minimaxclf").glob("*.py"))


def unused_imports(source: str) -> list:
    """The names that ``source`` imports and never reads, ``__future__``
    features aside; an ``import a.b`` binds, and is read as, ``a``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom math import log, pi\nnp.zeros(1)\nlog(pi)\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
