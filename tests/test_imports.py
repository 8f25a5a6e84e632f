"""Every name a package module imports is used in that module, and every
name a package module defines at its top level is read somewhere in the
project: a deletion leaves no stale import and no dead code behind."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "minimaxclf").glob("*.py"))


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


def top_level_names(source: str) -> set:
    """The functions, classes and assigned names at the top level of ``source``."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def read_names(source: str, hooks: bool = False) -> set:
    """The names ``source`` reads: a loaded name or attribute, a name
    imported from a module and, with ``hooks``, the function of a
    ``"module.function"`` string, as perfbench names the functions it wraps."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif (hooks and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"\w+\.\w+", node.value)):
            names.add(node.value.split(".")[1])
    return names


def test_checker_finds_an_unread_name():
    module = "LIMIT = 3\nA, (B, C) = 1, (2, 3)\nclass Table: pass\ndef hooked(): pass\n" \
             "def dead(): pass\n"
    reads = (read_names("from pkg.mod import Table\nprint(LIMIT, x.A)\nif B: C = 4\n")
             | read_names('HOOKS = {"mod.hooked": 1}', hooks=True) | read_names('"mod.dead"'))
    assert sorted(top_level_names(module) - reads) == ["C", "dead"]


def test_every_top_level_name_is_read():
    # read in src/, tests/ or perfbench/, the module's own reads included
    reads = set()
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            reads |= read_names(path.read_text(encoding="utf-8"), hooks=folder == "perfbench")
    unread = [f"{path.name}:{name}" for path in SOURCES
              for name in sorted(top_level_names(path.read_text(encoding="utf-8")) - reads)]
    assert unread == []
