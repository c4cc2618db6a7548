"""Every import in the package, the tests and the scripts is used: an AST
scan of each file's imported names against the names it reads."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIRS = [ROOT / "src" / "loophom", ROOT / "tests", ROOT / "scripts"]


def imported_names(tree: ast.AST) -> dict[str, int]:
    """Name bound by each import, with its line ("import a.b" binds a)."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.AST) -> set[str]:
    """Names read anywhere, including inside string annotations and
    ``__all__``."""
    out = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann) if ann is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                out |= used_names(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            out |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return out


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted((line, name) for name, line in imported_names(tree).items() if name not in used)


def test_scanner_flags_only_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys\n"
        "from fractions import Fraction as F\n"
        "from typing import Sequence\n"
        "def f(x: 'Sequence[int]') -> int:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [(3, "sys"), (4, "F")]


@pytest.mark.parametrize(
    "path",
    sorted(p for d in SOURCE_DIRS for p in d.glob("*.py")),
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
