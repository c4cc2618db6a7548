"""Every import in the package, the tests and the scripts is used, every
function in the package has a user outside the tests, and only the
package's accumulators drop a zero coefficient themselves: AST scans of
the names each file binds against the names it reads, and of the
functions that delete dict keys."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "loophom"
SOURCE_DIRS = [PACKAGE, ROOT / "tests", ROOT / "scripts"]
# the benchmark's tracer looks the functions it wraps up by name
TRACING = ROOT / "perfbench" / "tracing.py"


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


def traced_names(source: str) -> set[str]:
    """``module.function`` and ``module.Class.method`` for every entry of
    the ``TRACED`` table in the source."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            table = ast.literal_eval(node.value)
            return {f"{module}.{attr}" for module, attrs in table.items() for attr in attrs}
    raise ValueError("no TRACED table")


def _is_def(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def referenced_names(node: ast.AST, own: str | None = None) -> set[str]:
    """Names, attribute names and imported names read in node, less `own`
    (a function calling itself does not use itself)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out |= {alias.name for alias in sub.names}
    out.discard(own)
    return out


def definitions_only_tests_use(
    library: dict[str, str], users: list[str], traced: set[str]
) -> list[str]:
    """Module-level functions and non-dunder methods of the library modules
    that no library module, other user source or traced name refers to --
    whatever the tests do with them.  Names are matched without their
    module, so a name defined twice counts as used by either's users."""
    defined = []
    refs: set[str] = set()
    for module, source in library.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef):
                members, prefix = node.body, f"{module}.{node.name}."
                for extra in node.bases + node.decorator_list:
                    refs |= referenced_names(extra)
            else:
                members, prefix = [node], f"{module}."
            for item in members:
                if not _is_def(item):
                    refs |= referenced_names(item)
                    continue
                refs |= referenced_names(item, item.name)
                if not (item.name.startswith("__") and item.name.endswith("__")):
                    defined.append((prefix + item.name, item.name))
    for source in users:
        refs |= referenced_names(ast.parse(source))
    return sorted(q for q, name in defined if name not in refs and q not in traced)


def test_scanner_flags_definitions_only_tests_use():
    library = {
        "m": (
            "def used():\n"
            "    return helper()\n"
            "def helper():\n"
            "    return 1\n"
            "def recursive(k):\n"
            "    return recursive(k - 1) if k else 0\n"
            "class C:\n"
            "    def __eq__(self, other):\n"
            "        return True\n"
            "    def method(self):\n"
            "        return 0\n"
            "    def traced(self):\n"
            "        return 1\n"
            "    def read(self):\n"
            "        return 2\n"
        ),
        "n": "from .m import C\nTABLE = {'run': C.read}\n",
    }
    users = ["from m import used\nused()\n"]
    assert definitions_only_tests_use(library, users, {"m.C.traced"}) == [
        "m.C.method",
        "m.recursive",
    ]
    assert definitions_only_tests_use(library, [], set()) == [
        "m.C.method",
        "m.C.traced",
        "m.recursive",
        "m.used",
    ]


def test_no_library_function_exists_only_for_the_tests():
    library = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    users = [path.read_text() for path in sorted((ROOT / "scripts").glob("*.py"))]
    traced = traced_names(TRACING.read_text())
    assert definitions_only_tests_use(library, users, traced) == []


# the accumulators that may drop a zero coefficient by hand: the shared
# one and the Magnus kernel kept apart for speed
ZERO_DROPPERS = {"words.combine", "words.tensor_mul"}


def _deletes_a_key(node: ast.AST) -> bool:
    """``d.pop(key, default)`` or ``del d[key]``."""
    if isinstance(node, ast.Call):
        func = node.func
        return isinstance(func, ast.Attribute) and func.attr == "pop" and len(node.args) == 2
    return isinstance(node, ast.Delete) and any(
        isinstance(t, ast.Subscript) for t in node.targets
    )


def hand_zero_drops(module: str, source: str) -> list[str]:
    """Module-level functions and methods (qualified by module and class)
    whose bodies delete a dict key by hand."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            members, prefix = node.body, f"{module}.{node.name}."
        else:
            members, prefix = [node], f"{module}."
        for item in members:
            if _is_def(item) and any(_deletes_a_key(sub) for sub in ast.walk(item)):
                out.append(prefix + item.name)
    return sorted(out)


def test_scanner_flags_hand_written_zero_drops():
    source = (
        "def combine(terms):\n"
        "    out = {}\n"
        "    for k, c in terms:\n"
        "        c += out.get(k, 0)\n"
        "        if c:\n"
        "            out[k] = c\n"
        "        else:\n"
        "            out.pop(k, None)\n"
        "    return out\n"
        "def stack(xs):\n"
        "    xs.pop()\n"
        "    return xs.pop(0)\n"
        "class C:\n"
        "    def merge(self, d, k):\n"
        "        del d[k]\n"
        "    def rename(self, d):\n"
        "        del d\n"
        "def planted(d, k):\n"
        "    def inner():\n"
        "        d.pop(k, None)\n"
        "    return inner\n"
    )
    assert hand_zero_drops("m", source) == ["m.C.merge", "m.combine", "m.planted"]


def test_only_the_accumulators_drop_zeros_by_hand():
    found = [
        name
        for path in sorted(PACKAGE.glob("*.py"))
        for name in hand_zero_drops(path.stem, path.read_text())
    ]
    assert [name for name in found if name not in ZERO_DROPPERS] == []
