"""Every import in the package, the tests and the scripts is used, every
function and hand-written constructor in the package has a user outside
the tests, and only the package's accumulators drop a zero coefficient
themselves: AST scans of the names each file binds against the names it
reads, and of the functions that delete dict keys."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
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


def _named(node: ast.AST | None) -> str | None:
    """The name an annotation or a callee gives: ``C``, ``"C"`` or
    ``module.C``; None for anything else."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval").body
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@dataclass
class Library:
    """The library's class names, the classes that have every member each
    protocol declares, and the class each module-level function is
    annotated to return."""

    classes: set[str]
    protocols: dict[str, set[str]]
    returns: dict[str, str]


def _members(cls: ast.ClassDef) -> set[str]:
    """The names a class body defines: methods, properties and fields."""
    out = set()
    for node in cls.body:
        if _is_def(node):
            out.add(node.name)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.add(node.target.id)
        elif isinstance(node, ast.Assign):
            out |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return out


def library_of(top: list[ast.AST]) -> Library:
    classes = {node.name: node for node in top if isinstance(node, ast.ClassDef)}
    protocols = {
        name
        for name, node in classes.items()
        if any(_named(b) == "Protocol" for b in node.bases)
    }
    return Library(
        set(classes),
        {
            p: {
                name
                for name, node in classes.items()
                if name not in protocols and _members(node) >= _members(classes[p])
            }
            for p in protocols
        },
        {
            node.name: _named(node.returns)
            for node in top
            if _is_def(node) and _named(node.returns) in classes
        },
    )


@dataclass
class Reads:
    names: set[str] = field(default_factory=set)  # names and imported names
    attrs: set[str] = field(default_factory=set)  # attributes of receivers of unknown class
    members: set[tuple[str, str]] = field(default_factory=set)  # (class, attribute)
    calls: set[str] = field(default_factory=set)  # names called: ``C(...)``, ``m.C(...)``


def _own_nodes(scope: ast.AST):
    """The nodes of a module, function or class, stopping at (but
    including) nested functions and classes."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _bindings(scope: ast.AST, nodes: list, lib: Library, owner: str | None) -> dict:
    """The class each name bound in scope holds, or None where it is not
    known: the owner for ``self``, a parameter's annotation, a library
    class or annotated function called in an assignment.  A name bound to
    two different classes, or also bound some other way, holds None."""
    held: dict[str, str | None] = {}

    def bind(name: str, cls: str | None) -> None:
        held[name] = cls if held.get(name, cls) == cls else None

    if _is_def(scope):
        args = scope.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        static = any(_named(d) == "staticmethod" for d in scope.decorator_list)
        for k, arg in enumerate(params):
            bind(arg.arg, owner if k == 0 and owner and not static else _named(arg.annotation))
        for arg in (args.vararg, args.kwarg):
            if arg is not None:
                bind(arg.arg, None)
    typed = set()
    for node in nodes:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and isinstance(node.value, ast.Call):
                callee = _named(node.value.func)
                bind(target.id, callee if callee in lib.classes else lib.returns.get(callee))
                typed.add(target)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bind(node.target.id, _named(node.annotation))
            typed.add(node.target)
    for node in nodes:
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load) and node not in typed:
            bind(node.id, None)
    return held


def _scan(
    scope: ast.AST,
    env: dict,
    lib: Library,
    out: Reads,
    own: tuple[str | None, str] | None = None,
    owner: str | None = None,
    library: bool = False,
) -> None:
    """Add what scope reads to `out`.  An attribute read is matched to the
    class its receiver holds, when `env` and the scope's own bindings know
    it.  `own` is the (class, name) of the library definition being
    scanned: a function calling itself does not use itself."""
    nodes = list(_own_nodes(scope))
    if not isinstance(scope, ast.ClassDef):
        env = {**env, **_bindings(scope, nodes, lib, owner)}
    for node in nodes:
        if isinstance(node, ast.Call):
            out.calls.add(_named(node.func))
        if isinstance(node, ast.Name):
            if own != (None, node.id):
                out.names.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            out.names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute):
            receiver = node.value
            cls = None
            if isinstance(receiver, ast.Name):
                cls = env[receiver.id] if receiver.id in env else receiver.id
                if receiver.id not in env and cls not in lib.classes:
                    cls = None
            if cls is None:
                if own is None or own[1] != node.attr:
                    out.attrs.add(node.attr)
                continue
            for held in {cls} | lib.protocols.get(cls, set()):
                if own != (held, node.attr):
                    out.members.add((held, node.attr))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope.name if isinstance(scope, ast.ClassDef) else None
            if own is None and library and not isinstance(node, ast.ClassDef):
                _scan(node, env, lib, out, (inner, node.name), inner, library)
            else:
                _scan(node, env, lib, out, own, inner, library)


def definitions_only_tests_use(
    library: dict[str, str], users: list[str], traced: set[str]
) -> list[str]:
    """Module-level functions and non-dunder methods and properties of the
    library modules that no library module, other user source or traced
    name refers to -- whatever the tests do with them -- and the
    hand-written ``__init__`` of each class that none of them calls.

    A function is matched by its name, without its module.  A member is
    matched by class: reading ``x.m`` uses ``C.m`` when x is known to hold
    a C (``self`` in C, a parameter annotated C, a name assigned from
    ``C(...)`` or from a function annotated to return C), every class with
    all of a protocol's members when x is annotated with that protocol, and
    every class's ``m`` when x's class is not known."""
    trees = {module: ast.parse(source) for module, source in library.items()}
    lib = library_of([node for tree in trees.values() for node in tree.body])
    reads = Reads()
    for tree in trees.values():
        _scan(tree, {}, lib, reads, library=True)
    for source in users:
        _scan(ast.parse(source), {}, lib, reads)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if _is_def(node) and not {node.name} & (reads.names | reads.attrs):
                unread.append(f"{module}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                unread.extend(
                    f"{module}.{node.name}.{item.name}"
                    for item in node.body
                    if _is_def(item)
                    and (
                        node.name not in reads.calls
                        if item.name == "__init__"
                        else not (item.name.startswith("__") and item.name.endswith("__"))
                        and item.name not in reads.attrs
                        and (node.name, item.name) not in reads.members
                    )
                )
    return sorted(q for q in unread if q not in traced)


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


def test_scanner_flags_constructors_nobody_calls():
    # a hand-written __init__ counts as used only when the class is called;
    # naming the class (in an annotation or to object.__new__) is not a call
    library = {
        "m": (
            "from dataclasses import dataclass\n"
            "class Built:\n"
            "    def __init__(self, x):\n"
            "        self.x = x\n"
            "class Named:\n"
            "    def __init__(self, x):\n"
            "        self.x = x\n"
            "class Scripted:\n"
            "    def __init__(self, x):\n"
            "        self.x = x\n"
            "@dataclass\n"
            "class Generated:\n"
            "    x: int\n"
            "def make(x) -> Built:\n"
            "    return Built(x)\n"
            "def bare(x) -> Named:\n"
            "    m = object.__new__(Named)\n"
            "    return m\n"
        ),
    }
    users = ["import m\nprint(m.make(1), m.bare(2), m.Scripted(3))\n"]
    assert definitions_only_tests_use(library, users, set()) == ["m.Named.__init__"]
    assert definitions_only_tests_use(library, [], set()) == [
        "m.Named.__init__",
        "m.Scripted.__init__",
        "m.bare",
        "m.make",
    ]


def test_scanner_matches_members_by_class():
    # Cell.n and Complex.n share a name; only Complex.n is read, through
    # receivers whose class the scan can tell
    library = {
        "m": (
            "from typing import Protocol\n"
            "class Cell:\n"
            "    @property\n"
            "    def n(self):\n"
            "        return 1\n"
            "    def size(self):\n"
            "        return 2\n"
            "class Complex:\n"
            "    @property\n"
            "    def n(self):\n"
            "        return 3\n"
            "    def rank(self):\n"
            "        return self.n\n"
            "    def size(self):\n"
            "        return 4\n"
            "class Ranked(Protocol):\n"
            "    def rank(self): ...\n"
            "def build() -> Complex:\n"
            "    return Complex()\n"
            "def top(cx: Ranked, n):\n"
            "    return cx.rank() + n\n"
        ),
    }
    users = [
        "from m import build, top\n"
        "cx = build()\n"
        "print(top(cx, cx.n), cx.size())\n"
    ]
    assert definitions_only_tests_use(library, users, set()) == ["m.Cell.n", "m.Cell.size"]
    # a receiver of unknown class reads the member of every class
    users.append("def show(thing):\n    return thing.size()\n")
    assert definitions_only_tests_use(library, users, set()) == ["m.Cell.n"]


def test_no_library_function_exists_only_for_the_tests():
    library = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    users = [path.read_text() for path in sorted((ROOT / "scripts").glob("*.py"))]
    traced = traced_names(TRACING.read_text())
    assert definitions_only_tests_use(library, users, traced) == []


# the one accumulator that may drop a zero coefficient by hand
ZERO_DROPPERS = {"words.combine"}


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
