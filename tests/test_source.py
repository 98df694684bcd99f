"""Source-level checks on the package, with the standard library's ``ast``
(the test environment has no linter)."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "twoomega"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))
# What the program reads: the package and the benchmark harness.  A
# definition only the tests read is test-only API, and belongs in tests/.
READERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; ``__future__`` imports are
    directives, not names."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read]


def test_unused_imports_detected():
    source = "from __future__ import annotations\nimport os, sys\nfrom x import a, b as c\nsys.exit(c)\n"
    assert unused_imports(source) == ["os", "a"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def non_stdlib_imports(source: str) -> list[str]:
    """Top-level names of the absolute imports, at any depth, that are not
    standard-library modules; relative imports stay inside the package."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return [name for name in names if name not in sys.stdlib_module_names]


def test_non_stdlib_imports_detected():
    source = "import os.path\nfrom . import x\ndef f():\n    import numpy as np\n    from hypothesis import given\n"
    assert non_stdlib_imports(source) == ["numpy", "hypothesis"]


@pytest.mark.parametrize("path", PACKAGE, ids=[p.name for p in PACKAGE])
def test_imports_only_stdlib(path):
    # pyproject.toml declares no runtime dependencies
    assert non_stdlib_imports(path.read_text()) == []


def string_literals(source: str, skip_function: str | None = None) -> set[str]:
    """The string constants of a module, minus those inside the function
    named ``skip_function``."""
    tree = ast.parse(source)
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == skip_function:
            skipped = {id(n) for n in ast.walk(node)}
    return {
        n.value for n in ast.walk(tree)
        if isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in skipped
    }


def test_string_literals_skip_function():
    source = 'A = "a"\ndef table():\n    return {"b": 1}\ndef use():\n    return "c"\n'
    assert string_literals(source, "table") == {"a", "c"}


def test_every_catalog_pattern_is_read():
    # a pattern id named nowhere in the package but its catalog table has
    # no reader; test-only patterns live in conftest's FIXTURE_PATTERNS
    from twoomega.patterns import PATTERNS

    named = set()
    for path in PACKAGE:
        skip = "_build_catalog" if path.name == "patterns.py" else None
        named |= string_literals(path.read_text(), skip)
    assert [pid for pid in PATTERNS if pid not in named] == []


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def read_name(node: ast.AST) -> str | None:
    """The name a node reads, as a variable or as an attribute."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def reads(tree: ast.Module) -> list[tuple[str, str | None]]:
    """(name, owner) for every name a module reads, as a variable or as an
    attribute; owner is the top-level definition holding the read, if any."""
    out = []
    for top in tree.body:
        owner = top.name if isinstance(top, DEFINITIONS) else None
        out += [(name, owner) for n in ast.walk(top) if (name := read_name(n))]
    return out


def unread_definitions(source: str, others: list[str]) -> list[str]:
    """Top-level functions and classes of ``source`` that neither another
    part of it nor any of ``others`` reads; a read inside the definition's
    own body (recursion, a method) does not count."""
    tree = ast.parse(source)
    outside = {name for text in others for name, _ in reads(ast.parse(text))}
    own = reads(tree)
    return [
        d.name for d in tree.body
        if isinstance(d, DEFINITIONS) and d.name not in outside
        and all(name != d.name or owner == d.name for name, owner in own)
    ]


def test_unread_definitions_detected():
    source = (
        "class A:\n    x: int\nclass B:\n    def m(self):\n        return B()\n"
        "def f():\n    return f()\ndef g():\n    return A\ndef h():\n    pass\n"
    )
    assert unread_definitions(source, ["import m\nm.g()\n"]) == ["B", "f", "h"]


def unread_methods(source: str, others: list[str]) -> list[str]:
    """Methods and properties of the top-level classes of ``source``, as
    Class.name, that neither another part of it nor any of ``others`` reads
    as an attribute (``x.name``); a bare name is a variable or function, not
    the method, and a read inside the method's own body does not count.
    Dunders are exempt (the interpreter calls them)."""
    tree = ast.parse(source)
    outside = {n.attr for text in others for n in ast.walk(ast.parse(text))
               if isinstance(n, ast.Attribute)}
    out = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for m in [m for m in cls.body if isinstance(m, DEFINITIONS[:2])]:
            if m.name.startswith("__") and m.name.endswith("__"):
                continue
            own = {id(n) for n in ast.walk(m)}
            here = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and id(n) not in own}
            if m.name not in outside and m.name not in here:
                out.append(f"{cls.name}.{m.name}")
    return out


def test_unread_methods_detected():
    source = (
        "class A:\n    def __eq__(self, o):\n        return self.f()\n"
        "    def f(self):\n        return 1\n    def g(self):\n        return self.g()\n"
        "    @property\n    def p(self):\n        return 2\n    @staticmethod\n"
        "    def s():\n        pass\n    def _h(self):\n        pass\n"
    )
    assert unread_methods(source, ["import m\nm.A.s()\n"]) == ["A.g", "A.p", "A._h"]
    # a function or variable of the same name, here or elsewhere, is not a read
    shadows = "def p():\n    return 3\n_h = p()\ng = _h\n"
    assert unread_methods(source + shadows, [shadows, "import m\nm.A.s()\n"]) == ["A.g", "A.p", "A._h"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_definition_is_read(path):
    assert not any(p.is_relative_to(ROOT / "tests") for p in READERS)
    others = [p.read_text() for p in READERS if p != path]
    source = path.read_text()
    assert unread_definitions(source, others) + unread_methods(source, others) == []


def test_cli_import_loads_no_dataclasses_or_inspect():
    # a cold `twoomega color` pays for every module the package imports;
    # dataclasses (which pulls in inspect) cost about 10 ms of that
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = "import sys, twoomega.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
