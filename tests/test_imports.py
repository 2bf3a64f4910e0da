"""Import hygiene of the package modules, the tests and the demos.

Every name a package module, test file or demo imports is used in that file,
no package module imports `fractions`: every scalar is an integer, and every
private function of the package is named outside its own body.  No
linter ships with the test dependencies, so this reads each file's syntax
tree with the standard library.  `__init__.py` is skipped by the unused-name
check because it imports names only to re-export them; instead it must
import exactly the names its `__all__` lists.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bordercert"


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _imported_modules(source: str):
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


def test_unused_imports_detected():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import List, Optional\n"
        "x: List = os.sep\n"
    )
    assert _unused_imports(source) == [(3, "Optional")]


def test_every_imported_name_is_used():
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py"))
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in paths
        for line, name in _unused_imports(path.read_text())
    ]
    assert unused == []


def _referenced_names(node):
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _dead_private_functions(sources):
    """Private, non-dunder functions and methods named nowhere but in their
    own body, across all `sources` as (label, text) pairs."""
    trees = [(label, ast.parse(text)) for label, text in sources]
    refs = Counter()
    for _, tree in trees:
        refs.update(_referenced_names(tree))
    dead = []
    for label, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
                continue
            if refs[name] - _referenced_names(node)[name] <= 0:
                dead.append(f"{label}:{node.lineno}: {name}")
    return dead


def test_dead_private_functions_detected():
    sources = [
        (
            "a.py",
            "def _used():\n    return 1\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "def __dunder__():\n    pass\n"
            "class K:\n    def _method(self):\n        return 2\n",
        ),
        ("b.py", "from a import _used\nx = _used()\n"),
    ]
    assert _dead_private_functions(sources) == ["a.py:3: _recursive", "a.py:8: _method"]


def test_every_private_function_is_referenced():
    sources = [(p.name, p.read_text()) for p in sorted(PACKAGE.glob("*.py"))]
    assert _dead_private_functions(sources) == []


def test_imported_modules_detected():
    source = (
        "import os.path\n"
        "from fractions import Fraction\n"
        "from .monomial import Monomial\n"
        "def f():\n"
        "    import fractions as fr\n"
    )
    assert _imported_modules(source) == {"os", "fractions"}


def test_no_module_imports_fractions():
    offenders = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "fractions" in _imported_modules(path.read_text())
    ]
    assert offenders == []


def test_package_imports_exactly_its_all():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = set()
    exported = None
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = ast.literal_eval(node.value)
    assert exported is not None
    assert len(exported) == len(set(exported))
    assert imported == set(exported)
