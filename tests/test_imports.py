"""Import hygiene of the package modules, the tests and the demos.

Every name a package module, test file or demo imports is used in that file,
no package module imports `fractions`: every scalar is an integer, every
private function of the package is named outside its own body, and every
public function, method and class field of the package is read outside the
tests, by the package, the demos, the benchmark or the README.  No
linter ships with the test dependencies, so this reads each file's syntax
tree with the standard library.  `__init__.py` is skipped by the unused-name
check because it imports names only to re-export them; instead it must
import exactly the names its `__all__` lists.
"""

from __future__ import annotations

import ast
import re
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


def _public_definitions(tree):
    """Each module-level function, method and class field of one module, as
    (qualified name, node) pairs.  The fields of a module that calls
    `dataclasses.fields` are left out: it reads them all by reflection."""
    reflective = any(
        isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "fields"
        for n in ast.walk(tree)
    )
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item
                elif isinstance(item, ast.AnnAssign) and not reflective:
                    yield f"{node.name}.{item.target.id}", item


def _unread_public_names(package, readers):
    """Public functions, methods and class fields of the `package` sources
    named nowhere in the `readers` sources but in their own definition; both
    are (label, text) pairs, and the package should be among the readers."""
    refs = Counter()
    for _, text in readers:
        refs.update(_referenced_names(ast.parse(text)))
    unread = []
    for label, text in package:
        for qualified, node in _public_definitions(ast.parse(text)):
            name = qualified.rpartition(".")[2]
            if name.startswith("_"):
                continue
            if refs[name] - _referenced_names(node)[name] <= 0:
                unread.append(f"{label}:{node.lineno}: {qualified}")
    return unread


# Oracles the tests build on, read nowhere else on purpose.
TEST_ONLY_NAMES = {"gamma_formula", "SpanElement.monomial_multiple", "SpanElement.scaled"}


def test_unread_public_names_detected():
    package = [
        (
            "a.py",
            "def used():\n    return 1\n"
            "def unread():\n    return unread()\n"
            "class K:\n"
            "    field: int\n"
            "    kept: int\n"
            "    def method(self):\n        return self.kept\n"
            "    def _private(self):\n        pass\n"
            "    def __len__(self):\n        return 0\n",
        ),
        (
            "b.py",
            "from dataclasses import dataclass, fields\n"
            "@dataclass\nclass R:\n    reflected: int\n"
            "def dump(r):\n    return [f.name for f in fields(r)]\n",
        ),
    ]
    readers = package + [("c.py", "from a import used\nfrom b import dump\ndump(used())\n")]
    assert _unread_public_names(package, readers) == [
        "a.py:3: unread",
        "a.py:6: K.field",
        "a.py:8: K.method",
    ]


def test_every_public_name_is_read_outside_the_tests():
    package = [(p.name, p.read_text()) for p in sorted(PACKAGE.glob("*.py"))]
    readers = package + [
        (str(p.relative_to(ROOT)), p.read_text())
        for p in sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
    ]
    readme = (ROOT / "README.md").read_text()
    readers += [("README.md", code) for code in re.findall(r"```python\n(.*?)```", readme, re.S)]
    unread = [
        entry
        for entry in _unread_public_names(package, readers)
        if entry.rpartition(" ")[2] not in TEST_ONLY_NAMES
    ]
    assert unread == []


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
