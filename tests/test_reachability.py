"""Every module-level function of the package is reachable from what it
ships: the names ``jetsums/__init__.py`` imports and ``cli.main``.

The scan is static (``ast``).  A function reaches every module-level
function it names, as a bare name (its own module's, or one bound by a
``from ... import``) or as an attribute of an imported module (``linalg.rref``,
``bounds_mod.certify``), nested functions and lambdas included.  Module-level
statements and class bodies, methods included, are roots as well.  Strings,
docstrings among them, name nothing.  A function that only tests call
belongs in ``tests/oracles.py``, not in ``src/``.

Every module-level import of a submodule is used by that module, so a
leftover import cannot keep a moved or deleted name in view; the package's
re-exports in ``__init__.py`` are what it ships.  The test modules, oracles
included, and the demos are held to the same rule.
"""

from __future__ import annotations

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "jetsums"
DEMOS = TESTS.parent / "demos"


class _Module:
    """One source file: its module-level functions, its other top-level
    statements, and how its names resolve to (module, attribute)."""

    def __init__(self, name: str, tree: ast.Module):
        self.name = name
        self.functions: dict[str, ast.AST] = {}
        self.top: list[ast.AST] = []
        self.bound: dict[str, tuple[str, str]] = {}  # name -> (module, attr)
        self.modules: dict[str, str] = {}            # alias -> module
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = node
            else:
                self.top.append(node)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:  # from . import linalg
                        self.modules[local] = alias.name
                    else:                    # from .counting import descend
                        self.bound[local] = (node.module, alias.name)

    def refs(self, node: ast.AST):
        """(module, attr) pairs named anywhere under node."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                if sub.id in self.functions:
                    yield self.name, sub.id
                elif sub.id in self.bound:
                    yield self.bound[sub.id]
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                if sub.value.id in self.modules:
                    yield self.modules[sub.value.id], sub.attr
            elif isinstance(sub, ast.ImportFrom) and sub.level == 1 and sub.module:
                for alias in sub.names:
                    yield sub.module, alias.name


def unreachable_functions(package: Path = PACKAGE) -> list[str]:
    mods = {
        path.stem: _Module(path.stem, ast.parse(path.read_text()))
        for path in sorted(package.glob("*.py"))
    }

    def resolve(ref):
        """Follow re-exports to the module that defines the function."""
        seen = set()
        while ref not in seen and ref[0] in mods:
            seen.add(ref)
            mod = mods[ref[0]]
            if ref[1] in mod.functions:
                return ref
            if ref[1] not in mod.bound:
                return None
            ref = mod.bound[ref[1]]
        return None

    # a submodule's own imports reach nothing; the package's are its exports
    roots = [("cli", "main")]
    roots += [
        ref for name, mod in mods.items() for node in mod.top
        if name == "__init__" or not isinstance(node, (ast.Import, ast.ImportFrom))
        for ref in mod.refs(node)
    ]
    reached = set()
    todo = [r for r in map(resolve, roots) if r is not None]
    while todo:
        ref = todo.pop()
        if ref in reached:
            continue
        reached.add(ref)
        mod = mods[ref[0]]
        todo += [r for r in map(resolve, mod.refs(mod.functions[ref[1]])) if r is not None]
    return sorted(
        f"{name}.{fn}" for name, mod in mods.items() for fn in mod.functions
        if (name, fn) not in reached
    )


def unused_imports(directory: Path = PACKAGE) -> list[str]:
    """module.name for each name a module's module-level imports bind and
    the module never names again (``__init__.py`` and ``__future__``
    imports excepted)."""
    out = []
    for path in sorted(directory.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        bound = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound += [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [a.asname or a.name for a in node.names]
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        out += [f"{path.stem}.{name}" for name in bound if name not in used]
    return sorted(out)


def test_every_module_function_is_reachable():
    assert unreachable_functions() == []


def test_scan_sees_through_the_reference_forms(tmp_path):
    """The scan itself: each way of naming a function reaches it, and a
    function named only in a docstring or by an unreachable one does not."""
    (tmp_path / "__init__.py").write_text("from .a import exported\n")
    (tmp_path / "a.py").write_text(
        "from . import b as b_mod\n"
        "from .b import bare\n"
        "def exported():\n"
        "    '''calls docstring_only()'''\n"
        "    def inner():\n"
        "        return b_mod.by_attribute()\n"
        "    from .b import local_import\n"
        "    return inner, bare, local_import, same_module\n"
        "def same_module():\n"
        "    return None\n"
        "def docstring_only():\n"
        "    return orphan_callee()\n"
        "def orphan_callee():\n"
        "    return None\n"
        "class Holder:\n"
        "    def method(self):\n"
        "        return b_mod.from_method()\n"
    )
    (tmp_path / "b.py").write_text("".join(
        f"def {name}():\n    return None\n"
        for name in ("by_attribute", "bare", "local_import", "from_method")
    ))
    (tmp_path / "cli.py").write_text("def main():\n    return 0\n")
    assert unreachable_functions(tmp_path) == ["a.docstring_only", "a.orphan_callee"]


def test_every_module_level_import_is_used():
    assert unused_imports() == []


def test_every_test_module_import_is_used():
    assert unused_imports(TESTS) == []


def test_every_demo_import_is_used():
    assert unused_imports(DEMOS) == []


def test_unused_import_scan(tmp_path):
    """The import scan itself: a name counts as used wherever the code names
    it, annotations and attribute bases included, but not in a docstring."""
    (tmp_path / "__init__.py").write_text("from .a import exported, unused_here\n")
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from . import b as b_mod, c\n"
        "from .b import bare, in_annotation, in_docstring\n"
        "def exported(x: in_annotation) -> None:\n"
        '    """uses in_docstring and c"""\n'
        "    return np.zeros(1), os.path.join, b_mod.f, bare\n"
    )
    assert unused_imports(tmp_path) == ["a.c", "a.in_docstring"]
