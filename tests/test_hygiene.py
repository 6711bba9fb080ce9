"""Source hygiene: every name a module imports is used by that module, no
two modules under src/ define the same top-level function, and every
private module-level name under src/ is read somewhere under src/.

The import check walks the syntax tree of each module under src/ and
tests/. An imported name counts as used when it is read anywhere in the
module, or when it is listed in a package __init__'s __all__ (which is how
a package re-exports it). Two function definitions are the same when their
syntax trees dump alike, whatever their line numbers. A private name is one
that starts with a single underscore, bound at module level by an
assignment, a def or a class; it counts as read when any module under src/
loads it as a name or as an attribute.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
MODULES = sorted(p for top in ("src", "tests") for p in (ROOT / top).rglob("*.py"))
SRC_MODULES = [p for p in MODULES if p.is_relative_to(ROOT / "src")]


def _imported(tree: ast.Module) -> dict:
    """Bound name -> line, for every import except __future__ ones."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str, is_package_init: bool = False) -> list:
    """(line, name) for each imported name the module never uses."""
    tree = ast.parse(source)
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    if is_package_init:
        used |= _exported(tree)
    return sorted((line, name) for name, line in _imported(tree).items() if name not in used)


class TestUnusedImports:
    def test_finds_an_unused_import(self):
        source = "import os\nfrom typing import Callable, Optional\n\nx: Optional[int] = None\n"
        assert unused_imports(source) == [(1, "os"), (2, "Callable")]

    def test_attribute_use_counts(self):
        source = "import os.path\n\ndef f():\n    return os.path.sep\n"
        assert unused_imports(source) == []

    def test_package_all_counts_only_in_an_init(self):
        source = 'from .a import thing\n\n__all__ = ["thing"]\n'
        assert unused_imports(source, is_package_init=True) == []
        assert unused_imports(source) == [(1, "thing")]

    @pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
    def test_module_uses_every_import(self, path):
        source = path.read_text(encoding="utf-8")
        assert unused_imports(source, is_package_init=path.name == "__init__.py") == []


def duplicate_functions(sources: dict) -> list:
    """Sorted (module, name) groups, one per function defined alike in several modules.

    sources maps a module label to its source text.
    """
    defined = defaultdict(list)
    for label, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined[ast.dump(node)].append((label, node.name))
    return sorted(sorted(group) for group in defined.values() if len(group) > 1)


class TestDuplicateFunctions:
    def test_finds_a_copy_whatever_its_line(self):
        helper = "def now():\n    return 1\n"
        sources = {"a": helper, "b": "x = 0\n\n\n" + helper, "c": "def now():\n    return 2\n"}
        assert duplicate_functions(sources) == [[("a", "now"), ("b", "now")]]

    def test_src_defines_each_function_once(self):
        sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in SRC_MODULES}
        assert duplicate_functions(sources) == []


def _private_definitions(tree: ast.Module) -> dict:
    """Private module-level name -> line, for assignments, defs and classes."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, ast.Assign):
            bound = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound = [node.target.id]
        else:
            continue
        for name in bound:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def _read_names(tree: ast.Module) -> set:
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def unused_private_names(sources: dict) -> list:
    """Sorted (module, line, name) for each private module-level name no module reads.

    sources maps a module label to its source text.
    """
    trees = {label: ast.parse(source) for label, source in sources.items()}
    read = set().union(*map(_read_names, trees.values()))
    return sorted(
        (label, line, name)
        for label, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in read
    )


class TestUnusedPrivateNames:
    def test_finds_a_private_name_no_module_reads(self):
        sources = {
            "a": "_USED = 1\n_DEAD = 2\n\n\ndef _helper():\n    return _USED\n\n\n"
            "class _Gone:\n    pass\n",
            "b": "from a import _helper\n\nx = _helper()\n",
        }
        assert unused_private_names(sources) == [("a", 2, "_DEAD"), ("a", 9, "_Gone")]

    def test_a_write_is_not_a_read(self):
        sources = {"a": "_state = 0\n\n\ndef f(obj):\n    obj._state = 1\n"}
        assert unused_private_names(sources) == [("a", 1, "_state")]

    def test_src_reads_every_private_name(self):
        sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in SRC_MODULES}
        assert unused_private_names(sources) == []
