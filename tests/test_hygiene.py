"""Source hygiene: every name a module imports is used by that module, and
no two modules under src/ define the same top-level function.

The import check walks the syntax tree of each module under src/ and
tests/. An imported name counts as used when it is read anywhere in the
module, or when it is listed in a package __init__'s __all__ (which is how
a package re-exports it). Two function definitions are the same when their
syntax trees dump alike, whatever their line numbers.
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
