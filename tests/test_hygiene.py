"""Source hygiene: every name a module imports is used by that module.

The check walks the syntax tree of each module under src/ and tests/. An
imported name counts as used when it is read anywhere in the module, or
when it is listed in a package __init__'s __all__ (which is how a package
re-exports it).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
MODULES = sorted(p for top in ("src", "tests") for p in (ROOT / top).rglob("*.py"))


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
