"""No module of the package or its scripts imports a name it never uses."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("scripts/*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads and
    ``__all__`` does not list; ``from __future__`` imports are skipped."""
    tree = ast.parse(source)
    imported = [alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {node.value for assign in ast.walk(tree) if isinstance(assign, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in assign.targets)
                for node in ast.walk(assign.value) if isinstance(node, ast.Constant)}
    return [name for name in imported if name not in read | exported]


def test_unused_imports_are_found():
    source = "from os import path, sep\nimport numpy as np\nimport a.b\n__all__ = ['sep']\nnp.zeros\n"
    assert unused_imports(source) == ["path", "a"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
