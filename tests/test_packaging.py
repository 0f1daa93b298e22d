import ast
import importlib
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
SOURCES = sorted((ROOT / "src" / "mvse").glob("*.py"))


def test_console_scripts_resolve_to_callables():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module_name, _, attr = target.partition(":")
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name!r} -> {target!r} is not callable"


def _unused_imports(source: str) -> list[str]:
    """Names a module imports at module level and never reads, as
    "line <n>: <name>"; ``__future__`` imports and names in ``__all__``
    are exempt."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read | exported]


def test_unused_import_check_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from dataclasses import dataclass, field\n"
        "from mvse.config import Dims as D, SPACE_SETS\n"
        "__all__ = ['SPACE_SETS']\n"
        "@dataclass\n"
        "class A:\n"
        "    root: str = os.path.sep\n"
    )
    assert _unused_imports(source) == ["line 3: field", "line 4: D"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_reads(path):
    assert _unused_imports(path.read_text()) == []
