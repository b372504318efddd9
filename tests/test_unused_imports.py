"""Every imported name in the package, the scripts and the tests is read
somewhere in its module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in read]


def test_scanner_flags_only_unread_names():
    src = "import os, sys\nfrom typing import Sequence as Seq\nprint(sys.argv)\n"
    assert unused_imports(src) == ["os (line 1)", "Seq (line 2)"]


def test_no_unused_imports():
    found = {
        str(path.relative_to(ROOT)): names
        for top in ("src", "scripts", "tests")
        for path in sorted((ROOT / top).rglob("*.py"))
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}
