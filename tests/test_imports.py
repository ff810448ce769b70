"""Every imported name in the package and its tests is referenced.

No linter runs in tier-1, so this scan of the syntax trees is the check.
A name listed in a module's `__all__` counts as referenced.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "libsuggest").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(text: str, filename: str = "<text>") -> list[str]:
    """The names that `text` imports and never references, as `line: name`."""
    imported, used = {}, set()
    for node in ast.walk(ast.parse(text, filename)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda item: item[1]) if name not in used]


def test_the_scan_finds_an_unused_name_and_counts_all_and_attributes_as_use():
    text = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from math import inf, pi, tau\n"
        "__all__ = ['tau']\n"
        "x = os.path.join(str(pi))\n"
    )
    assert unused_imports(text) == ["3: j", "4: inf"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8"), str(path)) == []
