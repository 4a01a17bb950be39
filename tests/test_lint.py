"""Static checks on the package source, with the standard library only."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parents[1]
SOURCES = sorted([*(ROOT / "src" / "starkzz").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def dotted(node) -> str | None:
    """`a.b.c` for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def unused_imports(source: str) -> list[str]:
    """Names imported in `source` and never read, skipping `__future__`
    imports and lines marked `# noqa: F401`.  `import a.b` counts as read
    only where the code reads `a.b` or an attribute of it."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name] = alias.lineno
    read = {dotted(node) for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if not any(r == name or r.startswith(name + ".") for r in read if r)]


def test_checker_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nimport scipy.optimize\n"
              "from json import dumps, loads  # noqa: F401\n"
              "from re import compile as rx, escape\n"
              "x = scipy.optimize.brentq\ny = rx\n")
    assert unused_imports(source) == ["line 6: escape", "line 2: math",
                                      "line 3: os.path"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
