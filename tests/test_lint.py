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


def module_imports(source: str, module: str) -> list[str]:
    """The function (`<module>` at top level) holding each import of
    `module`, of a submodule of it or of a name from it in `source`."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                modules = [child.module or ""] + [f"{child.module}.{alias.name}"
                                                  for alias in child.names]
            else:
                modules = []
            if any(m == module or m.startswith(module + ".") for m in modules):
                found.append(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def src_module_imports(module: str) -> list[str]:
    """`<file>.<function>` of every import of `module` in the package source."""
    return [f"{path.stem}.{owner}" for path in sorted((ROOT / "src" / "starkzz").glob("*.py"))
            for owner in module_imports(path.read_text(), module)]


def test_optimizer_checker_names_the_importing_function():
    source = ("import scipy.linalg\nfrom scipy import optimize\n"
              "def f():\n    import scipy.optimize\n"
              "class C:\n    def g(self):\n        from scipy.optimize import root\n"
              "import scipy.sparse\nfrom scipy.sparse import linalg\n")
    assert module_imports(source, "scipy.optimize") == ["<module>", "f", "g"]
    assert module_imports(source, "scipy.sparse.linalg") == ["<module>"]


def test_scipy_optimize_only_in_assign_labels():
    """The package imports scipy.optimize in one place, the non-bijective
    branch of `spectrum.assign_labels`; every gate angle, rate and
    calibration is solved without it."""
    assert src_module_imports("scipy.optimize") == ["spectrum.assign_labels"]


def test_no_src_module_imports_scipy_sparse_linalg():
    """Hermiticity is tested with numpy norms and label solves are Davidson's,
    so the package never imports scipy.sparse.linalg."""
    assert src_module_imports("scipy.sparse.linalg") == []


def test_scipy_sparse_only_above_dense_limit():
    """The package imports no scipy.linalg, and scipy.sparse only inside the
    function that hands the above-DENSE_LIMIT branch its CSR matrix:
    operators are numpy CSR arrays and dense spectra numpy's eigh."""
    assert src_module_imports("scipy.linalg") == []
    assert src_module_imports("scipy.sparse") == ["spectrum._scipy_csr"]


def test_cli_loads_the_gate_layers_in_their_commands():
    """`zz` and `sweep` never propagate, so the CLI imports the pulse layer
    only in `zx` and `calibrate`, and the calibrate layer only in `calibrate`."""
    source = (ROOT / "src" / "starkzz" / "cli.py").read_text()
    assert module_imports(source, "pulse") == ["cmd_zx", "cmd_calibrate"]
    assert module_imports(source, "calibrate") == ["cmd_calibrate"]


def test_thread_pool_only_in_map_points():
    """`--threads` > 1 and `zz_vs_parameter(workers=...)` share one pool
    helper, the one place concurrent.futures is imported."""
    assert src_module_imports("concurrent.futures") == ["spectrum.map_points"]


def np_unique_calls(source: str) -> list[int]:
    """Lines of `source` that read `np.unique` or `numpy.unique`."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and dotted(node) in ("np.unique", "numpy.unique")]


def test_no_src_function_calls_np_unique():
    """numpy 2.4's `unique` imports numpy.ma (about 10 ms) through
    `np.ma.is_masked` on its hash-table path; the package sorts instead."""
    assert np_unique_calls("import numpy as np\nk = np.unique(x)\n") == [2]
    calls = {path.name: np_unique_calls(path.read_text())
             for path in sorted((ROOT / "src" / "starkzz").glob("*.py"))}
    assert {name: lines for name, lines in calls.items() if lines} == {}


def unread_private_definitions(sources: dict[str, str]) -> list[str]:
    """`<file>:<line> <name>` of each private function or class (`_x`, not
    dunder) in `sources`, a {file: text} map, that no code reads outside
    its own definition.  A read is a name, an attribute or an imported
    name."""
    defined, read = [], []
    for file, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((node.name, file, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                read.append((node.id, file, node.lineno))
            elif isinstance(node, ast.Attribute):
                read.append((node.attr, file, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                read.extend((alias.name, file, node.lineno) for alias in node.names)
    return sorted(f"{file}:{first} {name}" for name, file, first, last in defined
                  if not any(r == name and (f != file or not first <= line <= last)
                             for r, f, line in read))


def test_private_checker_skips_own_body_and_dunders():
    sources = {"a.py": ("class _Used:\n    def __init__(self):\n        pass\n"
                        "    def _method(self):\n        return self._method()\n"
                        "def _recursive(n):\n    return _recursive(n - 1)\n"
                        "from b import _helper\n"),
               "b.py": "def _helper():\n    return _Used()\n"}
    assert unread_private_definitions(sources) == ["a.py:4 _method", "a.py:6 _recursive"]


def test_every_private_definition_is_read():
    """Each private function, method and class of the package is used
    somewhere in it other than its own body: none is left behind when its
    last caller goes."""
    sources = {path.name: path.read_text()
               for path in sorted((ROOT / "src" / "starkzz").glob("*.py"))}
    assert unread_private_definitions(sources) == []
