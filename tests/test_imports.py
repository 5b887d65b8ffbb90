"""numpy stays the only runtime dependency: every import in the package is
the standard library, numpy, or the package itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "finetti"


def _imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            # A relative import (level > 0) stays inside the package.
            root = "finetti" if node.level else node.module.split(".")[0]
            yield node.lineno, root


def test_package_imports_only_the_standard_library_numpy_and_itself():
    allowed = set(sys.stdlib_module_names) | {"numpy", "finetti"}
    sources = sorted(PACKAGE.glob("**/*.py"))
    assert sources, PACKAGE
    foreign = [
        f"{path.relative_to(PACKAGE)}:{line} imports {root}"
        for path in sources
        for line, root in _imported_roots(ast.parse(path.read_text(), str(path)))
        if root not in allowed
    ]
    assert foreign == []
