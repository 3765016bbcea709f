"""Every name a package module imports at module level is used there.

No linter runs on the package, so a refactor that deletes the last use of an
imported name would leave the import behind unnoticed.  Lines marked
``noqa`` keep an import on purpose and are exempt, as are ``__future__``
imports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "slabresonance"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if "noqa" not in lines[alias.lineno - 1] and name not in used:
                unused.append(name)
    assert not unused, f"{path.name} imports unused names: {unused}"
