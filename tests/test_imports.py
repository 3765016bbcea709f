"""Every name a package module imports at module level is used there, and
every module-level function has a caller in the package.

No linter runs on the package, so a refactor that deletes the last use of an
imported name or a helper would leave it behind unnoticed.  Lines marked
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


def _functions_and_references():
    """(module, name) of every module-level function, the names each other
    top-level statement of a package module references, and the names its
    ``from .x import f`` statements bring in, ``__init__`` included."""
    defined, used, imported = [], set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            names = {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
            names |= {sub.attr for sub in ast.walk(node)
                      if isinstance(sub, ast.Attribute)}
            if isinstance(node, ast.FunctionDef):
                defined.append((path.name, node.name))
                names.discard(node.name)  # a recursive call is no caller
            if isinstance(node, ast.ImportFrom):
                imported |= {alias.name for alias in node.names}
            used |= names
    return defined, used, imported


def test_private_functions_are_referenced():
    """Every module-level ``_private`` function is referenced by another
    top-level statement of some package module, so a refactor that deletes a
    helper's last caller cannot leave the helper behind."""
    defined, used, _ = _functions_and_references()
    dead = [f"{module}:{name}" for module, name in defined
            if name.startswith("_") and not name.startswith("__")
            and name not in used]
    assert not dead, f"private functions nothing references: {dead}"


def test_public_functions_are_referenced():
    """Every module-level public function is referenced by another top-level
    statement of some package module, an import into ``__init__`` included,
    so a public function that only tests call cannot stay in the package."""
    defined, used, imported = _functions_and_references()
    dead = [f"{module}:{name}" for module, name in defined
            if not name.startswith("_") and name not in used | imported]
    assert not dead, f"public functions nothing references: {dead}"


def test_constants_are_referenced():
    """Every module-level UPPER_CASE constant is read somewhere in the
    package, so a refactor that deletes the helper a constant tunes cannot
    leave the constant behind."""
    defined, read = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(path.name, t.id) for t in targets
                            if isinstance(t, ast.Name) and t.id.isupper()]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    assert defined, "no constants found"
    dead = [f"{module}:{name}" for module, name in defined if name not in read]
    assert not dead, f"constants nothing references: {dead}"
