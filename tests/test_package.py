"""The package's public surface, and no dead imports behind it."""

import ast
from pathlib import Path

import painleve_ds


def test_every_export_resolves():
    missing = [name for name in painleve_ds.__all__ if not hasattr(painleve_ds, name)]
    assert missing == []


def _unused_imports(source: str) -> list:
    """The names a module imports and never reads: a name in a docstring
    or a comment is no use, and ``from __future__`` binds nothing."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_import_scan_sees_a_dead_name():
    source = "from __future__ import annotations\nimport os.path\nfrom math import pi, tau as turn\n"
    assert _unused_imports(source + "x = os.path.sep, pi\n") == ["turn"]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export, so it is left out
    package = Path(painleve_ds.__file__).parent
    unused = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py" and (names := _unused_imports(path.read_text()))
    }
    assert unused == {}
