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


def _unread_definitions(sources: dict, exported) -> dict:
    """Per module, the names its top level defines by def, class or
    assignment that no module reads, bare or as an attribute, and that
    ``exported`` does not list; dunder names are left out."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = exported | {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)) or isinstance(node, ast.Attribute)
    }
    unread = {}
    for name, tree in trees.items():
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))
        if dead := sorted(n for n in defined - read if not (n.startswith("__") and n.endswith("__"))):
            unread[name] = dead
    return unread


def test_the_definition_scan_sees_a_dead_name():
    sources = {
        "a": "__all__ = ['f']\nLIMIT = 3\ndef f(): return LIMIT\ndef _helper(): pass\nclass Box: pass\n",
        "b": "from a import Box\nx = Box, len\ny: int = 0\n",
    }
    assert _unread_definitions(sources, {"f"}) == {"a": ["_helper"], "b": ["x", "y"]}


def test_every_definition_is_read_or_exported():
    # no helper exists only for tests to call
    package = Path(painleve_ds.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert _unread_definitions(sources, set(painleve_ds.__all__)) == {}


def _tracer_users(sources: dict) -> dict:
    """Per module other than ``tracing``, the names of ``Traced`` and
    ``compile_kernel`` it imports or reads: only ``tracing.trace`` records
    a tape and compiles a kernel."""
    users = {}
    for name, source in sources.items():
        found = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, (ast.Name, ast.Attribute)):
                found.add(node.id if isinstance(node, ast.Name) else node.attr)
        if name != "tracing.py" and (hits := sorted(found & {"Traced", "compile_kernel"})):
            users[name] = hits
    return users


def test_the_tracer_scan_sees_a_second_tracer():
    sources = {
        "tracing.py": "class Traced: pass\ndef compile_kernel(): pass\n",
        "a.py": "from .tracing import Traced\nleaf = Traced({}, 'x')\n",
        "b.py": "from . import tracing\ntracing.compile_kernel()\n",
        "c.py": "from .tracing import trace\n",
    }
    assert _tracer_users(sources) == {"a.py": ["Traced"], "b.py": ["compile_kernel"]}


def test_only_tracing_records_a_tape_or_compiles_a_kernel():
    package = Path(painleve_ds.__file__).parent
    assert _tracer_users({path.name: path.read_text() for path in sorted(package.glob("*.py"))}) == {}
