"""Every module-level import and private definition under `src/` is used:
refactors leave stale ones."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import that the module never reads.
    A name listed in `__all__` counts as read; `from __future__` is skipped."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def unreferenced_private_definitions(source: str) -> list[str]:
    """Private (leading underscore) functions and classes defined at module
    level that nothing else in the module names."""
    tree = ast.parse(source)
    defined = {node.name: node.lineno for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in defined.items()
                  if name not in used)


def test_checker_finds_unused_names_and_honours_all():
    source = (
        "from __future__ import annotations\n"
        "import json\nimport os.path\nfrom x import a, b as c, d\n"
        "__all__ = ['c']\n"
        "def f():\n    return os.path.join(d)\n"
    )
    assert unused_imports(source) == ["a (line 4)", "json (line 2)"]


def test_no_unused_module_level_imports_under_src():
    unused = {
        str(module.relative_to(SRC)): names
        for module in sorted(SRC.rglob("*.py"))
        if (names := unused_imports(module.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_private_checker_finds_unreferenced_definitions():
    source = (
        "def _used():\n    pass\n"
        "def _stale():\n    pass\n"
        "class _Old:\n    pass\n"
        "def public():\n    return _used()\n"
        "def __getattr__(name):\n    pass\n"
    )
    assert unreferenced_private_definitions(source) == ["_Old (line 5)", "_stale (line 3)"]


def test_no_unreferenced_private_definitions_under_src():
    stale = {
        str(module.relative_to(SRC)): names
        for module in sorted(SRC.rglob("*.py"))
        if (names := unreferenced_private_definitions(module.read_text(encoding="utf-8")))
    }
    assert stale == {}
