"""Every module-level import, private definition and public name under `src/`
is used, every import is of the standard library or treeprm, and every name
the bench tracer rebinds exists: refactors leave stale ones. The package and
its metadata name one version. Loading the CLI leaves the standard library's
HTTP client, its header parser and TLS unloaded."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Public names that no command reads but that stay, each with its reason.
KEPT_UNREFERENCED = {
    "treeprm/rewards.py:step_label":
        "the per-index reference that the labelling tests hold labelled_steps to",
}


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


def non_stdlib_imports(source: str) -> list[str]:
    """Modules that a module-level import takes from outside the standard
    library and treeprm; a relative import is of treeprm."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [f"{module} (line {node.lineno})" for module in modules
                  if module.split(".")[0] not in sys.stdlib_module_names | {"treeprm"}]
    return found


def test_stdlib_checker_flags_third_party_imports_only():
    source = (
        "from __future__ import annotations\n"
        "import http.client, json\nimport requests\n"
        "from urllib.parse import urlsplit\nfrom .base import x\n"
        "from treeprm.jsonio import canonical_json\nfrom urllib3.util import Retry\n"
    )
    assert non_stdlib_imports(source) == ["requests (line 3)", "urllib3.util (line 7)"]


def test_src_imports_only_the_standard_library():
    outside = {
        str(module.relative_to(SRC)): names
        for module in sorted(SRC.rglob("*.py"))
        if (names := non_stdlib_imports(module.read_text(encoding="utf-8")))
    }
    assert outside == {}


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


def public_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Public functions, classes and constants bound at module level, each
    with the statement that binds it."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        defined.update((name, node) for name in names if not name.startswith("_"))
    return defined


def names_read(nodes, strings: bool = False) -> set[str]:
    """Identifiers that `nodes` read, as a name or an attribute. Import
    statements and `__all__` entries are not reads. With `strings`, string
    constants count too, for code that looks names up by string."""
    read = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return read


def unreferenced_public_names(modules: dict[str, str],
                              readers: list[tuple[str, bool]]) -> list[str]:
    """`module:name` for each public definition in `modules` (name to source)
    that no other module, no reader source and no other statement of its own
    module reads. `readers` pairs a source with whether its strings count."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    reads = {name: names_read([tree]) for name, tree in trees.items()}
    external = set()
    for source, strings in readers:
        external |= names_read([ast.parse(source)], strings)
    found = []
    for module, tree in trees.items():
        others = set().union(*(read for other, read in reads.items() if other != module))
        for name, definition in public_definitions(tree).items():
            own = names_read(node for node in tree.body if node is not definition)
            if name not in others | external | own:
                found.append(f"{module}:{name}")
    return sorted(found)


def test_public_checker_finds_unreferenced_names():
    modules = {
        "a": "from b import used\n__all__ = ['exported']\n"
             "def exported():\n    return exported()\n"
             "LIMIT = 3\ndef helper():\n    return LIMIT\n"
             "def main():\n    return helper()\n",
        "b": "def used():\n    pass\nclass Hooked:\n    pass\n",
    }
    readers = [("import a\na.main()\n", False), ("HOOKS = ['Hooked']\n", True)]
    assert unreferenced_public_names(modules, readers) == ["a:exported", "b:used"]


def test_every_public_name_under_src_is_read():
    """A public name counts as read when another `src/` module, `perfbench/`
    (which rebinds names given as strings) or the acceptance tests name it,
    or when its own module reads it outside its definition."""
    modules = {
        str(module.relative_to(SRC)): module.read_text(encoding="utf-8")
        for module in sorted(SRC.rglob("*.py"))
    }
    readers = [(path.read_text(encoding="utf-8"), True)
               for path in sorted((ROOT / "perfbench").glob("*.py"))]
    readers.append(((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"), False))
    assert unreferenced_public_names(modules, readers) == sorted(KEPT_UNREFERENCED), (
        "delete what nothing reads, or keep it in KEPT_UNREFERENCED with a reason"
    )


# Record fields that nothing under `src/` reads but that stay, each with its reason.
KEPT_UNREAD_FIELDS = {
    "treeprm/mcts.py:SearchResult.rounds":
        "the rounds a search ran, which the search tests hold the root's visits and the "
        "early stop to",
    "treeprm/synthetic.py:SyntheticTrace.ground_truth_labels":
        "the labels that the synthetic-domain tests hold exact_verify to",
}

WHOLE_RECORD_CALLS = ("vars", "asdict", "fields")


def record_fields(tree: ast.Module) -> dict[str, list[str]]:
    """The fields of each dataclass and NamedTuple that `tree` defines."""
    records = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if "dataclass" in names_read(decorators) or "NamedTuple" in names_read(node.bases):
            records[node.name] = [statement.target.id for statement in node.body
                                  if isinstance(statement, ast.AnnAssign)
                                  and isinstance(statement.target, ast.Name)]
    return records


def _last_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def record_types(trees: list[ast.Module], records: set[str]):
    """A function from an expression to the records it may hold. An
    expression is known by its last name, as a record itself or as a name
    that an annotation, a call of an annotated function or a loop over a
    known name gives a record type to; a call is known by what it builds or
    is annotated to return. Names are not scoped, so a name that has a record
    type anywhere has it everywhere."""
    def mentioned(annotation) -> set[str]:
        if annotation is None:
            return set()
        return names_read([annotation], strings=True) & records

    nodes = [node for tree in trees for node in ast.walk(tree)]
    returns = {}
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            returns.setdefault(node.name, set()).update(mentioned(node.returns))
    typed = {record: {record} for record in records}

    def types(node: ast.expr) -> set[str]:
        found = typed.get(_last_name(node), set())
        if isinstance(node, ast.Call):
            found = found | returns.get(_last_name(node), set())
        return found

    for node in nodes:
        if isinstance(node, ast.arg):
            typed.setdefault(node.arg, set()).update(mentioned(node.annotation))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            typed.setdefault(node.target.id, set()).update(mentioned(node.annotation))
    for node in nodes:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    typed.setdefault(target.id, set()).update(types(node.value))
    for node in nodes:
        if isinstance(node, (ast.For, ast.comprehension)) and isinstance(node.target, ast.Name):
            typed.setdefault(node.target.id, set()).update(types(node.iter))
    return types


def whole_records(trees: list[ast.Module], types) -> set[str]:
    """Records some call of `vars`, `asdict` or `fields` may take whole."""
    whole = set()
    for tree in trees:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in WHOLE_RECORD_CALLS and node.args):
                whole |= types(node.args[0])
    return whole


def fields_read(tree: ast.Module, types) -> set[tuple[str, str]]:
    """(record, field) for each attribute that `tree` loads: `self.x` for the
    class that encloses it, any other receiver for the records `types` gives
    it, and a receiver of unknown type for no record."""
    read = set()

    def visit(node: ast.AST, owner: str | None) -> None:
        if isinstance(node, ast.ClassDef):
            owner = node.name
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            receiver = node.value
            if isinstance(receiver, ast.Name) and receiver.id == "self":
                owners = {owner}
            else:
                owners = types(receiver)
            read.update((record, node.attr) for record in owners)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return read


def unread_fields(modules: dict[str, str]) -> list[str]:
    """`module:Record.field` for each field of a dataclass or NamedTuple in
    `modules` (name to source) that no module reads as an attribute of that
    record, unless the record is taken whole by `vars`, `asdict` or
    `fields`."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    fields = {name: record_fields(tree) for name, tree in trees.items()}
    records = {record for found in fields.values() for record in found}
    types = record_types(list(trees.values()), records)
    whole = whole_records(list(trees.values()), types)
    read = set().union(*(fields_read(tree, types) for tree in trees.values()))
    return sorted(f"{module}:{record}.{name}"
                  for module, found in fields.items() for record, names in found.items()
                  if record not in whole for name in names if (record, name) not in read)


def test_field_checker_finds_unread_fields():
    modules = {
        "a": "from dataclasses import dataclass, asdict\nfrom typing import NamedTuple\n"
             "@dataclass(frozen=True)\nclass Kept:\n    used: int\n    stale: int\n"
             "class Pair(NamedTuple):\n    left: int\n    right: int\n"
             "@dataclass\nclass Dumped:\n    only_dumped: int\n"
             "@dataclass\nclass Listed:\n    listed: int\n"
             "@dataclass\nclass Made:\n    made: int\n",
        "b": "def dump(kept: Kept, pair: Pair, items: list[Listed]):\n"
             "    kept.stale = kept.used + pair.left\n"
             "    made = build()\n"
             "    return asdict(Dumped(1)), [vars(item) for item in items], vars(made)\n"
             "def build() -> Made:\n    return Made(1)\n",
    }
    assert unread_fields(modules) == ["a:Kept.stale", "a:Pair.right"]


def test_field_checker_keys_reads_on_the_receivers_record():
    """A read counts for the record its receiver holds: `self` for the
    enclosing class, and a receiver of unknown type for no record."""
    modules = {
        "a": "from dataclasses import dataclass\n"
             "@dataclass\nclass Left:\n    name: str\n"
             "@dataclass\nclass Right:\n    name: str\n    size: int\n"
             "    def grown(self):\n        return self.size + 1\n"
             "@dataclass\nclass Loose:\n    tag: str\n",
        "b": "def show(left: Left, thing):\n    return left.name, thing.tag\n",
    }
    assert unread_fields(modules) == ["a:Loose.tag", "a:Right.name"]


def test_every_record_field_under_src_is_read():
    """A field that no code reads is work and memory spent on every instance;
    a record dumped whole is read field by field."""
    modules = {
        str(module.relative_to(SRC)): module.read_text(encoding="utf-8")
        for module in sorted(SRC.rglob("*.py"))
    }
    assert unread_fields(modules) == sorted(KEPT_UNREAD_FIELDS), (
        "delete the fields nothing reads, or keep them in KEPT_UNREAD_FIELDS with a reason"
    )


def test_every_traced_treeprm_target_resolves():
    """`perfbench/tracing.py` rebinds treeprm functions and methods by name,
    so a rename under `src/` would break only traced bench runs."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(module, (attr,)) for _, module, attr in tracing.FUNCTIONS]
    targets += [(module, (cls, attr)) for _, module, cls, attr in tracing.METHODS]
    targets = [(module, path) for module, path in targets if module.startswith("treeprm")]
    missing = []
    for module, path in targets:
        target = importlib.import_module(module)
        for name in path:
            target = getattr(target, name, None)
        if not callable(target):
            missing.append(".".join((module, *path)))
    assert len(targets) > 20
    assert missing == []


def test_package_version_matches_pyproject():
    """`pipeline_version` in every dataset record is `treeprm.__version__`, so
    the installed metadata must name the same release."""
    import tomllib

    import treeprm

    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert treeprm.__version__ == pyproject["project"]["version"]


def test_the_cli_loads_no_http_client_header_parser_or_tls():
    """The remote backends speak HTTP/1.1 themselves and import `ssl` only at
    their first https connect, so a synth run loads none of these."""
    code = ("import sys, treeprm.cli\n"
            "print([m for m in ('http.client', 'email.parser', 'ssl') if m in sys.modules])")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    loaded = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, check=True).stdout
    assert loaded.strip() == "[]"
