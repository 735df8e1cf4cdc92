"""Source hygiene of the package: no unused top-level import, no line over 100 characters,
no import from outside the standard library, numpy (the one dependency) and mscr, no thread
module imported outside the CLI, no module-level function, class or `__all__` name that
nothing in the package calls, and no method or property of a package class that nothing in
the package reads, unless `UNCALLED_EXPORTS` gives the reason it stays.  The CLI leaves the
v4 layout's sizes to `mscr.cluster` (`LAYOUT_NAMES`), and only galois reads a field's tables
(`TABLE_NAMES`).

`__init__.py` is exempt from the unused-import check: its imports are the package API.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mscr"
MODULES = sorted(SRC.glob("*.py"))
MAX_LINE = 100
ALLOWED_IMPORTS = set(sys.stdlib_module_names) | {"numpy", "mscr"}


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that nothing else in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    # Quoted annotations and __all__ entries name what they use in strings.
    strings = [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)
               and isinstance(n.value, str)]
    used = {n.id for part in [tree, *map(_expression, strings)] for n in ast.walk(part)
            if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def _expression(text: str) -> ast.AST:
    try:
        return ast.parse(text, mode="eval")
    except SyntaxError:
        return ast.Module(body=[], type_ignores=[])


def test_unused_import_is_detected():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["os (line 1)"]
    assert unused_imports("from typing import Sequence\nx: 'Sequence[int]' = []\n") == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_line_over_limit(path):
    long = [n for n, line in enumerate(path.read_text().splitlines(), 1) if len(line) > MAX_LINE]
    assert long == [], f"{path.name}: lines {long} exceed {MAX_LINE} characters"


def callers(tree: ast.Module) -> set[str]:
    """Names a module calls: each name it reads, each name it imports from a package module,
    and each attribute it reads off a package module alias (`codec.x`, `params_mod.x`)."""
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level and node.module is None
               for alias in node.names}
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            called.add(node.id)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases:
            called.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.level:
            called.update(alias.name for alias in node.names)
    return called


def methods(tree: ast.Module) -> set[tuple[str, str]]:
    """(class, name) of each method and property of the module's top-level classes, but the
    dunder ones, which Python calls."""
    return {(cls.name, node.name) for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, ast.FunctionDef)
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def unreferenced_definitions(sources: dict[str, str], reasons: dict[str, str]) -> list[str]:
    """`module: name` for each module-level function or class and each `__all__` name of
    `sources` (name -> text) that no module but `__init__.py` calls, and `module: Class.name`
    for each method or property (`methods`) that no such module reads as an attribute
    (`.name`), where `reasons` lacks it."""
    trees = {name: ast.parse(text) for name, text in sources.items() if name != "__init__.py"}
    called = set().union(*map(callers, trees.values()))
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    found = []
    for name, tree in trees.items():
        defined = {node.name for node in tree.body
                   if isinstance(node, ast.FunctionDef | ast.ClassDef)}
        defined |= {value for node in tree.body if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                    for value in ast.literal_eval(node.value)}
        unused = (defined - called) | {f"{cls}.{m}" for cls, m in methods(tree) if m not in read}
        found += [f"{name}: {d}" for d in unused if f"{name}: {d}" not in reasons]
    return sorted(found)


# Exports that nothing in the package calls, each with the reason it stays.
UNCALLED_EXPORTS = {
    "codec.py: encode": "the scalar reference the bulk encode is checked against",
    "codec.py: dual_encode": "the scalar reference of the dual code's encode",
    "codec.py: collect": "the scalar reference the bulk decode is checked against",
    "repair.py: apply_repair": "the scalar reference protocol the bulk repair is checked against",
    "repair.py: phase1_messages": "the helper side of the scalar reference protocol",
    "linalg.py: first_singular_minor": "perfbench's linalg.minor_enum_s reads it (ROADMAP item 5)",
    "cluster.py: Cluster.node_symbols_bytes": "perfbench and the tests read a shard's bytes",
}


def test_unreferenced_definition_is_detected():
    sources = {"a.py": "__all__ = ['public']\ndef public(): pass\ndef _helper(): pass\n"
                       "def _unused(): pass\nclass Shape: pass\ndef area(s: Shape): pass\n",
               "b.py": "from . import a as a_mod\nfrom .a import _helper\n"
                       "a_mod.area(a_mod.public())\n"}
    assert unreferenced_definitions(sources, {}) == ["a.py: _unused"]


def test_export_without_a_caller_is_detected():
    # str.encode is no caller of codec.encode, nor is the re-export in __init__.py.
    sources = {"codec.py": "__all__ = ['encode', 'collect']\ndef encode(): pass\n"
                           "def collect(): pass\n",
               "cli.py": "import json\nfrom . import codec\njson.dumps({}).encode()\n"
                         "codec.collect()\n",
               "__init__.py": "from .codec import collect, encode\n__all__ = ['encode']\n"}
    assert unreferenced_definitions(sources, {}) == ["codec.py: encode"]
    assert unreferenced_definitions(sources, {"codec.py: encode": "a reason"}) == []


def test_method_without_a_reader_is_detected():
    # Any `.name` read counts, `self.` or not, a property's too; a dunder method needs none.
    sources = {"a.py": "class Box:\n    def __len__(self): return 0\n"
                       "    @property\n    def size(self): return self.fill()\n"
                       "    def fill(self): return 1\n    def spill(self): pass\n",
               "b.py": "from .a import Box\nprint(Box().size)\n"}
    assert unreferenced_definitions(sources, {}) == ["a.py: Box.spill"]
    sources["b.py"] += "Box().spill()\n"
    assert unreferenced_definitions(sources, {}) == []


def test_every_definition_is_used_or_exported():
    # Aim: no helper or export that nothing in the package runs, but the listed ones.
    sources = {p.name: p.read_text() for p in MODULES}
    assert unreferenced_definitions(sources, UNCALLED_EXPORTS) == []
    # Each listed reason still names an export that has no caller.
    assert unreferenced_definitions(sources, {}) == sorted(UNCALLED_EXPORTS)


# Names of the v4 layout's sizes (and of the per-node list the node store replaced) that the
# CLI leaves to mscr.cluster: `block_count`, `shard_bytes` and `Cluster.planes`.
LAYOUT_NAMES = {"block_size", "symbol_bytes", "plane_words", "node_data"}

# A field's log and exp tables, and the name of the array copy linalg kept before FieldSpec
# owned it (`_tables`): galois alone names them, everything else goes through a FieldSpec
# method (`mul_int`, `product_tables`, ...) or a Matrix.
TABLE_NAMES = {"_exp", "_log", "_tables"}
TABLE_MODULES = ("galois.py",)


def names_in(source: str, names: set[str]) -> list[str]:
    """The names of `names` a module's code names: a variable, an attribute or an import."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name)
    return sorted(found & names)


def test_layout_name_is_detected():
    source = ("from . import cluster as cluster_mod\nfrom .x import plane_words as pw\n"
              "size = 8 * params.k * params.field.degree * cluster_mod.plane_words(n, params)\n"
              "nblocks = -(-n // (params.block_size * params.field.symbol_bytes))\n"
              "payloads = [p.tobytes() for p in c.node_data]  # block_size: a comment\n")
    assert names_in(source, LAYOUT_NAMES) == ["block_size", "node_data", "plane_words",
                                              "symbol_bytes"]
    assert names_in("size = cluster_mod.shard_bytes(n, params)  # not plane_words\n",
                    LAYOUT_NAMES) == []


def test_cli_leaves_the_layout_to_the_cluster():
    # One home for the layout: the CLI asks mscr.cluster for every block, word and shard size.
    assert names_in((SRC / "cli.py").read_text(), LAYOUT_NAMES) == []


def test_table_read_is_detected():
    source = ("from .linalg import _tables\nexp, log = _tables(spec)\n"
              "value = field._exp[field._log[a] + field._log[b]]\n")
    assert names_in(source, TABLE_NAMES) == ["_exp", "_log", "_tables"]
    assert names_in("value = field.mul_int(a, b)  # not field._exp\n", TABLE_NAMES) == []
    # linalg's pivot logs: through FieldSpec's arrays, not galois's lists as it once read them.
    assert names_in("lp = spec._log[column[piv]]\n", TABLE_NAMES) == ["_log"]
    assert names_in("exp, log = spec.product_tables()\nlp = int(log[v])\n", TABLE_NAMES) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in TABLE_MODULES],
                         ids=lambda p: p.name)
def test_only_galois_and_linalg_read_the_field_tables(path):
    # One home for the tables: galois builds them and alone names them.  linalg's whole-array
    # products read them too, but only through FieldSpec.product_tables.
    assert names_in(path.read_text(), TABLE_NAMES) == []


def foreign_imports(source: str) -> list[str]:
    """Top-level packages a module imports, anywhere in it, that ALLOWED_IMPORTS lacks."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # not relative
            names.add(node.module.split(".")[0])
    return sorted(names - ALLOWED_IMPORTS)


def test_foreign_import_is_detected():
    source = "import json\nfrom numpy import uint8\nfrom . import galois\n"
    assert foreign_imports(source) == []
    assert foreign_imports(source + "def f():\n    import scipy.linalg\n") == ["scipy"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_mscr(path):
    assert foreign_imports(path.read_text()) == []


THREAD_MODULES = ("threading", "concurrent.futures")


def thread_imports(source: str) -> list[str]:
    """The modules of THREAD_MODULES a module imports, anywhere in it, itself or in part."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # not relative
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return sorted({m for m in THREAD_MODULES for name in names
                   if name == m or name.startswith(m + ".")})


def test_thread_import_is_detected():
    source = "import json\nfrom . import threading\nfrom concurrent import interpreters\n"
    assert thread_imports(source) == []
    assert thread_imports(source + "def f():\n    import threading\n") == ["threading"]
    for line in ("from concurrent import futures", "import concurrent.futures.thread",
                 "from concurrent.futures import ThreadPoolExecutor as Pool"):
        assert thread_imports(source + line + "\n") == ["concurrent.futures"], line


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_only_the_cli_starts_threads(path):
    # The digest worker is the CLI's: the library and the bulk path stay single-threaded.
    assert thread_imports(path.read_text()) == []


def error_printers(source: str) -> list[str]:
    """Top-level functions of a module that pass a string starting `error:` to a call."""
    names = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and node.args:
                first = node.args[0]
                if isinstance(first, ast.JoinedStr) and first.values:
                    first = first.values[0]
                if isinstance(first, ast.Constant) and str(first.value).startswith("error:"):
                    names.add(getattr(top, "name", "<module>"))
    return sorted(names)


def test_error_printer_is_detected():
    source = ("def main():\n    print(f'error: {1}')\n"
              "def cmd(parser):\n    parser.error('bad')\n    print('error: x')\n")
    assert error_printers(source) == ["cmd", "main"]


def test_only_main_prints_cli_errors():
    # One boundary: commands raise, and main alone turns that into an `error:` line.
    assert error_printers((SRC / "cli.py").read_text()) == ["main"]
