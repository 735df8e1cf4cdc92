"""Source hygiene of the package: no unused top-level import, no line over 100 characters,
no import from outside the standard library, numpy (the one dependency) and mscr, no thread
module imported outside the CLI, and no module-level function or class that nothing in the
package uses or exports.

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


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """`module: name` for each module-level function or class of `sources` (name -> text)
    that no module reads or imports and that its module's `__all__` does not list."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    found = []
    for name, tree in trees.items():
        exported = {value for node in tree.body if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                    for value in ast.literal_eval(node.value)}
        found += [f"{name}: {node.name}" for node in tree.body
                  if isinstance(node, ast.FunctionDef | ast.ClassDef)
                  and node.name not in used | exported]
    return sorted(found)


def test_unreferenced_definition_is_detected():
    sources = {"a.py": "__all__ = ['public']\ndef public(): pass\ndef _helper(): pass\n"
                       "def _unused(): pass\nclass Shape: pass\ndef area(s: Shape): pass\n",
               "b.py": "from .a import _helper\nimport a\na.area(None)\n"}
    assert unreferenced_definitions(sources) == ["a.py: _unused"]


def test_every_definition_is_used_or_exported():
    # Aim: no helper that nothing in the package uses.
    assert unreferenced_definitions({p.name: p.read_text() for p in MODULES}) == []


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
