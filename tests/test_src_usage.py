"""Every function and method in src/ has a caller in src/ (or in perfbench),
and every module in src/ and tests/ uses each name it imports.

A helper only the tests call belongs in tests/oracles.py.  The check is by
name: a definition counts as used when some ``ast.Name``, ``ast.Attribute``
or import in src/hyperweave names it outside the definition's own body, or
when the name occurs in perfbench/*.py.  It cannot see a method whose name a
builtin shares (``items``, ``get``, ``add``, ...): any ``d.items()`` in src/
counts as a use.  Dunder methods are exempt.  An imported name counts as
used when some ``ast.Name`` in its module reads it; ``__init__.py``
re-exports and ``from __future__`` imports are exempt.
"""

import ast
import collections
import pathlib
import re

import hyperweave

SRC = pathlib.Path(hyperweave.__file__).parent
PERFBENCH = SRC.parent.parent / "perfbench"
TESTS = pathlib.Path(__file__).parent


def _uses(tree) -> collections.Counter:
    """How often Name, Attribute and import nodes in tree use each name."""
    used = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(a.name.split(".")[-1] for a in node.names)
    return used


def unused_definitions(src_dir: pathlib.Path, extra_text: str = "") -> list:
    """(file, line, name) of each function or method defined in src_dir
    whose name nothing in src_dir uses outside its own body and that does
    not occur as a word of extra_text."""
    trees = {p.name: ast.parse(p.read_text(), str(p))
             for p in sorted(src_dir.glob("*.py"))}
    total = sum(map(_uses, trees.values()), collections.Counter())
    extra = set(re.findall(r"\w+", extra_text))
    out = []
    for fname, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__") or name in extra:
                continue
            if total[name] == _uses(node)[name]:
                out.append((fname, node.lineno, name))
    return sorted(out)


def test_every_src_function_has_a_src_caller():
    perfbench = "\n".join(p.read_text()
                          for p in sorted(PERFBENCH.glob("*.py")))
    assert unused_definitions(SRC, perfbench) == []


def test_guard_sees_a_test_only_helper(tmp_path):
    (tmp_path / "m.py").write_text(
        "def used(x):\n    return helper_only(x) if x else used(x - 1)\n"
        "def helper_only(x):\n    return helper_only(x)\n"
        "def lonely():\n    return lonely()\n"
        "class C:\n    def __init__(self):\n        pass\n"
        "    def meth(self):\n        return self.meth()\n"
        "    def named_in_bench(self):\n        pass\n")
    (tmp_path / "n.py").write_text("from m import used\nused(1)\n")
    assert unused_definitions(tmp_path, "x.named_in_bench") == [
        ("m.py", 5, "lonely"), ("m.py", 10, "meth")]


def unused_imports(dirs) -> list:
    """(file, line, name) of each name a module in dirs imports and never
    reads; __init__.py and from __future__ imports are skipped."""
    out = []
    for d in dirs:
        for p in sorted(d.glob("*.py")):
            if p.name == "__init__.py":
                continue
            tree = ast.parse(p.read_text(), str(p))
            read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [a.asname or a.name.split(".")[0]
                             for a in node.names]
                elif (isinstance(node, ast.ImportFrom)
                      and node.module != "__future__"):
                    names = [a.asname or a.name for a in node.names]
                else:
                    continue
                out += [(p.name, node.lineno, n)
                        for n in names if n not in read]
    return sorted(out)


def test_every_import_is_used():
    assert unused_imports([SRC, TESTS]) == []


def test_guard_sees_an_unused_import(tmp_path):
    (tmp_path / "__init__.py").write_text("from os import sep\n")
    (tmp_path / "m.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\nimport re as regex\nimport sys\n"
        "from json import dumps, loads as load\n"
        "def f(x: sys.version) -> None:\n    return os.path.join(dumps(x))\n")
    assert unused_imports([tmp_path]) == [
        ("m.py", 3, "regex"), ("m.py", 5, "load")]
