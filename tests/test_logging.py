"""The library logs through ``logging`` and never prints.

The one ``print`` allowed is in ``obtree.bench.main``, whose progress lines
go to stderr; the bench record is written to stdout or ``--out``, not printed.
"""

from __future__ import annotations

import ast
from pathlib import Path

import obtree

SOURCES = sorted(Path(obtree.__file__).parent.glob("*.py"))


def stray_prints(source: str, module: str) -> list[int]:
    """Lines of ``print`` calls other than ``bench.main``'s to stderr."""
    tree = ast.parse(source)
    allowed = set()
    if module == "bench":
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "main":
                allowed = {id(c) for c in ast.walk(node) if _is_print(c) and _to_stderr(c)}
    return sorted(c.lineno for c in ast.walk(tree) if _is_print(c) and id(c) not in allowed)


def _is_print(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "print")


def _to_stderr(call: ast.Call) -> bool:
    return any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr" for k in call.keywords)


def test_every_module_is_checked():
    assert {p.stem for p in SOURCES} >= {"bench", "evaluate", "model", "native", "oracle"}


def test_no_module_prints():
    found = {p.name: stray_prints(p.read_text(), p.stem) for p in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_stray_prints_are_found():
    source = (
        "import sys\n"
        "def main():\n"
        "    print('progress', file=sys.stderr)\n"
        "    print('record')\n"
        "    log = lambda m: print(m, file=sys.stderr)\n"
        "def helper():\n"
        "    print('x', file=sys.stderr)\n"
        "class Report:\n"
        "    def main(self):\n"
        "        print('y', file=sys.stderr)\n"
        "print('import time')\n"
    )
    assert stray_prints(source, "bench") == [4, 7, 10, 11]
    assert stray_prints(source, "evaluate") == [3, 4, 5, 7, 10, 11]
