"""Every name that ``hookcomb`` exports has a caller outside the tests.

A stdlib ``ast`` and ``re`` scan, as in ``test_exceptions.py``: an exported
name passes if it appears as a whole word in a ``src/hookcomb`` module other
than ``__init__.py``, away from the lines that define it, in ``bench/`` or in
README.md.  A public name that only the tests reach is code kept for its own
sake, and goes.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hookcomb"


def exported_names(init_source: str) -> list[str]:
    """The names that the ``from ... import`` statements of ``init_source``
    re-export."""
    return [
        alias.asname or alias.name
        for node in ast.parse(init_source).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def definitions(source: str) -> dict[str, set[int]]:
    """Name -> the lines of ``source`` that define it: a def or class line,
    or an assignment to the name."""
    lines: dict[str, set[int]] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            assigned = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in assigned if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            lines.setdefault(name, set()).add(node.lineno)
    return lines


def names_without_caller(names: list[str], modules: list[str], texts: list[str]) -> list[str]:
    """The ``names`` that appear as a whole word neither in the ``modules``
    (Python sources) outside the lines that define them, nor in ``texts``."""
    sources = [(source.splitlines(), definitions(source)) for source in modules]

    def has_caller(name: str) -> bool:
        word = re.compile(rf"\b{re.escape(name)}\b")
        if any(word.search(text) for text in texts):
            return True
        return any(
            word.search(line)
            for lines, defined in sources
            for i, line in enumerate(lines, 1)
            if i not in defined.get(name, ())
        )

    return [name for name in names if not has_caller(name)]


def test_the_scan_finds_names_without_caller():
    modules = [
        "def used():\n    pass\n\ndef unused(x):\n    return x\n\nLIMIT = 3\n",
        "from .a import used\n\n\nclass Alone:\n    pass\n\n\ndef run():\n    return used()\n",
    ]
    texts = ["The README calls `documented()`; `undocumented_helper` is a longer word."]
    names = ["used", "unused", "LIMIT", "Alone", "documented", "undocumented"]
    assert names_without_caller(names, modules, texts) == ["unused", "LIMIT", "Alone", "undocumented"]


def test_every_export_has_a_caller():
    names = exported_names((SRC / "__init__.py").read_text())
    assert len(names) == len(set(names)) > 0
    modules = [path.read_text() for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    bench = sorted(path for path in (ROOT / "bench").rglob("*") if path.suffix in (".py", ".md"))
    texts = [path.read_text() for path in [*bench, ROOT / "README.md"]]
    assert names_without_caller(names, modules, texts) == []
