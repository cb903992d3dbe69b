"""The library defines no exception classes of its own but one.

A stdlib ``ast`` scan, as in ``test_imports.py``: callers catch plain
``ValueError`` and ``TypeError``, so a new exception class is a public name
that no caller needs.  The one exception is ``cli.BadArgument``, which
argparse needs as an ``ArgumentTypeError`` to show its message.
"""

import ast
import builtins
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hookcomb"
ALLOWED = {("cli", "BadArgument")}


def exception_classes(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, class) for each class in ``sources`` (module name -> source)
    that derives from ``BaseException``: through a builtin, a class of an
    imported module such as ``argparse.ArgumentTypeError``, or another
    class found here."""
    classes = {
        (module, node.name): node
        for module, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
    }
    local = {name: (module, name) for module, name in classes}

    def is_exception(base: ast.expr, seen: frozenset) -> bool:
        if isinstance(base, ast.Name):
            if base.id in local and local[base.id] not in seen:
                key = local[base.id]
                return any(is_exception(b, seen | {key}) for b in classes[key].bases)
            found = getattr(builtins, base.id, None)
        elif isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            try:
                found = getattr(importlib.import_module(base.value.id), base.attr, None)
            except ImportError:
                return False
        else:
            return False
        return isinstance(found, type) and issubclass(found, BaseException)

    return sorted(key for key, node in classes.items() if any(is_exception(b, frozenset([key])) for b in node.bases))


def test_the_scan_finds_exception_classes():
    sources = {
        "a": "import argparse\nclass A(ValueError): pass\nclass B(A): pass\nclass C: pass\n",
        "b": "import argparse\nclass D(argparse.ArgumentTypeError): pass\nclass E(int): pass\nclass F(B, E): pass\n",
    }
    assert exception_classes(sources) == [("a", "A"), ("a", "B"), ("b", "D"), ("b", "F")]


def test_the_only_exception_class_is_bad_argument():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert set(exception_classes(sources)) == ALLOWED
