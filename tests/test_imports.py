"""Every top-level import in the library and the tests is used.

A stdlib ``ast`` scan, as no linter is a dependency: a name a module
imports at its top level must appear in that module as a name, or in a
string annotation.  The package's ``__init__.py`` is exempt, since its
imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p for p in [*(ROOT / "src" / "hookcomb").glob("*.py"), *(ROOT / "tests").glob("*.py")] if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names that the top-level imports of ``source`` bind and that the
    module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        # a quoted annotation such as -> "WordAutomaton" reads the name too
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for n in ast.walk(annotation or ast.Pass()):
                if isinstance(n, ast.Constant) and isinstance(n.value, str):
                    used.update(m.id for m in ast.walk(ast.parse(n.value, mode="eval")) if isinstance(m, ast.Name))
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_the_scan_finds_an_unused_import():
    source = "import os\nimport sys\nfrom typing import Iterator, List\n\nx: 'Iterator[int]' = sys.argv\n"
    assert unused_imports(source) == ["line 1: os", "line 3: List"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []
