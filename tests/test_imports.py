"""Every name that a module of the package imports is used in that module.
The package's __init__ imports names only to re-export them, so it is not
checked."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mompoly"


def unused_imports(source: str) -> list[str]:
    """The names that the module text imports and never reads, sorted;
    `from __future__` imports are not names."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_each_kind_of_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nimport json as j\n"
              "from fractions import Fraction, gcd as g\n"
              "print(os.sep, Fraction)\n")
    assert unused_imports(source) == ["g", "j", "math"]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_modules_use_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
