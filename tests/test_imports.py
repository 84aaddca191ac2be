"""Every name that a module of the package imports is used in that module.
The package's __init__ imports names only to re-export them, so it is not
checked.  The engine imports without `dataclasses`, whose import pulls in
`inspect` and `ast`, and whose decorators exec generated methods for every
class."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import mompoly

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


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules that the module text imports."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.partition(".")[0])
    return out


def test_engine_imports_without_dataclasses_or_inspect():
    """A classify or enumerate process pays for its imports; the value
    types are built on namedtuple, which needs neither module."""
    for path in sorted(SRC.glob("*.py")):
        assert "dataclasses" not in imported_modules(path.read_text(encoding="utf-8")), path.name
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import mompoly.cli, mompoly.report; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-c", probe, str(SRC.parent)],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout == "[]\n"


def test_package_exports_names_not_modules():
    """`from mompoly import *` binds the engine's public names and none of
    its modules, which stay reachable as attributes of the package."""
    assert mompoly.__all__
    for name in mompoly.__all__:
        assert not isinstance(getattr(mompoly, name), ModuleType), name
    namespace: dict = {}
    exec("from mompoly import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(mompoly.__all__)
    assert importlib.import_module("mompoly.classify") is mompoly.classify
