"""The README's Library block runs, and each comment after a statement in it
is the repr of the statement's value: of the expression, or of the name an
assignment binds. Every backticked dotted name in the README resolves,
and none has a part that starts with `_`."""

import ast
import importlib
import io
import pkgutil
import re
import sys
import tokenize
from fractions import Fraction
from pathlib import Path

import pytest

import mompoly

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library\n.*?^```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no ## Library python block"
    return match.group(1)


def trailing_comments(source: str) -> dict[int, str]:
    """The text of each comment that follows code on its line, by line number."""
    out = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT and tok.line[:tok.start[1]].strip():
            out[tok.start[0]] = tok.string[1:].strip()
    return out


def test_library_block_values():
    source = library_block()
    comments = trailing_comments(source)
    namespace: dict = {}
    checked = 0
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                value = namespace[node.targets[0].id]
        expected = comments.pop(node.end_lineno, None)
        if expected is None:
            continue
        assert isinstance(node, (ast.Expr, ast.Assign)), ast.unparse(node)
        assert repr(value) == expected, ast.unparse(node)
        checked += 1
    assert comments == {}, "comments after no statement's last line"
    assert checked >= 5


# A backticked dotted name, such as `Analysis.fixpoints` or `fractions.Fraction`.
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(mompoly.__path__)
                    if not m.name.startswith("_"))


def resolve(dotted: str):
    """The object a dotted README name stands for. Its first part is a
    `mompoly` attribute, a `mompoly` submodule, a public name of a
    submodule or a standard-library module, tried in that order; each
    later part is read with getattr. Raises LookupError or AttributeError
    when a part does not resolve."""
    first, *rest = dotted.split(".")
    modules = [importlib.import_module(f"mompoly.{m}") for m in SUBMODULES]
    owners = [m for m in modules if not first.startswith("_") and hasattr(m, first)]
    if hasattr(mompoly, first):
        obj = getattr(mompoly, first)
    elif first in SUBMODULES:
        obj = importlib.import_module(f"mompoly.{first}")
    elif owners:
        obj = getattr(owners[0], first)
    elif first in sys.stdlib_module_names:
        obj = importlib.import_module(first)
    else:
        raise LookupError(f"{first!r} is no name of mompoly or the standard library")
    for part in rest:
        obj = getattr(obj, part)
    return obj


def test_readme_dotted_names_resolve():
    """Every backticked dotted name resolves, and none names a private
    routine: the README speaks of what a user calls, and leaves the
    engine's inner routines to the module docstrings."""
    names = sorted(set(DOTTED.findall(README.read_text(encoding="utf-8"))))
    assert len(names) >= 10
    for name in names:
        resolve(name)
    assert [name for name in names if any(part.startswith("_") for part in name.split("."))] == []


def test_resolve_fails_on_a_removed_name(monkeypatch):
    assert resolve("Stratum.dimension") is mompoly.kaehler.Stratum.dimension
    assert resolve("fractions.Fraction") is Fraction
    for retired in ("Edge.contains", "XRay.fixpoints", "Analysis.wall_types", "no_such.name",
                    "XRay", "Stratum.segment", "Stratum.scale", "difftype.diffeo",
                    "difftype.bundle_type", "polygon.hull_of_form", "Polygon._from_form"):
        with pytest.raises((AttributeError, LookupError)):
            resolve(retired)
    monkeypatch.delattr(mompoly.polygon, "t_hull")
    with pytest.raises(AttributeError):
        resolve("polygon.t_hull")
