"""The README's Library block runs, and each comment after a statement in it
is the repr of the statement's value: of the expression, or of the name an
assignment binds."""

import ast
import io
import re
import tokenize
from pathlib import Path

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
