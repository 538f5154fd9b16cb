"""Source-level rules for the package itself."""

import ast
from pathlib import Path

import revwiener

SRC = Path(revwiener.__file__).resolve().parent


def test_no_assert_in_src():
    # `python -O` strips asserts, so a check that guards a result must raise.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/revwiener: {', '.join(found)}"
