"""Rules the library source keeps.

Invariants must survive ``python -O``, which strips ``assert`` statements,
so every check in ``src/circlet`` raises an error class instead.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "circlet"


def test_no_assert_statements():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"bare assert statements: {found}"
