import ast
import pathlib

import mejump


def test_no_assert_statements_in_package():
    # ``python -O`` strips assert statements, so package checks must raise
    package = pathlib.Path(mejump.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
