"""Rules the package's source code keeps, checked on its syntax trees."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "perilame"


def test_no_assert_statements():
    # a violated precondition raises an exception that python -O cannot strip
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements in src/perilame: {found}"
