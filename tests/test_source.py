import ast
from pathlib import Path

import excount


def _raises_assertion_error(node: ast.AST) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements():
    """Invariants raise explicit exceptions, which `python -O` keeps."""
    sources = sorted(Path(excount.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert) or _raises_assertion_error(node)
    ]
    assert found == []
