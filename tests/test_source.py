import ast
from pathlib import Path

import excount


def test_no_assert_statements():
    """Invariants raise explicit exceptions, which `python -O` keeps."""
    sources = sorted(Path(excount.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
