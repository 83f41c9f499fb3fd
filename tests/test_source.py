import ast
import sys
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


def test_imports_are_relative_or_stdlib_and_start_no_processes():
    """The runtime is stdlib-only, and no thread count can make it start processes."""
    sources = sorted(Path(excount.__file__).parent.glob("*.py"))
    modules = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.append((path.name, node.module))
    assert modules
    outside = [m for m in modules if m[1].partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []
    spawning = [m for m in modules if m[1].partition(".")[0] in ("concurrent", "multiprocessing")]
    assert spawning == []


# bench/tracer.py patches these names in the modules that import them, so
# they stay imported although the module itself never reads them.
TRACED_IMPORTS = {
    ("oracle.py", "are_isomorphic"),
    ("asymptotics.py", "quasi_clique"),
    ("asymptotics.py", "quasi_star"),
    ("asymptotics.py", "count_stars"),
    ("asymptotics.py", "inj_homs"),
}


def test_module_imports_are_used():
    """Every module-level import outside __init__.py is read by its module."""
    sources = sorted(Path(excount.__file__).parent.glob("*.py"))
    unused = set()
    for path in sources:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = [
            (alias.asname or alias.name).partition(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(path.name, name) for name in imported if name not in read}
    assert unused == TRACED_IMPORTS
