import ast
import sys
from pathlib import Path

import excount
from excount.verify import CHECKS


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
    ("constructions.py", "complement"),
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


def _may_go_unread(module: str, function: str, parameter: str) -> bool:
    """The oracles' threads, which bench/workloads.py passes, and the (scale, seed) of CHECKS calls."""
    if module == "oracle.py" and function in ("ex_oracle", "ex_bip_oracle", "ex_trifree_oracle"):
        return parameter == "threads"
    checks = {check.__name__ for _, check in CHECKS}
    return module == "verify.py" and function in checks and parameter in ("scale", "seed")


def test_parameters_are_read():
    """Every parameter of every function is read by its body, so a dead knob cannot stay unnoticed."""
    sources = sorted(Path(excount.__file__).parent.glob("*.py"))
    unread = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                name.id
                for statement in body
                for name in ast.walk(statement)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
            }
            function = getattr(node, "name", "<lambda>")
            unread += [(path.name, function, p.arg) for p in params if p and p.arg not in read]
    assert len(sources) > 10
    assert [u for u in unread if not _may_go_unread(*u)] == []
