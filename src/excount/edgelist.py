"""Plain-text edge-list format shared by every CLI command.

First non-comment line is "n e", followed by e lines "u v" with 0-based
labels, every number written in plain ASCII decimal digits. Blank lines
and lines starting with '#' are ignored.
"""
from __future__ import annotations

import os
from .graphs import Graph, GraphError, make_graph

MAX_VERTICES = 10**6


def _cut(tok: str) -> str:
    """tok for an error message: escaped as repr does, cut to 20 characters."""
    text = repr(tok)[1:-1]
    return text if len(text) <= 20 else text[:20] + "…"


def _label(tok: str) -> int:
    """A plain ASCII decimal: no sign, underscore or digit from another script."""
    if not (tok.isascii() and tok.isdigit()):
        raise ValueError(f"'{_cut(tok)}' is not a plain decimal")
    try:
        return int(tok)
    except ValueError:  # more digits than int() converts
        raise ValueError(f"'{_cut(tok)}' has too many digits") from None


def parse_edgelist(text: str) -> Graph:
    """Parse the edge-list format; a GraphError names the line at fault."""
    lines: list[tuple[int, list[str]]] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append((number, line.split()))
    if not lines:
        raise GraphError("edge list is empty: expected a header line 'n e'")
    number, header = lines[0]
    if len(header) != 2:
        raise GraphError(
            f"bad header on line {number}: expected 'n e', found {len(header)} fields"
        )
    try:
        n, e = _label(header[0]), _label(header[1])
    except ValueError as exc:
        raise GraphError(f"bad header on line {number}: {exc}") from exc
    if n > MAX_VERTICES:
        raise GraphError(
            f"header vertex count {_cut(header[0])} exceeds the limit {MAX_VERTICES}"
            f" on line {number}"
        )
    body = lines[1:]
    if len(body) != e:
        raise GraphError(f"header promises {_cut(header[1])} edges but {len(body)} lines follow")

    def edges():
        nonlocal number
        for number, parts in body:
            if len(parts) != 2:
                raise ValueError(f"expected 'u v', found {len(parts)} fields")
            u, v = _label(parts[0]), _label(parts[1])
            if u >= n or v >= n:
                bad = parts[0] if u >= n else parts[1]
                raise ValueError(f"vertex {_cut(bad)} is not below n={n}")
            yield u, v

    try:
        return make_graph(n, edges())
    except (GraphError, ValueError) as exc:  # GraphError: make_graph's loop and repeat checks
        raise GraphError(f"bad edge line {number}: {exc}") from exc


def format_edgelist(G: Graph) -> str:
    lines = [f"{G.n} {G.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in G.sorted_edges())
    return "\n".join(lines) + "\n"


def read_edgelist(path: str | os.PathLike) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edgelist(fh.read())


def write_edgelist(G: Graph, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edgelist(G))
