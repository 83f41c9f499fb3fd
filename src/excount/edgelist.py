"""Plain-text edge-list format shared by every CLI command.

First non-comment line is "n e", followed by e lines "u v" with 0-based
labels, every number written in plain ASCII decimal digits. Blank lines
and lines starting with '#' are ignored.
"""
from __future__ import annotations

import os
from .graphs import Graph, GraphError, make_graph

MAX_VERTICES = 10**6


def _label(tok: str) -> int:
    """A plain ASCII decimal: no sign, underscore or digit from another script."""
    if not (tok.isascii() and tok.isdigit()):
        raise ValueError(f"{tok!r} is not a plain decimal")
    return int(tok)


def parse_edgelist(text: str) -> Graph:
    tokens: list[list[str]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens.append(line.split())
    if not tokens:
        raise GraphError("edge list is empty: expected a header line 'n e'")
    header = tokens[0]
    if len(header) != 2:
        raise GraphError(f"bad header {' '.join(header)!r}: expected 'n e'")
    try:
        n, e = _label(header[0]), _label(header[1])
    except ValueError as exc:
        raise GraphError(f"bad header {' '.join(header)!r}: expected plain decimal integers") from exc
    if n > MAX_VERTICES:
        raise GraphError(f"header vertex count {n} exceeds the limit {MAX_VERTICES}")
    body = tokens[1:]
    if len(body) != e:
        raise GraphError(f"header promises {e} edges but {len(body)} lines follow")
    edges = []
    for parts in body:
        if len(parts) != 2:
            raise GraphError(f"bad edge line {' '.join(parts)!r}: expected 'u v'")
        try:
            edges.append((_label(parts[0]), _label(parts[1])))
        except ValueError as exc:
            raise GraphError(f"bad edge line {' '.join(parts)!r}") from exc
    return make_graph(n, edges)


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
