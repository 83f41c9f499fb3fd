"""CSV and JSON emission with stable column orders.

Integers are rendered in full decimal, never scientific notation, and the
JSON form mirrors the CSV fields one to one. Randomized experiments embed
their seed through the optional metadata header.
"""
from __future__ import annotations

import csv
import io
import json
from typing import Iterable, Sequence

from .asymptotics import DensityScan
from .oracle import ExtremalRecord
from .transform import Trace

_COLUMNS = {
    "extremal": ["n", "e", "class", "maximum", "witness_edge_list"],
    "trace": ["step_index", "step_kind", "star_count_k", "star_count_2", "columns"],
    "scan": ["e", "clique_count", "star_count", "leader"],
}


def edge_text(edges: Iterable[tuple[int, int]]) -> str:
    """Edges as "u-v" tokens in sorted order, separated by spaces."""
    return " ".join(f"{u}-{v}" for u, v in sorted(edges))


def _rows_of(record) -> tuple[str, list[tuple]]:
    """The record's kind and its rows, each a tuple in `_COLUMNS[kind]` order."""
    if isinstance(record, ExtremalRecord):
        witness_text = "|".join(edge_text(w.edges) for w in record.witnesses)
        return "extremal", [
            (record.n, record.e, record.host_class, str(record.maximum), witness_text)
        ]
    if isinstance(record, Trace):
        return "trace", [
            (idx, entry.kind, str(entry.stars_k), str(entry.stars_2),
             " ".join(str(c) for c in entry.columns))
            for idx, entry in enumerate(record.entries)
        ]
    if isinstance(record, DensityScan):
        return "scan", [
            (e, str(clique), str(star),
             "clique" if clique > star else "star" if star > clique else "tie")
            for e, clique, star in record.samples
        ]
    raise TypeError(f"cannot report records of type {type(record).__name__}")


def emit_report(
    records: Sequence[ExtremalRecord | Trace | DensityScan],
    format: str = "csv",
    kind: str | None = None,
    meta: dict | None = None,
) -> str:
    """Render records as CSV or JSON text.

    All records must be of one kind; pass kind explicitly ("extremal",
    "trace" or "scan") to emit a header for an empty sequence.
    """
    rows: list[tuple] = []
    for record in records:
        record_kind, record_rows = _rows_of(record)
        if kind is None:
            kind = record_kind
        elif kind != record_kind:
            raise TypeError(f"mixed record kinds: {kind} and {record_kind}")
        rows.extend(record_rows)
    if kind is None:
        raise ValueError("record kind is required for an empty report")
    if kind not in _COLUMNS:
        raise ValueError(f"unknown record kind {kind!r}: expected extremal, trace or scan")
    columns = _COLUMNS[kind]
    if format == "csv":
        out = io.StringIO()
        if meta:
            for key in sorted(meta):
                out.write(f"# {key}={meta[key]}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        return out.getvalue()
    if format == "json":
        payload: dict = {"kind": kind, "rows": [dict(zip(columns, row)) for row in rows]}
        if meta:
            payload["meta"] = {k: meta[k] for k in sorted(meta)}
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown format {format!r}: expected csv or json")
