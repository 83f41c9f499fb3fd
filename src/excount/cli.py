"""Command-line entry point: construct, count, transform, decompose,
oracle, scan-crossover, and verify subcommands.

Graphs cross the boundary only in the shared edge-list format. Identical
flags and seed give byte-identical output.
"""
from __future__ import annotations

import argparse
import sys

from .asymptotics import crossover_scan
from .constructions import quasi_clique, quasi_complete_bipartite, quasi_star
from .counting import count_copies, count_stars, inj_homs
from .decomposition import edge_star_cover, star_factor_profile, star_partition, spanning_tree
from .edgelist import format_edgelist, read_edgelist
from .graphs import GraphError
from .oracle import DEFAULT_BUDGET, DEFAULT_WITNESSES, EnumerationBudgetError
from .oracle import ex_bip_oracle, ex_oracle, ex_trifree_oracle
from .reporting import edge_text, emit_report
from .transform import run_transformation
from .verify import run_verify_suite

_FAMILIES = {
    "quasi-clique": quasi_clique,
    "quasi-star": quasi_star,
    "quasi-bipartite": quasi_complete_bipartite,
}

_ORACLES = {
    "all": ex_oracle,
    "bipartite": ex_bip_oracle,
    "trifree": ex_trifree_oracle,
}


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_construct(args) -> int:
    G = _FAMILIES[args.family](args.n, args.e)
    _write_text(format_edgelist(G), args.out)
    return 0


def _cmd_count(args) -> int:
    host = read_edgelist(args.host)
    if args.kind == "stars":
        if args.k is None:
            raise ValueError("count --kind stars requires --k")
        print(count_stars(host, args.k))
        return 0
    if args.pattern is None:
        raise ValueError(f"count --kind {args.kind} requires --pattern")
    pattern = read_edgelist(args.pattern)
    value = count_copies(pattern, host) if args.kind == "copies" else inj_homs(pattern, host)
    print(value)
    return 0


def _cmd_transform(args) -> int:
    host = read_edgelist(args.host)
    endpoint, trace = run_transformation(host, args.k, args.n)
    if args.trace_out:
        _write_text(emit_report([trace], format=args.format, kind="trace"), args.trace_out)
    sys.stdout.write(format_edgelist(endpoint))
    return 0


def _cmd_decompose(args) -> int:
    pattern = read_edgelist(args.pattern)
    if args.what == "star-partition":
        sp = star_partition(spanning_tree(pattern))
        for part, center in zip(sp.parts, sp.centers):
            print(f"part center={center}: {' '.join(str(v) for v in sorted(part))}")
    elif args.what == "edge-star-cover":
        cover = edge_star_cover(pattern)
        if cover is None:
            print("no cover")
            return 1
        for u, v in sorted(cover.matching):
            print(f"edge: {u} {v}")
        if cover.star is not None:
            center, leaves = cover.star
            print(f"star center={center}: {' '.join(str(v) for v in sorted(leaves))}")
    else:
        print(" ".join(str(a) for a in star_factor_profile(pattern)))
    return 0


def _cmd_oracle(args) -> int:
    pattern = read_edgelist(args.pattern)
    record = _ORACLES[args.host_class](
        args.n,
        args.e,
        pattern,
        budget=args.budget,
        witnesses=args.witnesses,
        threads=args.threads,
    )
    print(f"maximum: {record.maximum}")
    for w in record.witnesses:
        print("witness: " + edge_text(w.edges))
    if args.csv:
        _write_text(emit_report([record], format=args.format, kind="extremal"), args.csv)
    return 0


def _cmd_scan(args) -> int:
    scan = crossover_scan(args.j, args.n, args.step)
    _write_text(emit_report([scan], format=args.format, kind="scan"), args.csv)
    print(f"crossover: e={scan.crossover_e}")
    if len(scan.sign_changes) > 1:
        print("sign changes: " + " ".join(str(e) for e in scan.sign_changes))
    return 0


def _cmd_verify(args) -> int:
    report = run_verify_suite(scale=args.scale, seed=args.seed)
    print(f"# scale={report.scale} seed={report.seed}")
    for result in report.results:
        status = "SKIP" if result.skipped else ("PASS" if result.passed else "FAIL")
        print(f"{status} {result.name}: {result.detail}")
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="excount",
        description="Exact subgraph counting and edge-budget extremal experiments",
    )
    parser.add_argument("--seed", type=int, default=42, help="seed for randomized sweeps")
    parser.add_argument("--threads", type=int, default=1, help="parallel oracle shards")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit one of the extremal families")
    p.add_argument("--family", choices=sorted(_FAMILIES), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("count", help="count a pattern in a host graph")
    p.add_argument("--pattern", default=None)
    p.add_argument("--host", required=True)
    p.add_argument("--kind", choices=("copies", "injhoms", "stars"), default="copies")
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("transform", help="rewrite a bipartite host to the optimum")
    p.add_argument("--host", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--trace-out", dest="trace_out", default=None)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("decompose", help="star partition, cover, or profile")
    p.add_argument("--pattern", required=True)
    p.add_argument(
        "--what",
        choices=("star-partition", "edge-star-cover", "profile"),
        default="star-partition",
    )
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("oracle", help="exhaustive maximum over hosts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--class", dest="host_class", choices=sorted(_ORACLES), default="all")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--witnesses", type=int, default=DEFAULT_WITNESSES)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("scan-crossover", help="compare the two families over e")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--csv", required=True)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("verify", help="run the acceptance checks")
    p.add_argument("--scale", choices=("quick", "full"), default="quick")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, EnumerationBudgetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
