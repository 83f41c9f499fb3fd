import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from excount.asymptotics import crossover_scan
from excount.edgelist import format_edgelist, parse_edgelist, read_edgelist, write_edgelist
from excount.graphs import GraphError, complete_bipartite, make_graph, path_graph
from excount.oracle import DEFAULT_BUDGET, DEFAULT_WITNESSES, ex_bip_oracle, ex_oracle
from excount.reporting import emit_report
from excount.transform import run_transformation
from excount.cli import build_parser, main


@st.composite
def canonical_edgelists(draw, nmax=12):
    n = draw(st.integers(0, nmax))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = sorted(draw(st.sets(st.sampled_from(pairs))) if pairs else ())
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


# header values stay small: any n up to MAX_VERTICES is taken as given
_GARBAGE_TOKENS = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["#", "# c", "x", "1.5", "0x1", "1e2", "--", "\u0661", "\x00"]),
)
_GARBAGE_LINES = st.lists(_GARBAGE_TOKENS, max_size=4).map(" ".join)


class TestEdgeList:
    def test_round_trip(self):
        g = make_graph(5, [(0, 3), (1, 2), (2, 4)])
        assert parse_edgelist(format_edgelist(g)) == g

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\n3 2\n0 1\n\n# another\n1 2\n"
        assert parse_edgelist(text) == make_graph(3, [(0, 1), (1, 2)])

    def test_header_edge_count_enforced(self):
        with pytest.raises(GraphError, match="promises"):
            parse_edgelist("3 2\n0 1\n")

    def test_bad_header(self):
        with pytest.raises(GraphError, match="header"):
            parse_edgelist("three two\n")

    @given(canonical_edgelists())
    @settings(max_examples=80, deadline=None)
    def test_round_trip_both_ways(self, text):
        g = parse_edgelist(text)
        assert format_edgelist(g) == text
        assert parse_edgelist(format_edgelist(g)) == g

    @given(st.lists(_GARBAGE_LINES, max_size=6).map("\n".join))
    @example("1_0 0")  # underscore digit grouping
    @example("\uff13 0")  # fullwidth 3
    @example("+3 1\n0 \u0662")  # sign, Arabic-Indic 2
    @example("-0 0")
    @settings(max_examples=200, deadline=None)
    def test_garbage_parses_or_raises_graph_error(self, text):
        try:
            g = parse_edgelist(text)
        except GraphError as exc:
            assert len(str(exc)) < 200
            return
        lines = [line.split() for line in text.splitlines() if not line.strip().startswith("#")]
        assert all(tok.isascii() and tok.isdigit() for line in lines for tok in line)
        assert parse_edgelist(format_edgelist(g)) == g

    @pytest.mark.parametrize("text, line", [
        ("1" * 5000 + " 0", 1),  # header too long for int()
        ("3 1\n0 " + "9" * 3000, 2),  # label far past n
    ])
    def test_long_token_error_is_short_and_names_the_line(self, text, line):
        with pytest.raises(GraphError) as info:
            parse_edgelist(text)
        message = str(info.value)
        assert len(message) < 200
        assert f"line {line}:" in message
        assert "…" in message

    @pytest.mark.parametrize("text, message", [
        ("3 2\n0 1\n\n1 3\n", "bad edge line 4: vertex 3 is not below n=3"),
        ("# c\n3 2\n0 1\n2 2\n", "bad edge line 4: loop (2, 2) is not allowed"),
        ("3 2\n0 1\n1 0\n", "bad edge line 3: duplicate edge (0, 1)"),
        ("3 1\n0 1 2\n", "bad edge line 2: expected 'u v', found 3 fields"),
        ("3 1\n0 x\n", "bad edge line 2: 'x' is not a plain decimal"),
        ("\n3 1 0\n", "bad header on line 2: expected 'n e', found 3 fields"),
    ])
    def test_error_names_the_line_at_fault(self, text, message):
        with pytest.raises(GraphError) as info:
            parse_edgelist(text)
        assert str(info.value) == message

    def test_file_round_trip(self, tmp_path):
        g = make_graph(6, [(0, 5), (1, 2), (2, 4)])
        path = tmp_path / "g.txt"
        write_edgelist(g, path)
        assert path.read_text() == "6 3\n0 5\n1 2\n2 4\n"
        assert read_edgelist(path) == g

    def test_edgeless_vertices_cost_no_set_each(self):
        tracemalloc.start()
        try:
            g = parse_edgelist("100000 0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n == 100000 and g.degrees[-1] == 0 and g.adj[-1] == frozenset()
        assert peak < 8 * 2**20

    def test_header_vertex_count_capped(self, monkeypatch):
        monkeypatch.setattr("excount.edgelist.MAX_VERTICES", 5)
        assert parse_edgelist("5 0\n").n == 5
        with pytest.raises(GraphError, match="exceeds the limit 5"):
            parse_edgelist("6 0\n")


class TestReporting:
    def test_extremal_record_csv(self):
        rec = ex_bip_oracle(4, 3, path_graph(2), witnesses=1)
        text = emit_report([rec], format="csv")
        lines = text.strip().splitlines()
        assert lines[0] == "n,e,class,maximum,witness_edge_list"
        assert lines[1].startswith("4,3,bipartite,3,")

    def test_empty_report_has_header_only(self):
        assert emit_report([], format="csv", kind="scan").strip() == (
            "e,clique_count,star_count,leader"
        )

    def test_trace_rows_match_entry_count(self):
        g = complete_bipartite(2, 3)
        _, trace = run_transformation(g, 2)
        text = emit_report([trace], format="csv")
        assert len(text.strip().splitlines()) == 1 + len(trace.entries)

    def test_json_mirrors_csv_fields(self):
        scan = crossover_scan(2, 8, 4)
        payload = json.loads(emit_report([scan], format="json"))
        assert payload["kind"] == "scan"
        assert set(payload["rows"][0]) == {"e", "clique_count", "star_count", "leader"}

    def test_json_meta_follows_the_rows_with_sorted_keys(self):
        text = emit_report([crossover_scan(2, 4, 3)], "json", meta={"seed": 7, "alpha": "x"})
        rows = [
            {"e": e, "clique_count": c, "star_count": c, "leader": "tie"}
            for e, c in ((0, "0"), (3, "3"), (6, "12"))
        ]
        meta = {"alpha": "x", "seed": 7}
        assert text == json.dumps({"kind": "scan", "rows": rows, "meta": meta}, indent=2) + "\n"

    def test_meta_header_embeds_seed(self):
        text = emit_report([], format="csv", kind="extremal", meta={"seed": 42})
        assert text.splitlines()[0] == "# seed=42"

    def test_mixed_kinds_rejected(self):
        rec = ex_bip_oracle(4, 3, path_graph(2), witnesses=1)
        scan = crossover_scan(2, 8, 4)
        with pytest.raises(TypeError):
            emit_report([rec, scan])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="extremal, trace or scan"):
            emit_report([], kind="bogus")

    @pytest.mark.parametrize(
        "call, exc, message",
        [
            (lambda: emit_report([object()]), TypeError, "cannot report records of type object"),
            (lambda: emit_report([]), ValueError, "record kind is required for an empty report"),
            (lambda: emit_report([], format="xml", kind="extremal"), ValueError,
             "unknown format 'xml': expected csv or json"),
        ],
        ids=["non-record", "empty-without-kind", "format-xml"],
    )
    def test_argument_checks_raise(self, call, exc, message):
        with pytest.raises(exc) as info:
            call()
        assert info.type is exc and str(info.value) == message


# Exact report text: every column, every row, and the JSON value types
# (counts are strings so big integers survive, indices are numbers).
_GOLDEN_TRACE_HOST = make_graph(
    8, [(0, 3), (0, 4), (0, 5), (1, 4), (2, 3), (2, 4), (2, 6), (2, 7)]
)


def _golden_json(kind, rows):
    return json.dumps({"kind": kind, "rows": rows}, indent=2) + "\n"


class TestGoldenReports:
    def test_extremal(self):
        rec = ex_oracle(5, 4, path_graph(2))
        witnesses = "0-1 0-2 0-3 0-4|0-1 0-2 0-3 1-2|0-1 0-2 0-3 1-4"
        assert emit_report([rec], format="csv") == (
            "n,e,class,maximum,witness_edge_list\n"
            f"5,4,all,4,{witnesses}\n"
        )
        assert emit_report([rec], format="json") == _golden_json("extremal", [
            {"n": 5, "e": 4, "class": "all", "maximum": "4", "witness_edge_list": witnesses},
        ])

    def test_trace(self):
        _, trace = run_transformation(_GOLDEN_TRACE_HOST, 2)
        assert emit_report([trace], format="csv") == (
            "step_index,step_kind,star_count_k,star_count_2,columns\n"
            "0,start,13,13,4 3 1\n"
            "1,shift,14,14,4 3 1\n"
            "2,step1,16,16,2 2 2 1 1\n"
            "3,step2,18,18,2 2 1 1 1 1\n"
        )
        rows = [
            (0, "start", "13", "4 3 1"),
            (1, "shift", "14", "4 3 1"),
            (2, "step1", "16", "2 2 2 1 1"),
            (3, "step2", "18", "2 2 1 1 1 1"),
        ]
        assert emit_report([trace], format="json") == _golden_json("trace", [
            {"step_index": i, "step_kind": kind, "star_count_k": stars,
             "star_count_2": stars, "columns": columns}
            for i, kind, stars, columns in rows
        ])

    def test_scan(self):
        scan = crossover_scan(2, 8, 4)
        rows = [
            (0, "0", "0", "tie"),
            (4, "5", "6", "star"),
            (8, "19", "23", "star"),
            (12, "39", "41", "star"),
            (16, "65", "63", "clique"),
            (20, "95", "91", "clique"),
            (24, "126", "125", "clique"),
            (28, "168", "168", "tie"),
        ]
        assert emit_report([scan], format="csv") == (
            "e,clique_count,star_count,leader\n"
            + "".join(f"{e},{c},{s},{lead}\n" for e, c, s, lead in rows)
        )
        assert emit_report([scan], format="json") == _golden_json("scan", [
            {"e": e, "clique_count": c, "star_count": s, "leader": lead}
            for e, c, s, lead in rows
        ])


def _run_cli(args, module="excount.cli"):
    """Run `python -m module` in a fresh interpreter on this checkout's sources; fail after 60 s."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


class TestCli:
    def test_construct_to_stdout(self, capsys):
        assert main(["construct", "--family", "quasi-bipartite", "--n", "8", "--e", "12"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "8 12"

    def test_construct_wide_quasi_star(self, capsys):
        # The quasi-star is built from its own edges, not as a complement of C(n, 2) pairs.
        assert main(["construct", "--family", "quasi-star", "--n", "100000", "--e", "3"]) == 0
        assert capsys.readouterr().out == "100000 3\n99996 99999\n99997 99999\n99998 99999\n"

    def test_construct_count_pipeline(self, tmp_path, capsys):
        host = tmp_path / "host.txt"
        main(["construct", "--family", "quasi-bipartite", "--n", "8", "--e", "12",
              "--out", str(host)])
        assert main(["count", "--host", str(host), "--kind", "stars", "--k", "2"]) == 0
        assert capsys.readouterr().out.strip() == "36"

    def test_count_copies(self, tmp_path, capsys):
        host = tmp_path / "host.txt"
        patt = tmp_path / "patt.txt"
        host.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
        patt.write_text("4 3\n0 1\n1 2\n2 3\n")
        assert main(["count", "--pattern", str(patt), "--host", str(host)]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_count_injective_homomorphisms(self, tmp_path, capsys):
        host = tmp_path / "host.txt"
        patt = tmp_path / "patt.txt"
        host.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
        patt.write_text("4 3\n0 1\n1 2\n2 3\n")
        assert main(["count", "--pattern", str(patt), "--host", str(host),
                     "--kind", "injhoms"]) == 0
        assert capsys.readouterr().out.strip() == "8"

    def test_transform_writes_trace(self, tmp_path, capsys):
        host = tmp_path / "host.txt"
        trace = tmp_path / "trace.csv"
        host.write_text("8 13\n" + "".join(
            f"{u} {v}\n"
            for u, v in sorted(
                (i, 4 + j) for i, a in enumerate((4, 4, 3, 2)) for j in range(a)
            )
        ))
        assert main(["transform", "--host", str(host), "--k", "2",
                     "--trace-out", str(trace)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "8 13"
        rows = trace.read_text().strip().splitlines()
        assert rows[0] == "step_index,step_kind,star_count_k,star_count_2,columns"
        assert rows[1].startswith("0,start,32,32,")

    def test_decompose_profile(self, tmp_path, capsys):
        patt = tmp_path / "p.txt"
        patt.write_text("4 3\n0 1\n1 2\n2 3\n")
        assert main(["decompose", "--pattern", str(patt), "--what", "profile"]) == 0
        assert capsys.readouterr().out.strip() == "1 1"

    @pytest.mark.parametrize(
        "what, edges, out, code",
        [
            ("star-partition", "6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n",
             "part center=0: 0 1\npart center=2: 2 3\npart center=4: 4 5\n", 0),
            ("star-partition", "7 6\n0 1\n1 2\n1 3\n3 4\n4 5\n4 6\n",
             "part center=1: 0 1 2\npart center=4: 3 4 5 6\n", 0),
            ("edge-star-cover", "6 4\n0 1\n0 2\n0 3\n4 5\n",
             "edge: 4 5\nstar center=0: 1 2 3\n", 0),
            ("edge-star-cover", "4 3\n0 1\n1 2\n2 3\n", "edge: 0 1\nedge: 2 3\n", 0),
            ("edge-star-cover", "4 3\n0 1\n1 2\n0 2\n", "no cover\n", 1),
        ],
        ids=["path-partition", "tree-partition", "star-and-edge", "matching", "no-cover"],
    )
    def test_decompose_output(self, tmp_path, capsys, what, edges, out, code):
        patt = tmp_path / "p.txt"
        patt.write_text(edges)
        assert main(["decompose", "--pattern", str(patt), "--what", what]) == code
        assert capsys.readouterr().out == out

    def test_oracle_csv(self, tmp_path, capsys):
        patt = tmp_path / "p.txt"
        patt.write_text("3 2\n0 1\n0 2\n")
        out = tmp_path / "rec.csv"
        assert main(["oracle", "--n", "8", "--e", "12", "--pattern", str(patt),
                     "--class", "bipartite", "--csv", str(out)]) == 0
        assert "maximum: 36" in capsys.readouterr().out
        assert out.read_text().splitlines()[1].startswith("8,12,bipartite,36,")

    def test_oracle_defaults_are_the_library_defaults(self):
        args = build_parser().parse_args(["oracle", "--n", "4", "--e", "3", "--pattern", "p"])
        assert (args.budget, args.witnesses) == (DEFAULT_BUDGET, DEFAULT_WITNESSES)

    def test_scan_crossover_csv(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(["scan-crossover", "--j", "2", "--n", "8", "--csv", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "e,clique_count,star_count,leader"
        assert len(rows) == 2 + 28  # header plus e = 0..28

    def test_verify_quick_reports_each_check(self, capsys):
        code = main(["--seed", "7", "verify", "--scale", "quick"])
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(lines) == 11
        assert code == 0
        assert not any(l.startswith("FAIL") for l in lines)

    def test_verify_exits_nonzero_on_a_failed_check(self, monkeypatch, capsys):
        import excount.verify as verify

        def failing(scale, seed):
            return verify.CheckResult("stub", False, "broken")

        monkeypatch.setattr(verify, "CHECKS", (("1", failing),))
        assert main(["verify", "--scale", "quick"]) == 1
        assert "FAIL stub: broken" in capsys.readouterr().out.splitlines()

    def test_oversized_header_reported_without_traceback(self, tmp_path):
        host = tmp_path / "host.txt"
        host.write_text("1000000000 0\n")
        proc = _run_cli(["count", "--host", str(host), "--kind", "stars", "--k", "2"])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: header vertex count 1000000000 exceeds")
        assert "Traceback" not in proc.stderr

    def test_edgeless_pattern_counts_in_one_path(self, tmp_path):
        # the pattern's 14 isolated vertices are not walked: one binomial
        # counts their automorphisms and their maps into the host
        host = tmp_path / "host.txt"
        patt = tmp_path / "patt.txt"
        patt.write_text("14 0\n")
        for n, copies in ((14, 1), (40, math.comb(40, 14))):
            write_edgelist(path_graph(n), host)
            proc = _run_cli(["count", "--pattern", str(patt), "--host", str(host), "--kind", "copies"])
            assert proc.returncode == 0
            assert proc.stdout == f"{copies}\n"

    def test_deep_pattern_reported_without_traceback(self, tmp_path):
        # the counter recurses once per pattern vertex with an edge, past the recursion limit
        host = tmp_path / "host.txt"
        patt = tmp_path / "patt.txt"
        write_edgelist(path_graph(1600), host)
        write_edgelist(path_graph(1500), patt)
        proc = _run_cli(["count", "--pattern", str(patt), "--host", str(host), "--kind", "copies"])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: pattern too deep for the backtracking counter (")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ["construct", "--family", "quasi-clique", "--e", "0"],
            ["transform", "--host", "{graph}"],
            ["oracle", "--e", "0", "--pattern", "{graph}"],
        ],
        ids=["construct", "transform", "oracle"],
    )
    def test_vertex_count_capped(self, tmp_path, capsys, monkeypatch, args):
        monkeypatch.setattr("excount.edgelist.MAX_VERTICES", 5)
        graph = tmp_path / "graph.txt"
        graph.write_text("2 1\n0 1\n")
        args = [a.format(graph=graph) for a in args]
        assert main([*args, "--n", "5"]) == 0
        capsys.readouterr()
        assert main([*args, "--n", "6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --n 6 exceeds the vertex limit 5\n"

    @pytest.mark.parametrize(
        "args",
        [
            ["count", "--host", "{host}", "--kind", "stars"],
            ["count", "--host", "{host}", "--kind", "copies"],
            ["count", "--host", "{missing}", "--kind", "stars", "--k", "2"],
            ["count", "--host", "{host}", "--pattern", "{missing}"],
        ],
        ids=["stars-without-k", "copies-without-pattern", "missing-host", "missing-pattern"],
    )
    def test_usage_errors_exit_2(self, tmp_path, capsys, args):
        host = tmp_path / "host.txt"
        host.write_text("3 1\n0 1\n")
        paths = {"host": str(host), "missing": str(tmp_path / "absent.txt")}
        assert main([a.format(**paths) for a in args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_oracle_over_budget_exits_2(self, tmp_path, capsys):
        pattern = tmp_path / "s2.txt"
        pattern.write_text("3 2\n0 1\n0 2\n")
        args = ["oracle", "--n", "10", "--e", "20", "--budget", "1000", "--pattern", str(pattern)]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            "error: enumeration needs 3169870830126 hosts, above the budget of 1000; "
            "raise the budget to force the run\n"
        )

    def test_oracle_negative_witnesses_exits_2(self, tmp_path, capsys):
        pattern = tmp_path / "p3.txt"
        pattern.write_text("3 2\n0 1\n1 2\n")
        args = ["oracle", "--n", "5", "--e", "4", "--pattern", str(pattern), "--witnesses", "-2"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: witness count must be non-negative, got -2\n"

    def test_reproducible_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["scan-crossover", "--j", "2", "--n", "7", "--csv", str(a)])
        main(["scan-crossover", "--j", "2", "--n", "7", "--csv", str(b)])
        assert a.read_text() == b.read_text()

    def test_console_script_entry(self):
        for module in ("excount.cli", "excount"):
            proc = _run_cli(["construct", "--family", "quasi-clique", "--n", "5", "--e", "10"], module)
            assert proc.returncode == 0
            assert proc.stdout.splitlines()[0] == "5 10"
