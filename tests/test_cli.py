import json
import subprocess
import sys

import pytest

from excount.asymptotics import crossover_scan
from excount.edgelist import format_edgelist, parse_edgelist
from excount.graphs import GraphError, complete_bipartite, make_graph, path_graph
from excount.oracle import ex_bip_oracle
from excount.reporting import emit_report
from excount.transform import run_transformation
from excount.cli import main


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

    def test_meta_header_embeds_seed(self):
        text = emit_report([], format="csv", kind="extremal", meta={"seed": 42})
        assert text.splitlines()[0] == "# seed=42"

    def test_mixed_kinds_rejected(self):
        rec = ex_bip_oracle(4, 3, path_graph(2), witnesses=1)
        scan = crossover_scan(2, 8, 4)
        with pytest.raises(TypeError):
            emit_report([rec, scan])


class TestCli:
    def test_construct_to_stdout(self, capsys):
        assert main(["construct", "--family", "quasi-bipartite", "--n", "8", "--e", "12"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "8 12"

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

    def test_oracle_csv(self, tmp_path, capsys):
        patt = tmp_path / "p.txt"
        patt.write_text("3 2\n0 1\n0 2\n")
        out = tmp_path / "rec.csv"
        assert main(["oracle", "--n", "8", "--e", "12", "--pattern", str(patt),
                     "--class", "bipartite", "--csv", str(out)]) == 0
        assert "maximum: 36" in capsys.readouterr().out
        assert out.read_text().splitlines()[1].startswith("8,12,bipartite,36,")

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
        import os
        import pathlib

        host = tmp_path / "host.txt"
        host.write_text("1000000000 0\n")
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "excount.cli", "count", "--host", str(host),
             "--kind", "stars", "--k", "2"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: header vertex count 1000000000 exceeds")
        assert "Traceback" not in proc.stderr

    def test_reproducible_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["scan-crossover", "--j", "2", "--n", "7", "--csv", str(a)])
        main(["scan-crossover", "--j", "2", "--n", "7", "--csv", str(b)])
        assert a.read_text() == b.read_text()

    def test_console_script_entry(self):
        import os
        import pathlib

        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "excount.cli", "construct", "--family",
             "quasi-clique", "--n", "5", "--e", "10"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "5 10"
