"""CLI subcommands: exit codes, JSON byte stability, and table rendering."""

import io
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sigmat import cli
from sigmat.graph import encode_graph6, parse_graph6
from sigmat.invariants import sigma_t
from sigmat.oracle import ConjectureReport, IdentitySummary
from tests.test_graph import complete, cycle, path, star

P4 = encode_graph6(path(4))       # "Ch"
K4 = encode_graph6(complete(4))   # "C~"


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(argv, log_level=None):
    """``sigmat`` in a child process, so SIGMAT_LOG really installs a stderr
    handler (under pytest the root logger already has handlers)."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    env.pop("SIGMAT_LOG", None)
    if log_level is not None:
        env["SIGMAT_LOG"] = log_level
    return subprocess.run([sys.executable, "-m", "sigmat.cli", *argv], capture_output=True,
                          env=env, timeout=120)


class TestCompute:
    def test_p4_json(self, capsys):
        code, out, _ = run(capsys, ["compute", "--graph6", P4])
        assert code == 0
        body = json.loads(out)
        assert body["sigmaT"] == 4 and body["sigma"] == 2
        assert body["variance"] == {"num": 1, "den": 4}

    def test_table(self, capsys):
        code, out, _ = run(capsys, ["compute", "--graph6", encode_graph6(cycle(6)), "--format", "table"])
        assert code == 0
        assert "sigmaT" in out
        lines = [l for l in out.splitlines() if l.startswith(("sigmaT", "sigma ", "albertsonIrr"))]
        assert all(line.split()[-1] == "0" for line in lines)

    def test_file_stream_is_jsonl(self, capsys, tmp_path):
        stream = tmp_path / "graphs.g6"
        stream.write_text(f"{P4}\n{K4}\n")
        code, out, _ = run(capsys, ["compute", "--file", str(stream)])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["sigmaT"] == 0

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{P4}\n"))
        code, out, _ = run(capsys, ["compute", "--stdin"])
        assert code == 0 and json.loads(out)["sigmaT"] == 4

    def test_skip_bad_lines(self, capsys, tmp_path):
        stream = tmp_path / "graphs.g6"
        stream.write_text(f"{P4}\nnot-a-graph!!\n{K4}\n")
        code, out, err = run(capsys, ["compute", "--file", str(stream), "--skip-bad-lines"])
        assert code == 0
        assert len(out.strip().splitlines()) == 2
        assert "line 2" in err

    def test_file_with_a_non_ascii_line(self, capsys, tmp_path):
        stream = tmp_path / "graphs.g6"
        stream.write_bytes(b"Ch\n\xff\nDhc\n")
        code, out, err = run(capsys, ["compute", "--file", str(stream), "--skip-bad-lines"])
        assert code == 0
        assert [json.loads(line)["n"] for line in out.strip().splitlines()] == [4, 5]
        assert err == "skipping line 2: non-ASCII byte in record (byte offset 0)\n"
        code, out, err = run(capsys, ["compute", "--file", str(stream)])
        assert code == 2 and len(out.strip().splitlines()) == 1
        assert err == "error: line 2: non-ASCII byte in record (byte offset 0)\n"

    def test_malformed_input_exits_2(self, capsys):
        code, _, err = run(capsys, ["compute", "--graph6", "C~~~~"])
        assert code == 2 and "error:" in err


class TestBounds:
    def test_p4_json_all_hold(self, capsys):
        code, out, _ = run(capsys, ["bounds", "--graph6", P4])
        assert code == 0
        checks = json.loads(out)
        assert len(checks) == 9
        assert all(c["holds"] for c in checks)
        by_id = {c["boundId"]: c for c in checks}
        assert by_id["tree-lower"]["equality"]

    def test_table_markers(self, capsys):
        code, out, _ = run(capsys, ["bounds", "--graph6", K4, "--format", "table"])
        assert code == 0
        assert "skip(graph is regular)" in out
        assert "✓" in out
        code, out, _ = run(capsys, ["bounds", "--graph6", P4, "--format", "table"])
        assert out.count("=") >= 3


class TestSpectral:
    def test_star4(self, capsys):
        code, out, _ = run(capsys, ["spectral", "--graph6", encode_graph6(star(4))])
        assert code == 0
        body = json.loads(out)
        assert body["laplacianEigenvalues"] == pytest.approx([0.0, 1.0, 1.0, 4.0], abs=1e-9)
        assert body["muN"] == pytest.approx(4.0)
        assert body["mu2"] == pytest.approx(1.0)


class TestExtremal:
    def test_split_n8(self, capsys):
        code, out, _ = run(capsys, ["extremal", "--family", "split", "--n", "8"])
        assert code == 0
        body = json.loads(out)
        assert body["x"] == 2 and body["value"] == 300
        g = parse_graph6(body["graph6"])
        assert sorted(g.degrees(), reverse=True) == [7, 7, 2, 2, 2, 2, 2, 2]

    def test_bipartite_n10_tie(self, capsys):
        code, out, _ = run(capsys, ["extremal", "--family", "bipartite", "--n", "10"])
        body = json.loads(out)
        assert body["tie"] is True and body["ties"] == [1, 2] and body["value"] == 576

    def test_star_and_path(self, capsys):
        _, out, _ = run(capsys, ["extremal", "--family", "star", "--n", "6"])
        assert json.loads(out)["sigmaT"] == 80
        _, out2, _ = run(capsys, ["extremal", "--family", "path", "--n", "7"])
        assert json.loads(out2)["sigmaT"] == 10

    def test_star_witness_in_long_form_graph6(self, capsys):
        code, out, err = run(capsys, ["extremal", "--family", "star", "--n", "100"])
        assert code == 0 and err == ""
        body = json.loads(out)
        assert body["graph6"].startswith("~?@c")  # 100 = 1 * 64 + 36
        assert parse_graph6(body["graph6"]) == star(100)
        assert body["sigmaT"] == sigma_t(star(100))

    def test_rejects_tiny_n(self, capsys):
        code, _, err = run(capsys, ["extremal", "--family", "split", "--n", "2"])
        assert code == 2 and "error" in err


class TestSearch:
    def test_connected_n4_max(self, capsys):
        code, out, _ = run(capsys, ["search", "--n", "4", "--objective", "max"])
        assert code == 0
        body = json.loads(out)
        assert body["extremeValue"] == 12 and body["tieCount"] == 4

    def test_tree_filter(self, capsys):
        code, out, _ = run(capsys, ["search", "--n", "6", "--objective", "min", "--filter", "tree"])
        body = json.loads(out)
        assert body["extremeValue"] == 8 and body["tieCount"] == 360

    def test_stream_search(self, capsys, tmp_path):
        stream = tmp_path / "in.g6"
        stream.write_text("".join(encode_graph6(star(n)) + "\n" for n in [5] * 3))
        code, out, _ = run(capsys, ["search", "--file", str(stream), "--objective", "max"])
        body = json.loads(out)
        assert body["extremeValue"] == 36 and body["graphsVisited"] == 3

    def test_needs_input_or_n(self, capsys):
        code, _, err = run(capsys, ["search", "--objective", "max"])
        assert code == 2 and "--n" in err

    def test_n8_limit(self, capsys):
        code, _, err = run(capsys, ["search", "--n", "8", "--objective", "max"])
        assert code == 2 and "error" in err


class TestConjecture:
    def test_id2_n6(self, capsys):
        code, out, _ = run(capsys, ["conjecture", "--id", "2", "--n", "6"])
        assert code == 0
        body = json.loads(out)
        assert body["status"] == "verified"
        assert body["equalityCount"] == 360
        assert all(
            sorted(parse_graph6(w).degrees()) == [1, 1, 2, 2, 2, 2]
            for w in body["equalityWitnesses"]
        )

    def test_id1_n5(self, capsys):
        code, out, _ = run(capsys, ["conjecture", "--id", "1", "--n", "5"])
        assert code == 0
        body = json.loads(out)
        assert body["status"] == "verified"
        assert body["maxValue"] == body["referenceValue"] == 36

    def test_id1_stream(self, capsys, tmp_path):
        from sigmat.extremal import make_complete_bipartite

        stream = tmp_path / "bip10.g6"
        stream.write_text(
            "".join(encode_graph6(make_complete_bipartite(a, 10 - a)) + "\n" for a in range(1, 6))
        )
        code, out, _ = run(capsys, ["conjecture", "--id", "1", "--n", "10", "--file", str(stream)])
        assert code == 0
        body = json.loads(out)
        assert body["maxValue"] == 576 and body["tieCount"] == 2

    def test_counterexample_exits_1(self, capsys, monkeypatch):
        fake = ConjectureReport(
            conjecture_id=1, n_range=(5, 5), status="counterexample",
            counterexamples=("D?{",), extremal_witnesses=("D?{",),
        )
        monkeypatch.setattr(cli, "verify_conjecture1", lambda n, graphs=None: fake)
        code, out, _ = run(capsys, ["conjecture", "--id", "1", "--n", "5"])
        assert code == 1
        assert json.loads(out)["status"] == "counterexample"

    def test_id2_rejects_stream(self, capsys):
        code, _, err = run(capsys, ["conjecture", "--id", "2", "--n", "5", "--graph6", P4])
        assert code == 2


class TestVerifyIdentities:
    def test_enumerated(self, capsys):
        code, out, _ = run(capsys, ["verify-identities", "--n", "4"])
        assert code == 0
        body = json.loads(out)
        assert body["checked"] == body["passed"] == 38

    def test_random_with_seed(self, capsys):
        code, out, _ = run(capsys, ["verify-identities", "--random", "50", "--n", "12", "--seed", "7"])
        assert code == 0
        body = json.loads(out)
        assert body["checked"] == 50 and body["seed"] == 7

    def test_failure_exits_1(self, capsys, monkeypatch):
        fake = IdentitySummary(checked=3, passed=2, failed=1, first_failure="Ch")
        monkeypatch.setattr(cli, "verify_identity_suite", lambda graphs, seed=None: fake)
        code, out, _ = run(capsys, ["verify-identities", "--n", "3"])
        assert code == 1

    def test_needs_some_input(self, capsys):
        code, _, err = run(capsys, ["verify-identities"])
        assert code == 2

    @pytest.mark.parametrize("count,n,message", [
        ("5", "0", "error: random graphs need n >= 1, got n=0\n"),
        ("5", "-3", "error: random graphs need n >= 1, got n=-3\n"),
        ("-2", "5", "error: random graph count must be >= 0, got -2\n"),
    ], ids=["n-zero", "n-negative", "count-negative"])
    def test_random_rejects_bad_arguments(self, capsys, count, n, message):
        code, out, err = run(capsys, ["verify-identities", "--random", count, "--n", n])
        assert code == 2 and out == ""
        assert err == message


class TestPlumbing:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["compute", "--graph6", P4, "--bogus"])
        assert info.value.code == 2

    def test_conflicting_inputs_exit_2(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["compute", "--graph6", P4, "--stdin"])
        assert info.value.code == 2

    def test_missing_command_exits_2(self):
        with pytest.raises(SystemExit) as info:
            cli.main([])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["search", "--n", "5", "--objective", "max"],
        ["search", "--n", "4", "--filter", "tree", "--objective", "max"],
        ["conjecture", "--id", "1", "--n", "4"],
        ["conjecture", "--id", "2", "--n", "4"],
    ], ids=["search", "search-tree", "conjecture-1", "conjecture-2"])
    def test_shards_flag_is_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            cli.main([*argv, "--shards", "2"])
        captured = capsys.readouterr()
        assert info.value.code == 2 and captured.out == ""
        assert "unrecognized arguments: --shards 2" in captured.err

    @pytest.mark.parametrize("argv", [
        ["compute", "--graph6", P4],
        ["spectral", "--graph6", P4],
        ["bounds", "--graph6", P4],
        ["search", "--n", "4", "--objective", "max"],
        ["extremal", "--family", "bipartite", "--n", "11"],
        ["conjecture", "--id", "2", "--n", "5"],
        ["verify-identities", "--n", "3"],
    ])
    def test_json_round_trips_to_identical_bytes(self, capsys, argv):
        code, out, _ = run(capsys, argv)
        assert code == 0
        for line in out.strip().splitlines():
            parsed = json.loads(line)
            assert cli.canonical_json(parsed) == line

    def test_log_env(self):
        for argv, line in [
            (["conjecture", "--id", "1", "--n", "4"],
             b"DEBUG:sigmat.oracle:conjecture 1 at n=4: max 12 vs bipartite 12 over 19 graphs\n"),
            (["conjecture", "--id", "2", "--n", "5"],
             b"DEBUG:sigmat.oracle:tree sweep at n=5: 125 trees in 1 chunks, "),
            (["search", "--n", "5", "--objective", "max"],
             b"DEBUG:sigmat.oracle:search at n=5, filter none: 1024 masks scanned, "
             b"728 graphs kept in 1 chunks, "),
            (["search", "--n", "6", "--objective", "min", "--filter", "triangle-free"],
             b"DEBUG:sigmat.oracle:search at n=6, filter triangle-free: 32768 masks scanned, "
             b"3571 graphs kept in 1 chunks, "),
        ]:
            plain = run_child(argv)
            logged = run_child(argv, "debug")
            assert plain.returncode == logged.returncode == 0
            assert plain.stderr == b""
            assert line in logged.stderr
            assert plain.stdout and logged.stdout == plain.stdout

    @pytest.mark.parametrize("argv", [
        ["compute", "--graph6", P4],
        ["bounds", "--graph6", P4],
        ["search", "--n", "5", "--objective", "max"],
        ["conjecture", "--id", "2", "--n", "6"],
    ])
    def test_debug_logging_leaves_stdout_unchanged(self, argv):
        plain = run_child(argv)
        logged = run_child(argv, "debug")
        assert plain.returncode == logged.returncode == 0
        assert plain.stdout and logged.stdout == plain.stdout

    def test_float_format_idempotent(self):
        for x in (0.1, 2 - 2 ** 0.5, 1 / 3, 123456.789012345, 1e-30):
            once = cli.format_float(x)
            assert cli.format_float(float(once)) == once


class TestInternalErrors:
    def test_failed_eigensolve_exits_3(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        code, out, err = run(capsys, ["spectral", "--graph6", P4])
        assert code == 3 and out == ""
        assert err == "error: internal: LinAlgError: Eigenvalues did not converge\n"

    def test_unexpected_exception_exits_3_with_debug_traceback(self, capsys, monkeypatch, caplog):
        def fail(n):
            raise ArithmeticError("closed form disagrees with the scan")

        monkeypatch.setattr(cli, "max_split_sigma_t", fail)
        caplog.set_level(logging.DEBUG, logger="sigmat.cli")
        code, out, err = run(capsys, ["extremal", "--family", "split", "--n", "8"])
        assert code == 3 and out == ""
        assert err == "error: internal: ArithmeticError: closed form disagrees with the scan\n"
        (record,) = [r for r in caplog.records if r.name == "sigmat.cli"]
        assert record.levelno == logging.DEBUG and record.exc_info[0] is ArithmeticError
