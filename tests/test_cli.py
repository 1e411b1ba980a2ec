"""CLI subcommands: exit codes, JSON byte stability, and table rendering."""

import contextlib
import enum
import importlib
import io
import json
import logging
import math
import multiprocessing
import os
import random
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from collections import namedtuple
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction
from functools import cache
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sigmat import bounds, bulk, cli, extremal, oracle, spectral, trees
from sigmat.graph import Graph, encode_graph6, is_connected, pair_order, parse_graph6
from sigmat.invariants import sigma_t
from sigmat.cli import canonical_json
from sigmat.oracle import ConjectureReport, IdentitySummary
from tests.reference import reference_json
from tests.test_graph import complete, cycle, path, seeded_graphs, star

P4 = encode_graph6(path(4))       # "Ch"
K4 = encode_graph6(complete(4))   # "C~"


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env(log_level=None):
    """The environment of a child ``sigmat``: this checkout's package, and
    SIGMAT_LOG set to ``log_level`` or unset."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    env.pop("SIGMAT_LOG", None)
    if log_level is not None:
        env["SIGMAT_LOG"] = log_level
    return env


def run_child(argv, log_level=None):
    """``sigmat`` in a child process, so SIGMAT_LOG really installs a stderr
    handler (under pytest the root logger already has handlers)."""
    return subprocess.run([sys.executable, "-m", "sigmat.cli", *argv], capture_output=True,
                          env=child_env(log_level), timeout=120)


# cli.main on the probe's arguments, then what the process loaded
IMPORT_PROBE = """
import contextlib, io, json, os, sys
from sigmat import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
task = "/proc/self/task"
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules,
                  "bulk": "sigmat.bulk" in sys.modules,
                  "logging": "logging" in sys.modules,
                  "multiprocessing": "multiprocessing" in sys.modules,
                  "sigmat": sorted(m[7:] for m in sys.modules if m.startswith("sigmat.")),
                  "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "threads": len(os.listdir(task)) if os.path.isdir(task) else 1}))
"""


def probe_imports(argv):
    """Run ``cli.main(argv)`` in a fresh interpreter with OPENBLAS_NUM_THREADS
    unset; returns the probe's report and stderr."""
    env = child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    child = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *argv], capture_output=True,
                           env=env, timeout=120)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout), child.stderr.decode()


# cli.main(argv[2:]) with the stream commands on a pool of two workers; with
# argv[1] nonzero, every eigensolve of a stack of that order fails, so the
# fault follows the input into whichever worker solves it. A worker still
# running when cli.main returns is reported on stderr.
POOL_DRIVER = """
import sys
from sigmat import cli
cli._worker_count = lambda: 2
fail_order = int(sys.argv[1])
if fail_order:
    import numpy as np
    eigvalsh = np.linalg.eigvalsh
    def eigvalsh_failing_at_one_order(a, *args, **kwargs):
        if a.shape[-1] == fail_order:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvalsh(a, *args, **kwargs)
    np.linalg.eigvalsh = eigvalsh_failing_at_one_order
code = cli.main(sys.argv[2:])
import multiprocessing
if multiprocessing.active_children():
    print("workers left running", file=sys.stderr)
sys.exit(code)
"""


def assert_group_is_empty(pgid):
    """No process is left in the process group ``pgid``: the benchmark
    refuses a run that leaves one. Any that is left is killed."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return
    os.killpg(pgid, signal.SIGKILL)
    pytest.fail(f"a process is left in the CLI's process group {pgid}")


def run_pool_child(tmp_path, argv, fail_order=0):
    """(exit code, stdout, stderr) of POOL_DRIVER in a process group of its
    own, after checking that no process of the group outlived it. Its output
    goes to files, so a worker left holding them cannot stall the test."""
    out, err = tmp_path / "stdout", tmp_path / "stderr"
    with open(out, "wb") as stdout, open(err, "wb") as stderr, \
            subprocess.Popen([sys.executable, "-c", POOL_DRIVER, str(fail_order), *argv],
                             stdout=stdout, stderr=stderr, env=child_env(),
                             start_new_session=True) as child:
        child.wait(timeout=120)
    assert_group_is_empty(child.pid)
    return child.returncode, out.read_text(), err.read_text()


@cache
def sparse_record(n, seed, density=0.01):
    """graph6 of a seeded random graph of order n and the given edge density."""
    rng = random.Random(seed)
    return encode_graph6(Graph(n, [(u, v) for u, v in pair_order(n) if rng.random() < density]))


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


@cache
def record_output(command, fmt, record):
    """(exit code, stdout) of ``command --graph6 record --format fmt``."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = cli.main([command, "--graph6", record, "--format", fmt])
    return code, sink.getvalue()


def joined_outputs(command, fmt, records):
    return "".join(record_output(command, fmt, record)[1] for record in records)


class TestChunkedStreams:
    """``bounds`` and ``spectral`` read a file in chunks and print each
    chunk's records after solving its spectra: the output must still be
    the per-record outputs in input order, across chunk boundaries."""

    # mixed orders 1..12, connected and not, past two full chunks
    RECORDS = [encode_graph6(g) for g in
               seeded_graphs(random.Random(2026), range(1, 13), 2 * cli.CHUNK_GRAPHS + 20)]
    BAD = cli.CHUNK_GRAPHS + 10  # index of the malformed line, inside chunk 2

    @staticmethod
    def write(tmp_path, lines):
        stream = tmp_path / "graphs.g6"
        stream.write_text("\n".join(lines) + "\n")
        return str(stream)

    @classmethod
    def with_bad_line(cls, at=BAD):
        return cls.RECORDS[:at] + ["not-a-graph!!"] + cls.RECORDS[at:]

    @staticmethod
    def first_chunk():
        """A full chunk of order-6 graphs."""
        return [encode_graph6(g) for g in seeded_graphs(random.Random(6), [6], cli.CHUNK_GRAPHS)]

    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize("command", ["bounds", "spectral"])
    def test_output_is_the_per_record_outputs_in_order(self, capsys, tmp_path, command, fmt):
        code, out, err = run(capsys, [command, "--file", self.write(tmp_path, self.RECORDS), "--format", fmt])
        assert {record_output(command, fmt, r)[0] for r in self.RECORDS} == {0}
        assert (code, err) == (0, "")
        assert out == joined_outputs(command, fmt, self.RECORDS)

    @pytest.mark.parametrize("command", ["bounds", "spectral"])
    def test_malformed_line_in_the_second_chunk_prints_every_earlier_record(self, capsys, tmp_path, command):
        code, out, err = run(capsys, [command, "--file", self.write(tmp_path, self.with_bad_line())])
        assert code == 2
        assert err.startswith(f"error: line {self.BAD + 1}: ") and err.count("\n") == 1
        assert out == joined_outputs(command, "json", self.RECORDS[:self.BAD])

    @pytest.mark.parametrize("command", ["bounds", "spectral"])
    def test_skip_bad_lines_prints_every_other_record(self, capsys, tmp_path, command):
        stream = self.write(tmp_path, self.with_bad_line())
        code, out, err = run(capsys, [command, "--file", stream, "--skip-bad-lines"])
        assert code == 0
        assert err.startswith(f"skipping line {self.BAD + 1}: ") and err.count("\n") == 1
        assert out == joined_outputs(command, "json", self.RECORDS)

    @pytest.mark.parametrize("command", ["bounds", "spectral"])
    def test_failed_eigensolve_drops_its_chunk_only(self, capsys, tmp_path, monkeypatch, command):
        # the eigensolves are counted in this process, so the chunks run here;
        # TestWorkerPool::test_failed_eigensolve_in_a_worker_drops_its_chunk_only
        # is the pool's twin
        monkeypatch.setattr(cli, "_worker_count", lambda: 1)
        # one order in the first chunk, so that its spectra are one eigensolve
        first = self.first_chunk()
        expected = joined_outputs(command, "json", first)
        eigvalsh, calls = np.linalg.eigvalsh, []

        def fail_on_the_second_call(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", fail_on_the_second_call)
        code, out, err = run(capsys, [command, "--file", self.write(tmp_path, first + self.RECORDS)])
        assert code == 3 and len(calls) == 2
        assert err == "error: internal: LinAlgError: Eigenvalues did not converge\n"
        assert out == expected

    @pytest.mark.parametrize("command, solve", [("spectral", "laplacian_spectra"), ("bounds", "graph_facts")])
    def test_a_graph_past_the_entry_budget_is_solved_alone(self, tmp_path, monkeypatch, command, solve):
        # the bound of tests/test_spectral.py::test_spectrum_memory_stays_near_the_stack,
        # on the chunk solve only: parsing the record is not part of it. The
        # solves are traced in this process, so the chunks run here;
        # TestWorkerPool::test_a_graph_past_the_entry_budget_is_solved_alone_in_a_worker
        # is the pool's twin
        monkeypatch.setattr(cli, "_worker_count", lambda: 1)
        n = 1500
        rng = random.Random(1500)
        big = encode_graph6(Graph(n, [(u, v) for u, v in pair_order(n) if rng.random() < 0.01]))
        small = self.RECORDS[:40]
        chunks, peaks = [], []
        # each command's solve is defined in the module of its name
        module = {"spectral": spectral, "bounds": bounds}[command]
        inner = getattr(module, solve)

        def traced(graphs):
            chunks.append([g.n for g in graphs])
            tracemalloc.start()
            try:
                return inner(graphs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(module, solve, traced)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = cli.main([command, "--file", self.write(tmp_path, small[:30] + [big] + small[30:])])
        assert code == 0 and len(sink.getvalue().splitlines()) == 41
        assert chunks == [[parse_graph6(r).n for r in small[:30]], [n], [parse_graph6(r).n for r in small[30:]]]
        assert peaks[1] < 2.3 * 8 * n * n

    def test_chunks_close_at_the_graph_count_or_the_entry_budget(self):
        rng = random.Random(7)
        graphs = [Graph(rng.choice([1, 5, 12, 60, 150, 300])) for _ in range(4 * cli.CHUNK_GRAPHS)]
        graphs += [Graph(3)] * (3 * cli.CHUNK_GRAPHS)
        chunks = list(cli._chunks(graphs))
        assert [g for chunk in chunks for g in chunk] == graphs
        sizes = [sum(g.n * g.n for g in chunk) for chunk in chunks]
        for k, chunk in enumerate(chunks):
            assert len(chunk) <= cli.CHUNK_GRAPHS
            assert sizes[k] <= cli.CHUNK_ENTRIES or len(chunk) == 1
            if k + 1 < len(chunks):
                # a chunk closes only when the next graph would break a limit
                assert len(chunk) == cli.CHUNK_GRAPHS or sizes[k] + chunks[k + 1][0].n ** 2 > cli.CHUNK_ENTRIES
        assert {len(c) for c in chunks} >= {1, cli.CHUNK_GRAPHS}
        assert any(1 < len(c) < cli.CHUNK_GRAPHS for c in chunks)


class TestWorkerPool:
    """The chunks of ``compute``, ``bounds`` and ``spectral`` on a fork pool:
    the same output and exit codes as in one process, and no worker left."""

    RECORDS = TestChunkedStreams.RECORDS
    # a graph past the entry budget, a chunk of its own, between two chunks
    STREAM = RECORDS[:300] + [sparse_record(300, 300, 0.05)] + RECORDS[300:]

    write = staticmethod(TestChunkedStreams.write)

    @staticmethod
    def on_workers(monkeypatch, workers):
        """Run the stream commands on ``workers`` processes (1: in this one);
        returns the list of pools started."""
        monkeypatch.setattr(cli, "_worker_count", lambda: workers)
        pools, fork_pool = [], cli._fork_pool
        monkeypatch.setattr(cli, "_fork_pool", lambda k: pools.append(k) or fork_pool(k))
        return pools

    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize("command", ["bounds", "spectral", "compute"])
    def test_output_matches_the_in_process_path(self, capsys, tmp_path, monkeypatch, command, fmt):
        argv = [command, "--file", self.write(tmp_path, self.STREAM), "--format", fmt]
        assert [len(c) for c in cli._chunks(map(parse_graph6, self.STREAM))] == [256, 44, 1, 232]
        self.on_workers(monkeypatch, 1)
        alone = run(capsys, argv)
        pools = self.on_workers(monkeypatch, 2)
        pooled = run(capsys, argv)
        assert pools == [2] and not multiprocessing.active_children()
        assert pooled == alone and alone[0] == 0 and alone[1].count("\n") >= len(self.STREAM)

    def test_one_chunk_never_starts_a_pool(self, capsys, tmp_path, monkeypatch):
        pools = self.on_workers(monkeypatch, 2)
        code, out, _ = run(capsys, ["bounds", "--file", self.write(tmp_path, self.RECORDS[:10])])
        assert code == 0 and out == joined_outputs("bounds", "json", self.RECORDS[:10])
        assert pools == []

    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("command", ["bounds", "compute"])
    def test_malformed_line_in_the_third_chunk(self, tmp_path, command, skip):
        bad = 2 * cli.CHUNK_GRAPHS + 5
        argv = [command, "--file", self.write(tmp_path, TestChunkedStreams.with_bad_line(bad))]
        code, out, err = run_pool_child(tmp_path, argv + ["--skip-bad-lines"] * skip)
        if skip:
            assert code == 0 and err.startswith(f"skipping line {bad + 1}: ") and err.count("\n") == 1
            assert out == joined_outputs(command, "json", self.RECORDS)
        else:
            assert code == 2 and err.startswith(f"error: line {bad + 1}: ") and err.count("\n") == 1
            assert out == joined_outputs(command, "json", self.RECORDS[:bad])

    @pytest.mark.parametrize("command", ["bounds", "spectral"])
    def test_failed_eigensolve_in_a_worker_drops_its_chunk_only(self, tmp_path, command):
        first = TestChunkedStreams.first_chunk()
        # an order of a connected graph in the second chunk, and in no graph of
        # the first, whose graphs all have order 6
        order = max(g.n for g in map(parse_graph6, self.RECORDS[:cli.CHUNK_GRAPHS]) if is_connected(g))
        assert order != 6
        argv = [command, "--file", self.write(tmp_path, first + self.RECORDS)]
        code, out, err = run_pool_child(tmp_path, argv, fail_order=order)
        assert code == 3
        assert err == "error: internal: LinAlgError: Eigenvalues did not converge\n"
        assert out == joined_outputs(command, "json", first)

    @pytest.mark.parametrize("command, solve", [("spectral", "laplacian_spectra"), ("bounds", "graph_facts")])
    def test_a_graph_past_the_entry_budget_is_solved_alone_in_a_worker(self, tmp_path, monkeypatch,
                                                                       command, solve):
        # the twin of TestChunkedStreams::test_a_graph_past_the_entry_budget_is_solved_alone:
        # each worker appends what it solved to a file
        n = 1500
        big, small = sparse_record(n, n), self.RECORDS[:40]
        module = {"spectral": spectral, "bounds": bounds}[command]
        inner, solved = getattr(module, solve), tmp_path / "solved.jsonl"

        def traced(graphs):
            tracemalloc.start()
            try:
                return inner(graphs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                with open(solved, "a") as handle:
                    handle.write(json.dumps([[g.n for g in graphs], peak]) + "\n")

        monkeypatch.setattr(module, solve, traced)
        pools = self.on_workers(monkeypatch, 2)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = cli.main([command, "--file", self.write(tmp_path, small[:30] + [big] + small[30:])])
        assert pools == [2] and not multiprocessing.active_children()
        assert code == 0 and len(sink.getvalue().splitlines()) == 41
        chunks, peaks = zip(*map(json.loads, solved.read_text().splitlines()))
        expected = [[parse_graph6(r).n for r in small[:30]], [n], [parse_graph6(r).n for r in small[30:]]]
        assert sorted(chunks) == sorted(expected)
        assert peaks[chunks.index([n])] < 2.3 * 8 * n * n

    def test_closed_stdout_exits_141(self, tmp_path):
        stream = tmp_path / "big.g6"
        stream.write_text(f"{P4}\n" * 2000)
        argv = [sys.executable, "-c", POOL_DRIVER, "0", "bounds", "--file", str(stream)]
        with open(tmp_path / "stderr", "wb") as stderr, \
                subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr, env=child_env(),
                                 start_new_session=True) as child:
            first = child.stdout.readline()
            child.stdout.close()
            code = child.wait(timeout=120)
        assert_group_is_empty(child.pid)
        assert len(first) * 2000 > 1 << 16
        assert json.loads(first)[0]["holds"] is True
        assert code == 141 and (tmp_path / "stderr").read_bytes() == b""

    def test_interrupt_joins_the_workers(self, tmp_path):
        # Ctrl-C reaches this process only: it stops writing, and its workers
        # finish the chunks in flight and exit
        stream = tmp_path / "big.g6"
        stream.write_text(f"{P4}\n" * 20000)
        argv = [sys.executable, "-c", POOL_DRIVER, "0", "bounds", "--file", str(stream)]
        with open(tmp_path / "stderr", "wb") as stderr, \
                subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr, env=child_env(),
                                 start_new_session=True) as child:
            first = child.stdout.readline()
            child.send_signal(signal.SIGINT)
            rest = child.stdout.read()
            try:
                code = child.wait(timeout=120)
            finally:
                assert_group_is_empty(child.pid)
        assert json.loads(first)[0]["holds"] is True
        assert code == -signal.SIGINT and b"KeyboardInterrupt" in (tmp_path / "stderr").read_bytes()
        assert rest.count(b"\n") < 20000 - 1

    def test_the_reader_stays_within_two_chunks_per_worker(self, tmp_path, monkeypatch):
        records = self.RECORDS * 4
        # the expected output runs cli.main per record, so it is made before
        # _chunks is counted
        expected = joined_outputs("bounds", "json", records)
        written, ahead = [], []

        class Sink(io.StringIO):
            def write(self, text):
                written.append(len(text))
                return super().write(text)

        chunks = cli._chunks

        def counted(graphs):
            for read, chunk in enumerate(chunks(graphs), start=1):
                ahead.append(read - len(written))
                yield chunk

        monkeypatch.setattr(cli, "_chunks", counted)
        pools = self.on_workers(monkeypatch, 2)
        sink = Sink()
        with contextlib.redirect_stdout(sink):
            code = cli.main(["bounds", "--file", self.write(tmp_path, records)])
        assert code == 0 and pools == [2] and not multiprocessing.active_children()
        assert sink.getvalue() == expected
        assert len(written) == len(ahead) == 9
        assert 2 <= max(ahead) <= 2 * 2

    def test_ready_results_are_written_before_the_next_read(self, monkeypatch):
        # three chunks never fill two per worker in flight, so only the
        # ready results are written while the input is read
        monkeypatch.setattr(cli, "_worker_count", lambda: 2)
        written, seen = [], []

        def chunks():
            yield [0]
            yield [0, 1]
            time.sleep(1)
            yield [0, 1, 2]
            seen.append(written[:2])

        assert cli._evaluate_chunks(len, chunks(), written.append) == 2
        assert seen == [[1, 2]] and written == [1, 2, 3]
        assert not multiprocessing.active_children()

    def test_the_pool_forks_before_numpy_is_loaded(self, tmp_path):
        # the parent reads and writes; only the workers solve spectra
        probe = ("import json, sys; from sigmat import cli; cli._worker_count = lambda: 2; "
                 "code = cli.main(sys.argv[1:]); "
                 "print(json.dumps([code, 'multiprocessing' in sys.modules, 'numpy' in sys.modules]), "
                 "file=sys.stderr)")
        stream = self.write(tmp_path, self.RECORDS)
        child = subprocess.run([sys.executable, "-c", probe, "bounds", "--file", stream],
                               capture_output=True, env=child_env(), timeout=120)
        assert json.loads(child.stderr) == [0, True, False]


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

    @pytest.mark.parametrize("family", ["split", "bipartite", "star", "path"])
    def test_order_past_graph6_is_rejected_before_building(self, capsys, monkeypatch, family):
        # split and bipartite graphs of this order would need O(n^2) memory
        def refuse(*args):
            raise AssertionError("constructed a graph past the graph6 order limit")

        for name in ("make_split", "make_complete_bipartite", "make_star", "make_path",
                     "max_split_sigma_t", "max_bipartite_split"):
            monkeypatch.setattr(extremal, name, refuse)
        code, out, err = run(capsys, ["extremal", "--family", family, "--n", "258048"])
        assert (code, out) == (2, "")
        assert err == "error: graph6 supports n <= 258047, got n=258048 (byte offset 0)\n"

    def test_largest_graph6_order_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(extremal, "make_path", lambda n: path(3))
        code, out, _ = run(capsys, ["extremal", "--family", "path", "--n", "258047"])
        assert code == 0 and json.loads(out)["n"] == 258047


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

    def test_tree_filter_past_the_labelled_limit(self, capsys):
        # n = 12: the max is (n-1)(n-2)^2 on the n stars, the min 2n-4 on the n!/2 paths
        n = 12
        top = json.loads(run(capsys, ["search", "--n", "12", "--objective", "max", "--filter", "tree"])[1])
        assert (top["extremeValue"], top["tieCount"], top["graphsVisited"]) == ((n - 1) * (n - 2) ** 2, n, n ** 10)
        assert all(sorted(parse_graph6(w).degrees()) == [1] * (n - 1) + [n - 1] for w in top["witnesses"])
        bottom = json.loads(run(capsys, ["search", "--n", "12", "--objective", "min", "--filter", "tree"])[1])
        assert (bottom["extremeValue"], bottom["tieCount"]) == (2 * n - 4, math.factorial(n) // 2)
        assert all(sorted(parse_graph6(w).degrees()) == [1, 1] + [2] * (n - 2) for w in bottom["witnesses"])
        assert len(bottom["witnesses"]) == 16

    def test_stream_search(self, capsys, tmp_path):
        stream = tmp_path / "in.g6"
        stream.write_text("".join(encode_graph6(star(n)) + "\n" for n in [5] * 3))
        code, out, _ = run(capsys, ["search", "--file", str(stream), "--objective", "max"])
        body = json.loads(out)
        assert body["extremeValue"] == 36 and body["graphsVisited"] == 3

    def test_needs_input_or_n(self, capsys):
        code, _, err = run(capsys, ["search", "--objective", "max"])
        assert code == 2 and "--n" in err

    def test_stream_graphs_must_have_the_given_order(self, capsys):
        argv = ["search", "--graph6", P4, "--objective", "max", "--filter", "tree"]
        _, plain, _ = run(capsys, argv)
        assert run(capsys, [*argv, "--n", "4"]) == (0, plain, "")
        code, out, err = run(capsys, [*argv, "--n", "9"])
        assert (code, out) == (2, "")
        assert err == "error: stream graph has order 4, expected 9\n"

    def test_n8_limit(self, capsys):
        code, _, err = run(capsys, ["search", "--n", "8", "--objective", "max"])
        assert code == 2 and "error" in err

    def test_help_says_stream_graphs_must_have_the_given_order(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["search", "--help"])
        assert info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "with an input stream, every stream graph must have this order" in text


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

    def test_id2_n12(self, capsys):
        code, out, _ = run(capsys, ["conjecture", "--id", "2", "--n", "12"])
        body = json.loads(out)
        assert (code, body["status"], body["graphsVisited"]) == (0, "verified", 12 ** 10)
        assert body["equalityCount"] == math.factorial(12) // 2 and body["equalityAllPaths"] is True

    def test_id2_order_limit(self, capsys):
        assert run(capsys, ["conjecture", "--id", "2", "--n", "19"]) == (
            2, "", "error: conjecture 2 covers 3 <= n <= 18, got n=19\n")

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_labelled_counts_print_exactly_past_int64(self, capsys, monkeypatch, fmt):
        # 18^16 labelled trees at n = 18 do not fit an int64 or a float
        report = ConjectureReport(
            conjecture_id=2, n_range=(18, 18), status="verified", counterexamples=(),
            extremal_witnesses=(), graphs_visited=18 ** 16, equality_count=math.factorial(18) // 2)
        monkeypatch.setattr(trees, "verify_conjecture2", lambda n: report)
        code, out, _ = run(capsys, ["conjecture", "--id", "2", "--n", "18", "--format", fmt])
        assert code == 0 and "121439531096594251776" in out and "3201186852864000" in out
        if fmt == "json":
            assert out == canonical_json(report) + "\n"
            assert json.loads(out)["graphsVisited"] == 18 ** 16

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
        # a stream covers only its own graphs, so it verifies nothing
        assert body["status"] == "no-counterexample-in-input"

    def test_counterexample_exits_1(self, capsys, monkeypatch):
        fake = ConjectureReport(
            conjecture_id=1, n_range=(5, 5), status="counterexample",
            counterexamples=("D?{",), extremal_witnesses=("D?{",),
        )
        monkeypatch.setattr(oracle, "verify_conjecture1", lambda n, graphs=None: fake)
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

    def test_random_seed_defaults_to_0(self, capsys):
        code, out, _ = run(capsys, ["verify-identities", "--random", "5", "--n", "6"])
        assert code == 0 and json.loads(out)["seed"] == 0
        assert run(capsys, ["verify-identities", "--random", "5", "--n", "6", "--seed", "0"]) == (0, out, "")

    @pytest.mark.parametrize("argv", [["--n", "4"], ["--graph6", "C~"], []], ids=["n", "graph6", "none"])
    def test_seed_needs_random(self, capsys, argv):
        code, out, err = run(capsys, ["verify-identities", *argv, "--seed", "5"])
        assert (code, out, err) == (2, "", "error: --seed needs --random\n")

    @pytest.mark.parametrize("argv", [["--n", "4"], ["--random", "2", "--n", "4"]], ids=["n", "random"])
    def test_skip_bad_lines_needs_an_input_stream(self, capsys, argv):
        code, out, err = run(capsys, ["verify-identities", *argv, "--skip-bad-lines"])
        assert (code, out, err) == (2, "", "error: --skip-bad-lines needs an input stream\n")

    def test_skip_bad_lines_with_a_stream(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("C~\nbad!\nD~{\n"))
        code, out, err = run(capsys, ["verify-identities", "--stdin", "--skip-bad-lines"])
        assert code == 0 and json.loads(out)["checked"] == 2
        assert err.startswith("skipping line 2: ")

    def test_failure_exits_1(self, capsys, monkeypatch):
        fake = IdentitySummary(checked=3, passed=2, failed=1, first_failure="Ch")
        monkeypatch.setattr(oracle, "verify_identity_suite", lambda graphs, seed=None: fake)
        code, out, _ = run(capsys, ["verify-identities", "--n", "3"])
        assert code == 1

    def test_needs_some_input(self, capsys):
        code, _, err = run(capsys, ["verify-identities"])
        assert code == 2

    @pytest.mark.parametrize("source", [["--graph6", "C~"], ["--file", "in.g6"], ["--stdin"]],
                             ids=["graph6", "file", "stdin"])
    def test_random_rejects_an_input_stream(self, capsys, monkeypatch, tmp_path, source):
        (tmp_path / "in.g6").write_text("C~\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "stdin", io.StringIO("C~\n"))
        code, out, err = run(capsys, ["verify-identities", "--random", "3", "--n", "4", *source])
        assert (code, out) == (2, "")
        assert err == "error: --random takes no input stream\n"

    def test_stream_graphs_must_have_the_given_order(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("C~\nD~{\n"))
        code, out, err = run(capsys, ["verify-identities", "--n", "4", "--stdin"])
        assert (code, out) == (2, "")
        assert err == "error: stream graph has order 5, expected 4\n"
        code, out, _ = run(capsys, ["verify-identities", "--n", "5", "--graph6", "D~{"])
        assert code == 0 and json.loads(out)["checked"] == 1
        assert run(capsys, ["verify-identities", "--graph6", "D~{"]) == (0, out, "")

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
        ["search", "--n", "5", "--objective", "max"],
        ["conjecture", "--id", "1", "--n", "5"],
        ["conjecture", "--id", "2", "--n", "6"],
    ], ids=["search", "conjecture-1", "conjecture-2"])
    def test_skip_bad_lines_needs_an_input_stream(self, capsys, argv):
        # the one check that verify-identities also passes through
        code, out, err = run(capsys, [*argv, "--skip-bad-lines"])
        assert (code, out, err) == (2, "", "error: --skip-bad-lines needs an input stream\n")

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
             b"DEBUG:sigmat.trees:tree sweep at n=5: 3 classes, 125 labelled trees, "),
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

    @pytest.mark.parametrize("argv,sweep", [
        (["search", "--n", "6", "--objective", "min", "--filter", "nonregular"], "graph search at n=6"),
        (["conjecture", "--id", "1", "--n", "5"], "conjecture 1 at n=5"),
    ])
    def test_sweeps_log_their_table_and_scan_seconds(self, argv, sweep):
        plain = run_child(argv)
        logged = run_child(argv, "debug")
        assert plain.returncode == logged.returncode == 0
        assert plain.stdout and logged.stdout == plain.stdout
        (line,) = [l for l in logged.stderr.decode().splitlines() if "building tables" in l]
        assert re.fullmatch(rf"DEBUG:sigmat.oracle:{sweep}: 1 chunks, \d+\.\d{{3}} s building tables, "
                            r"\d+\.\d{3} s scanning", line), line

    @pytest.mark.parametrize("preset", [None, "3"])
    def test_blas_threads(self, preset):
        # importing sigmat before numpy keeps OpenBLAS to one thread, unless the
        # environment already chose a number
        env = child_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        probe = ("import os, sigmat, numpy; task = '/proc/self/task'; "
                 "print(os.environ['OPENBLAS_NUM_THREADS'], "
                 "len(os.listdir(task)) if os.path.isdir(task) else 1)")
        child = subprocess.run([sys.executable, "-c", probe], capture_output=True, env=env, timeout=120)
        assert child.returncode == 0, child.stderr
        value, threads = child.stdout.split()
        assert value.decode() == (preset or "1")
        if preset is None:
            assert threads == b"1"

    @pytest.mark.parametrize("argv", [
        ["extremal", "--family", "split", "--n", "8"],
        ["extremal", "--family", "bipartite", "--n", "10"],
        ["conjecture", "--id", "2", "--n", "9"],
        ["search", "--n", "9", "--objective", "min", "--filter", "tree"],
        ["compute", "--graph6", P4],
        ["verify-identities", "--n", "5"],
        ["verify-identities", "--random", "20", "--n", "6"],
        ["search", "--graph6", P4, "--objective", "max", "--filter", "triangle-free"],
        ["conjecture", "--id", "1", "--n", "4", "--graph6", P4],
    ])
    def test_integer_commands_do_not_load_numpy(self, argv):
        report, err = probe_imports(argv)
        assert (report["code"], err) == (0, "")
        assert not report["numpy"] and not report["bulk"]

    @pytest.mark.parametrize("argv, bulk", [
        (["bounds", "--graph6", P4], False),
        (["spectral", "--graph6", P4], False),
        (["search", "--n", "5", "--objective", "max"], True),
        (["conjecture", "--id", "1", "--n", "5"], True),
    ])
    def test_array_commands_load_numpy_with_one_blas_thread(self, argv, bulk):
        report, err = probe_imports(argv)
        assert (report["code"], err) == (0, "")
        assert report["numpy"] and report["bulk"] == bulk
        assert report["blas"] == "1" and report["threads"] == 1

    @pytest.mark.parametrize("argv, code, only, never", [
        (["extremal", "--family", "star", "--n", "3"], 0, {"cli", "graph", "invariants", "extremal"}, set()),
        (["extremal", "--family", "bipartite", "--n", "10"], 0,
         {"cli", "graph", "invariants", "extremal"}, set()),
        (["compute", "--graph6", P4], 0, None, {"oracle", "trees", "extremal", "bounds", "spectral", "bulk"}),
        # Graph6Error exits 2 without oracle, which defines LimitError, and
        # without invariants, since no chunk was read
        (["compute", "--graph6", "C!"], 2, {"cli", "graph"}, set()),
        (["bounds", "--graph6", P4], 0, None, {"oracle", "trees", "extremal", "bulk"}),
        (["spectral", "--graph6", P4], 0, None, {"oracle", "trees", "extremal", "bulk"}),
        (["conjecture", "--id", "2", "--n", "9"], 0, None, {"extremal", "bounds", "spectral", "bulk"}),
        (["search", "--n", "9", "--objective", "min", "--filter", "tree"], 0, None,
         {"extremal", "bounds", "spectral", "bulk"}),
        # the mask sweeps load bulk, which loads spectral only for spectra
        (["search", "--n", "6", "--objective", "max"], 0, None, {"spectral", "bounds", "trees"}),
        (["conjecture", "--id", "1", "--n", "6"], 0, None, {"spectral", "bounds", "trees"}),
        # the tree sweep loads trees and, for its records, oracle, and never bulk
        (["conjecture", "--id", "2", "--n", "6"], 0, {"cli", "graph", "invariants", "oracle", "trees"}, set()),
        (["search", "--n", "6", "--objective", "max", "--filter", "tree"], 0,
         {"cli", "graph", "invariants", "oracle", "trees"}, set()),
        # a tree-filtered stream and the identity suite never load trees
        (["search", "--graph6", P4, "--objective", "max", "--filter", "tree"], 0, None, {"trees", "bulk"}),
        (["verify-identities", "--n", "4"], 0, None, {"trees", "bulk"}),
        (["verify-identities", "--random", "20", "--n", "6"], 0, None, {"trees", "bulk"}),
    ])
    def test_each_command_loads_only_the_modules_it_runs(self, argv, code, only, never):
        report, _ = probe_imports(argv)
        assert report["code"] == code
        # only a stream of two or more chunks starts a worker pool
        assert not report["multiprocessing"]
        loaded = set(report["sigmat"])
        if only is not None:
            assert loaded == only
        assert not loaded & never
        if argv[0] in ("extremal", "compute"):
            # logging is loaded only for SIGMAT_LOG or an internal error
            assert not report["logging"]

    @pytest.mark.parametrize("statement, loaded", [
        ("import sigmat", []),
        ("from sigmat import bulk", ["bulk", "graph"]),
        ("from sigmat import sigma_t", ["graph", "invariants"]),
    ])
    def test_package_import_loads_only_what_is_named(self, statement, loaded):
        probe = (f"{statement}; import json, sys; "
                 "print(json.dumps(sorted(m[7:] for m in sys.modules if m.startswith('sigmat.'))))")
        child = subprocess.run([sys.executable, "-c", probe], capture_output=True, env=child_env(), timeout=120)
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout) == loaded

    @pytest.mark.parametrize("argv", [
        ["compute", "--graph6", P4],
        ["bounds", "--graph6", P4],
        ["search", "--n", "5", "--objective", "max"],
        ["conjecture", "--id", "2", "--n", "6"],
        ["bounds", "--file", "{stream}"],
    ])
    def test_debug_logging_leaves_stdout_unchanged(self, tmp_path, argv):
        # {stream}: a stream of several chunks
        records = TestChunkedStreams.RECORDS
        argv = [TestChunkedStreams.write(tmp_path, records) if a == "{stream}" else a for a in argv]
        plain = run_child(argv)
        logged = run_child(argv, "debug")
        assert plain.returncode == logged.returncode == 0
        assert plain.stdout and logged.stdout == plain.stdout
        if argv[0] in ("compute", "bounds", "spectral"):
            # the parent's one line for the stream
            chunks = len(list(cli._chunks(map(parse_graph6, records)))) if "--file" in argv else 1
            (line,) = [l for l in logged.stderr.decode().splitlines() if l.startswith("DEBUG:sigmat.cli:")]
            records = len(records) if "--file" in argv else 1
            assert line.startswith(f"DEBUG:sigmat.cli:{argv[0]}: {records} records in {chunks} chunks, ")
            assert line.endswith(" graphs/s") and " s worker busy, " in line and " s wall, " in line

    def test_closed_stdout_exits_141_silently(self, tmp_path):
        # `sigmat compute --file big.g6 | head -1`: the output is past the
        # 64 KB a pipe buffers, so the child is still writing when the reader
        # closes after one line
        stream = tmp_path / "big.g6"
        stream.write_text(f"{P4}\n" * 2000)
        argv = [sys.executable, "-m", "sigmat.cli", "compute", "--file", str(stream)]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=child_env()) as child:
            first = child.stdout.readline()
            child.stdout.close()
            stderr = child.stderr.read()
            code = child.wait(timeout=120)
        assert len(first) * 2000 > 1 << 16
        assert json.loads(first)["sigmaT"] == 4
        assert code == 141 and stderr == b""

    def test_float_format_idempotent(self):
        for x in (0.1, 2 - 2 ** 0.5, 1 / 3, 123456.789012345, 1e-30):
            once = cli.format_float(x)
            assert cli.format_float(float(once)) == once


class Level(enum.IntEnum):
    HIGH = 3


class Legacy(enum.IntEnum):
    """An IntEnum whose str() is its member name, as before Python 3.11."""

    LOW = 1
    __str__ = enum.Enum.__str__


Pair = namedtuple("Pair", "left right")


class Label(str):
    pass


class Loud(int):
    def __str__(self):
        return "loud"


class Shout(str):
    def __str__(self):
        return "SHOUT"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(1 << 80), 1 << 80) | st.floats(allow_nan=False, allow_infinity=False)
    | st.text() | st.text(st.sampled_from('"\\\x00\x1f\x7f é中😀/ab')) | st.fractions(),
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(max_size=5), children, max_size=4)),
    max_leaves=12,
)


def _parsed(value):
    """What json.loads gives for the canonical JSON of ``value``."""
    if isinstance(value, float):
        return float(format(value, ".12g"))
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, (list, tuple)):
        return [_parsed(item) for item in value]
    if isinstance(value, dict):
        return {key: _parsed(item) for key, item in value.items()}
    return value


class TestEncoder:
    """Values whose exact type is none of the JSON types are written as their
    value in the first of int, float, str, list/tuple, dict and Fraction they
    are an instance of, never through their own ``__str__``."""

    CASES = (
        (np.float64(1.5), "1.5"),
        (np.float64(1 / 3), "0.333333333333"),
        (Pair(1, 2.5), "[1, 2.5]"),
        (Level.HIGH, "3"),
        (True, "true"),
        (False, "false"),
        (Label('say "hi"'), '"say \\"hi\\""'),
        ([Level.HIGH, np.float64(2.0), Pair(None, "a")], '[3, 2, [null, "a"]]'),
        ({Level.HIGH: Pair(1, 2), "k": (Fraction(1, 3), None)},
         '{"3": [1, 2], "k": [{"num": 1, "den": 3}, null]}'),
        # an IntEnum's str() is its member name before Python 3.11
        ({"level": Loud(7)}, '{"level": 7}'),
        ([Shout("quiet")], '["quiet"]'),
        # a dict key too is written from its base value
        ({Shout("key"): 1}, '{"key": 1}'),
        ({Loud(7): [Loud(8)]}, '{"7": [8]}'),
        ({Legacy.LOW: 1, 2: Legacy.LOW}, '{"1": 1, "2": 1}'),
    )

    @pytest.mark.parametrize("value, expected", CASES)
    def test_subclasses_write_as_their_base(self, value, expected):
        assert cli.canonical_json(value) == expected

    @pytest.mark.parametrize("value", [np.int64(1), np.bool_(True), object(), IdentitySummary])
    def test_unknown_types_raise(self, value):
        # a result dataclass's class is not a record; only its instances are
        with pytest.raises(TypeError, match="cannot serialize"):
            cli.canonical_json(value)

    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    @example(-0.0)
    @example([1 << 64, 1.0, "\"\\\n\x00é😀", (None, Fraction(-7, 3)), {"k": True}])
    def test_dispatch_order_round_trips(self, value):
        out = cli.canonical_json(value)
        parsed = json.loads(out)
        assert parsed == _parsed(value)
        assert cli.canonical_json(parsed) == out


@dataclass(frozen=True)
class Leading:
    """A record whose first fields may be left out, as no package record's are."""

    first: object = field(default=None, metadata={"json_optional": True})
    second: object = field(default=None, metadata={"json_optional": True, "json_key": 'k"{}'})
    third: object = None
    fourth: object = field(default=None, metadata={"json_optional": True})


def _records():
    """Every dataclass the package defines, and ``Leading``."""
    for name in ("bounds", "bulk", "cli", "extremal", "graph", "invariants", "oracle", "spectral", "trees"):
        module = importlib.import_module(f"sigmat.{name}")
        yield from (value for value in vars(module).values() if isinstance(value, type)
                    and is_dataclass(value) and value.__module__ == module.__name__)
    yield Leading


class TestRecordLayouts:
    """The compiled layout of each record class writes what the field by
    field reference writes, whatever its fields hold."""

    # exact JSON types written inline, their subclasses, containers of both,
    # and a nested record; each field of a record takes each in turn
    VALUES = (None, "s", 'q"\\\n\u00e9', 7, 1 << 70, 2.5, -0.0, True, False, Fraction(1, 3),
              np.float64(1 / 3), Level.HIGH, Legacy.LOW, Label('a"b'), Shout("quiet"), Loud(7),
              Pair(1, 2.5), (1, -0.0, "x", None, True, 1.5), [Fraction(2, 4), Pair(None, "a"), [1, (2,)]],
              (), {"k": (1, 2), Loud(3): None}, IdentitySummary(1, 1, 0, None, Level.HIGH))

    @pytest.mark.parametrize("cls", list(_records()), ids=lambda cls: cls.__qualname__)
    def test_compiled_layout_matches_the_reference_writer(self, cls):
        names = [f.name for f in fields(cls)]
        assert names
        for shift in range(len(self.VALUES) + 1):
            record = object.__new__(cls)  # no __post_init__ or type checks
            for k, name in enumerate(names):
                # the last shift sets every field to None: each optional one is left out
                value = self.VALUES[(k + shift) % len(self.VALUES)] if shift < len(self.VALUES) else None
                object.__setattr__(record, name, value)
            text = canonical_json(record)
            assert text == reference_json(record)
            assert list(json.loads(text)) == [key for name, key, _, optional in cli._layout(cls)
                                              if not (optional and getattr(record, name) is None)]
            assert canonical_json([record, (record,)]) == reference_json([record, (record,)])

    def test_each_class_is_compiled_once(self):
        record = bounds.BoundCheck("b", 1, 2.5, True, False, "", True)
        assert cli._record_writer(bounds.BoundCheck) is cli._record_writer(bounds.BoundCheck)
        assert cli._record_writer(bounds.BoundCheck)(record) == reference_json(record)


PINNED = json.loads((Path(__file__).parent / "cli_output.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", list(PINNED))
def test_output_bytes_are_pinned(capsys, command):
    """One command per result record, in both formats, against stdout
    recorded before the records shared one encoder."""
    code, out, err = run(capsys, command.split())
    assert (code, err) == (0, "")
    assert out == PINNED[command]


class TestInternalErrors:
    def test_failed_eigensolve_exits_3(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        code, out, err = run(capsys, ["spectral", "--graph6", P4])
        assert code == 3 and out == ""
        assert err == "error: internal: LinAlgError: Eigenvalues did not converge\n"

    @pytest.mark.parametrize("argv, message", [
        (["conjecture", "--id", "2", "--n", "30"], "conjecture 2 covers 3 <= n <= 18, got n=30"),
        (["search", "--n", "8", "--objective", "max"], "graph search covers 1 <= n <= 7, got n=8"),
    ])
    def test_limit_error_exits_2_without_numpy(self, argv, message):
        # the ValueError branch tells a LinAlgError apart without importing numpy
        report, err = probe_imports(argv)
        assert report["code"] == 2 and err.startswith(f"error: {message}")
        assert not report["numpy"]

    def test_tree_sweep_that_misses_a_class_exits_3(self, capsys, monkeypatch):
        # the labelled trees the classes stand for are checked against
        # Cayley's n^(n-2); without the path's 6!/2 labellings 936 are left
        generate = trees.free_trees
        monkeypatch.setattr(trees, "free_trees", lambda n: islice(generate(n), 1, None))
        trees.tree_sweep.cache_clear()
        try:
            code, out, err = run(capsys, ["conjecture", "--id", "2", "--n", "6"])
        finally:
            trees.tree_sweep.cache_clear()
        assert code == 3 and out == ""
        assert err == ("error: internal: ArithmeticError: tree sweep at n=6 counted 936 labelled trees, "
                       "Cayley's formula gives 1296\n")

    def test_tree_sweep_that_repeats_a_class_exits_3(self, capsys, monkeypatch):
        # twelve more stars (5 labellings each) in place of the path (60) keep
        # Cayley's 125 labelled trees at n = 5, but not Otter's 3 classes
        classes = list(trees.free_trees(5))
        star, path_ = (0, 1, 1, 1, 1), (0, 1, 2, 1, 2)
        assert set(classes) == {star, path_, (0, 1, 2, 1, 1)}
        wrong = [c for c in classes if c != path_] + [star] * 12
        assert sum(math.factorial(5) // trees._tree_class(c)[2] for c in wrong) == 5 ** 3
        monkeypatch.setattr(trees, "free_trees", lambda n: iter(wrong))
        trees.tree_sweep.cache_clear()
        try:
            code, out, err = run(capsys, ["conjecture", "--id", "2", "--n", "5"])
        finally:
            trees.tree_sweep.cache_clear()
        assert code == 3 and out == ""
        assert err == ("error: internal: ArithmeticError: tree sweep at n=5 visited 14 free trees, "
                       "Otter's formula gives 3\n")

    @pytest.mark.parametrize("argv, sweep", [
        (["search", "--n", "5", "--objective", "max"], "graph search"),
        # a filtered sweep checks every connected row it read, kept or not
        (["search", "--n", "5", "--objective", "min", "--filter", "triangle-free"], "graph search"),
        (["conjecture", "--id", "1", "--n", "5"], "conjecture 1"),
    ])
    def test_mask_sweep_that_misses_a_chunk_exits_3(self, capsys, monkeypatch, argv, sweep):
        monkeypatch.setattr(bulk, "CHUNK_MASKS", 1 << 8)
        ranges = oracle.chunk_ranges(5)
        dropped = bulk.connected_table(5, *ranges[1]).masks.size
        monkeypatch.setattr(oracle, "chunk_ranges", lambda n: ranges[:1] + ranges[2:])
        code, out, err = run(capsys, argv)
        assert len(ranges) == 4 and dropped > 0
        assert code == 3 and out == ""
        assert err == (f"error: internal: ArithmeticError: {sweep} at n=5 visited {728 - dropped} "
                       "connected graphs, A001187 gives 728\n")

    def test_enumeration_that_misses_a_graph_exits_3(self, capsys, monkeypatch):
        connected = oracle.is_connected
        monkeypatch.setattr(oracle, "is_connected", lambda g: connected(g) and encode_graph6(g) != P4)
        code, out, err = run(capsys, ["verify-identities", "--n", "4"])
        assert code == 3 and out == ""
        assert err == ("error: internal: ArithmeticError: graph enumeration at n=4 visited 37 "
                       "connected graphs, A001187 gives 38\n")
        # a mask range covers only itself, so it is not checked
        assert len(list(oracle.enumerate_connected_graphs(4, (0, 1 << 6)))) == 37

    def test_unexpected_exception_exits_3_with_debug_traceback(self, capsys, monkeypatch, caplog):
        def fail(n):
            raise ArithmeticError("closed form disagrees with the scan")

        monkeypatch.setattr(extremal, "max_split_sigma_t", fail)
        caplog.set_level(logging.DEBUG, logger="sigmat.cli")
        code, out, err = run(capsys, ["extremal", "--family", "split", "--n", "8"])
        assert code == 3 and out == ""
        assert err == "error: internal: ArithmeticError: closed form disagrees with the scan\n"
        (record,) = [r for r in caplog.records if r.name == "sigmat.cli"]
        assert record.levelno == logging.DEBUG and record.exc_info[0] is ArithmeticError
