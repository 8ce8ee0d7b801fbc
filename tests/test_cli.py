"""Tests for the ``instameasure`` CLI."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "trace.npz"
    code = main(
        [
            "gen-trace", "caida",
            "--flows", "1500",
            "--duration", "8",
            "--seed", "3",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


class TestGenTrace:
    def test_campus_trace(self, tmp_path, capsys):
        path = tmp_path / "campus.npz"
        code = main(
            ["gen-trace", "campus", "--flows", "800", "--hours", "12",
             "--out", str(path)]
        )
        assert code == 0
        assert path.exists()
        assert "packets" in capsys.readouterr().out

    def test_output_mentions_counts(self, trace_path, capsys):
        main(["summarize", str(trace_path)])
        out = capsys.readouterr().out
        assert "L4 flows" in out
        assert "1,500" in out


class TestRun:
    def test_run_reports_regulation(self, trace_path, capsys):
        code = main(["run", str(trace_path), "--l1-kb", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "regulation rate" in out
        assert "WSAF flows" in out

    def test_missing_trace_is_handled(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "absent.npz")])
        assert code == 1

    def test_sharded_run_matches_single(self, trace_path, capsys):
        code = main(
            ["run", str(trace_path), "--l1-kb", "4", "--wsaf-bits", "12"]
        )
        assert code == 0
        single_out = capsys.readouterr().out
        code = main(
            ["run", str(trace_path), "--l1-kb", "4", "--wsaf-bits", "12",
             "--shards", "4"]
        )
        assert code == 0
        sharded_out = capsys.readouterr().out
        assert "shard load shares" in sharded_out

        def metric(out: str, name: str) -> str:
            for line in out.splitlines():
                if line.startswith(name):
                    # Column padding varies with the widest row label,
                    # so compare whitespace-normalized values.
                    return " ".join(line[len(name):].split())
            raise AssertionError(f"{name!r} not in output")

        # The sharded run reports the same measurement, exactly.
        for name in ("packets", "WSAF flows", "std error"):
            assert metric(sharded_out, name) == metric(single_out, name)


class TestRunBackends:
    @pytest.mark.parametrize("backend", ["tiered", "icebuckets"])
    def test_run_with_backend(self, trace_path, capsys, backend):
        code = main(
            ["run", str(trace_path), "--l1-kb", "4", "--wsaf-bits", "12",
             "--wsaf-backend", backend]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "WSAF flows" in out

    def test_unknown_backend_rejected(self, trace_path):
        with pytest.raises(SystemExit):
            main(["run", str(trace_path), "--wsaf-backend", "bogus"])


class TestRetiredCommands:
    # The throughput harness runs as benchmarks/bench_throughput.py, and
    # `snapshot save` is the one way to write a measured state.
    def test_bench_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--quick"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_run_snapshot_out_is_a_usage_error(self, trace_path, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", str(trace_path),
                  "--snapshot-out", str(tmp_path / "state.snap")])
        assert exit_info.value.code == 2
        assert "--snapshot-out" in capsys.readouterr().err


class TestSnapshot:
    def test_save_load_round_trip(self, trace_path, tmp_path, capsys):
        snap_path = tmp_path / "state.snap"
        code = main(
            ["snapshot", "save", str(trace_path), "--out", str(snap_path),
             "--l1-kb", "4", "--wsaf-bits", "12"]
        )
        assert code == 0
        assert snap_path.exists()
        assert "WSAF records" in capsys.readouterr().out

        code = main(
            ["snapshot", "load", str(snap_path), "--trace", str(trace_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "instameasure" in out
        assert "std error" in out

    def test_sharded_save_equals_single_save(self, trace_path, tmp_path):
        single = tmp_path / "single.snap"
        sharded = tmp_path / "sharded.snap"
        assert main(
            ["snapshot", "save", str(trace_path), "--out", str(single),
             "--l1-kb", "4", "--wsaf-bits", "12"]
        ) == 0
        assert main(
            ["snapshot", "save", str(trace_path), "--out", str(sharded),
             "--l1-kb", "4", "--wsaf-bits", "12", "--shards", "3"]
        ) == 0
        from repro.state import load

        assert load(sharded).estimates() == load(single).estimates()

    def test_corrupt_snapshot_is_handled(self, tmp_path, capsys):
        bad = tmp_path / "bad.snap"
        bad.write_bytes(b"not a snapshot")
        code = main(["snapshot", "load", str(bad)])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestHeavyHitter:
    def test_packet_threshold(self, trace_path, capsys):
        code = main(["hh", str(trace_path), "--threshold-packets", "300"])
        assert code == 0
        out = capsys.readouterr().out
        assert "FPR" in out and "packets" in out

    def test_byte_threshold(self, trace_path, capsys):
        code = main(["hh", str(trace_path), "--threshold-bytes", "300000"])
        assert code == 0
        assert "bytes" in capsys.readouterr().out

    def test_requires_a_threshold(self, trace_path, capsys):
        code = main(["hh", str(trace_path)])
        assert code == 2


class TestTopK:
    def test_topk_table(self, trace_path, capsys):
        code = main(["topk", str(trace_path), "-k", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Top-5 flows" in out
        assert "est pkts" in out
        # 5 ranked rows plus header/divider lines.
        assert out.count("0x") >= 10  # source + destination per row


class TestSpreaders:
    def test_spreaders_runs(self, trace_path, capsys):
        code = main(["spreaders", str(trace_path), "--min-destinations", "1"])
        assert code == 0
        assert "fan-out" in capsys.readouterr().out


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self, trace_path):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "summarize", str(trace_path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "L4 flows" in proc.stdout

    def test_python_dash_m_repro_usage_error(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()
