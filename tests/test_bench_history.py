"""The bench harnesses' report-file handling and command line.

A bench run appends to its history file (``BENCH_throughput.json``,
``BENCH_frontier.json``, ``BENCH_overload.json``) through the shared
``benchmarks/history.py``; a missing, unparseable, or wrong-shaped file
must never crash a run mid-bench — it is moved aside to ``.corrupt``
(preserved for inspection) and the run starts a fresh history.  Each
harness keeps its own row key, latest row winning.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"


def _load_bench(name: str):
    """A harness script from the repository's ``benchmarks/`` tree (which
    goes on the import path, as running a harness puts it there)."""
    if str(BENCHMARKS) not in sys.path:
        sys.path.insert(0, str(BENCHMARKS))
    path = BENCHMARKS / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return _load_bench("bench_throughput")


@pytest.fixture()
def history_path(bench, tmp_path, monkeypatch):
    path = tmp_path / "BENCH_throughput.json"
    monkeypatch.setattr(bench, "OUTPUT_PATH", path)
    return path


def _row(bench, timestamp: float = 1.0) -> dict:
    return {
        "git_sha": "abc123",
        "engine": "batched",
        "wsaf_engine": "batched",
        "timestamp": timestamp,
    }


class TestLoadHistory:
    def test_missing_file_is_empty_history(self, bench, history_path):
        assert bench.history.load(history_path) == []
        assert not history_path.exists()

    def test_valid_history_passes_through(self, bench, history_path):
        rows = [_row(bench)]
        history_path.write_text(json.dumps(rows))
        assert bench.history.load(history_path) == rows

    def test_unparseable_json_backed_up(self, bench, history_path, capsys):
        history_path.write_text("{not json at all")
        assert bench.history.load(history_path) == []
        backup = history_path.with_suffix(".json.corrupt")
        assert backup.read_text() == "{not json at all"
        assert not history_path.exists()
        assert "corrupt" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "payload", ['{"rows": []}', '["just", "strings"]', "42"]
    )
    def test_wrong_shape_backed_up(self, bench, history_path, payload):
        history_path.write_text(payload)
        assert bench.history.load(history_path) == []
        assert history_path.with_suffix(".json.corrupt").exists()

    def test_append_after_corruption_starts_fresh(self, bench, history_path):
        history_path.write_text("corrupt!")
        bench._append_report([_row(bench)])
        history = json.loads(history_path.read_text())
        assert [r["git_sha"] for r in history] == ["abc123"]
        assert history_path.with_suffix(".json.corrupt").exists()

    def test_append_extends_valid_history(self, bench, history_path):
        history_path.write_text(json.dumps([_row(bench, timestamp=1.0)]))
        later = _row(bench, timestamp=2.0)
        later["git_sha"] = "def456"
        bench._append_report([later])
        history = json.loads(history_path.read_text())
        assert {r["git_sha"] for r in history} == {"abc123", "def456"}


class TestShardsNormalization:
    def test_shards_joins_the_row_key(self, bench, history_path):
        # Same (sha, variant) at different shard counts are distinct
        # rows; a re-measurement at the same count supersedes.
        rows = []
        for shards, timestamp in ((1, 1.0), (4, 1.0), (4, 2.0)):
            row = _row(bench, timestamp=timestamp)
            row["shards"] = shards
            rows.append(row)
        history_path.write_text(json.dumps(rows))
        bench._append_report([])
        history = json.loads(history_path.read_text())
        assert sorted(
            (r["shards"], r["timestamp"]) for r in history
        ) == [(1, 1.0), (4, 2.0)]

    def test_legacy_and_explicit_one_shard_dedupe(self, bench, history_path):
        legacy = _row(bench, timestamp=1.0)
        explicit = _row(bench, timestamp=2.0)
        explicit["shards"] = 1
        history_path.write_text(json.dumps([legacy, explicit]))
        bench._append_report([])
        history = json.loads(history_path.read_text())
        assert len(history) == 1
        assert history[0]["timestamp"] == 2.0


class TestShardLadder:
    """``bench_throughput.py --shards N``: which shard counts it measures."""

    @pytest.fixture()
    def calls(self, bench, monkeypatch):
        # Patch the heavy benchmark and the trace build out; record what
        # the script's main forwards.
        calls = {}

        def fake_run_sharded_benchmark(trace, rounds=None, shard_counts=None,
                                       record=True):
            calls["shard_counts"] = shard_counts
            calls["record"] = record
            return {
                "rows": [],
                "report": "fake report",
                "scaling": {n: float(n) for n in shard_counts},
                "inproc_overhead": 1.0,
            }

        monkeypatch.setattr(
            bench, "run_sharded_benchmark", fake_run_sharded_benchmark
        )
        monkeypatch.setattr(bench, "build_caida_like_trace", lambda config: None)
        return calls

    def test_full_shards_forwards_counts(self, bench, calls, capsys):
        bench.main(["--shards", "4"])
        # The requested count joins the baseline and the default ladder
        # up to it.
        assert calls["shard_counts"] == (1, 2, 4)
        assert calls["record"] is True
        assert "fake report" in capsys.readouterr().out

    def test_quick_shards_smokes_one_and_n(self, bench, calls):
        bench.main(["--quick", "--shards", "3"])
        assert calls["shard_counts"] == (1, 3)
        assert calls["record"] is False


class TestRetiredGenerationRows:
    def test_extra_label_keeps_rows_distinct(self, bench, history_path):
        # Rows of retired kernel generations carry one more string label
        # (the generation they measured); same-commit rows that differ
        # only there are distinct history, and so is an unlabelled row.
        loop = _row(bench, timestamp=1.0)
        loop["generation"] = "loop"
        scan = dict(loop, generation="scan")
        history_path.write_text(json.dumps([loop, scan]))
        bench._append_report([_row(bench, timestamp=2.0)])
        history = json.loads(history_path.read_text())
        assert [r.get("generation") for r in history] == ["loop", "scan", None]

    def test_context_labels_do_not_split_rows(self, bench, history_path):
        # A re-measurement on another platform still supersedes the row.
        first = _row(bench, timestamp=1.0)
        first["platform"] = "Linux-a"
        second = dict(first, platform="Linux-b", timestamp=2.0)
        history_path.write_text(json.dumps([first, second]))
        bench._append_report([])
        (row,) = json.loads(history_path.read_text())
        assert row["platform"] == "Linux-b"

    def test_recorded_history_keeps_every_row(self):
        # Every committed history file is already one row per key, in
        # order: rewriting it under its harness's key changes nothing.
        for name in ("throughput", "frontier", "overload"):
            harness = _load_bench(f"bench_{name}")
            recorded = json.loads(
                (BENCHMARKS.parent / f"BENCH_{name}.json").read_text()
            )
            assert recorded, name
            assert harness._latest(list(recorded)) == recorded, name


class TestEnvironmentStamp:
    def test_stamped_rows_pass_through(self, bench, history_path):
        stamped = _row(bench, timestamp=1.0)
        stamped.update(
            cpu_count=8, platform="Linux-test", numpy_version="1.26.0"
        )
        history_path.write_text(json.dumps([stamped]))
        bench._append_report([])
        (row,) = json.loads(history_path.read_text())
        assert row["cpu_count"] == 8
        assert row["platform"] == "Linux-test"
        assert row["numpy_version"] == "1.26.0"

    def test_environment_has_the_stamp_fields(self, bench):
        environment = bench.history.environment()
        assert set(environment) == {"cpu_count", "platform", "numpy_version"}
        assert environment["cpu_count"] >= 1
        assert environment["platform"]
        assert environment["numpy_version"]


class TestOverloadHistory:
    """``BENCH_overload.json`` row keying: ``(git_sha, policy, overload)``."""

    @pytest.fixture(scope="class")
    def overload_bench(self):
        return _load_bench("bench_overload")

    @pytest.fixture()
    def history_path(self, overload_bench, tmp_path, monkeypatch):
        path = tmp_path / "BENCH_overload.json"
        monkeypatch.setattr(overload_bench, "OUTPUT_PATH", path)
        return path

    def _row(self, policy="shed", overload=2.5, timestamp=1.0, sha="abc123"):
        return {
            "git_sha": sha,
            "policy": policy,
            "overload": overload,
            "timestamp": timestamp,
        }

    def test_missing_file_is_empty_history(self, overload_bench, history_path):
        overload_bench._append_report([self._row()])
        assert json.loads(history_path.read_text()) == [self._row()]

    def test_corrupt_file_backed_up(self, overload_bench, history_path, capsys):
        history_path.write_text("{not json")
        overload_bench._append_report([self._row()])
        assert json.loads(history_path.read_text()) == [self._row()]
        assert history_path.with_suffix(".json.corrupt").exists()
        assert "corrupt" in capsys.readouterr().out

    def test_rows_key_on_sha_policy_and_overload(
        self, overload_bench, history_path
    ):
        rows = [
            self._row("shed", 2.5, timestamp=1.0),
            self._row("shed", 4.0, timestamp=1.0),
            self._row("degrade", 2.5, timestamp=1.0),
            self._row("shed", 2.5, timestamp=2.0),  # re-measurement wins
        ]
        history_path.write_text(json.dumps(rows))
        overload_bench._append_report([])
        history = json.loads(history_path.read_text())
        assert sorted(
            (r["policy"], r["overload"], r["timestamp"]) for r in history
        ) == [("degrade", 2.5, 1.0), ("shed", 2.5, 2.0), ("shed", 4.0, 1.0)]

    def test_other_commits_rows_survive(self, overload_bench, history_path):
        history_path.write_text(
            json.dumps([self._row(sha="old001", timestamp=1.0)])
        )
        overload_bench._append_report(
            [self._row(sha="new002", timestamp=2.0)]
        )
        history = json.loads(history_path.read_text())
        assert {r["git_sha"] for r in history} == {"old001", "new002"}

    def test_output_sorted_by_timestamp(self, overload_bench, history_path):
        rows = [
            self._row("degrade", 4.0, timestamp=3.0),
            self._row("shed", 2.5, timestamp=1.0),
            self._row("oblivious", 2.5, timestamp=2.0),
        ]
        history_path.write_text(json.dumps(rows))
        overload_bench._append_report([])
        history = json.loads(history_path.read_text())
        assert [r["timestamp"] for r in history] == [1.0, 2.0, 3.0]

    def test_environment_stamp_fields(self, overload_bench):
        environment = overload_bench.history.environment()
        assert set(environment) == {"cpu_count", "platform", "numpy_version"}
