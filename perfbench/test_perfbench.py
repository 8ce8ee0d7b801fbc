"""Tests for the benchmark's own helpers.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import measure  # noqa: E402
import spans  # noqa: E402
from spans import Span, Tracer  # noqa: E402


class TestPercentileRule:
    def test_median_needs_ten_samples_beyond_it(self):
        assert measure.percentile(range(1, 20), 50) is None
        assert measure.percentile(range(1, 21), 50) == 10

    def test_p90_needs_a_hundred_samples(self):
        assert measure.percentile(range(1, 100), 90) is None
        assert measure.percentile(range(1, 101), 90) == 90

    def test_p95_needs_two_hundred_samples(self):
        assert measure.percentile(range(1, 200), 95) is None
        assert measure.percentile(range(200, 0, -1), 95) == 190

    def test_quartile_spread(self):
        assert measure.quartile_spread([10.0] * 8) == 0.0
        assert measure.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9]) == pytest.approx(
            (7.5 - 2.5) / 5
        )


class TestSelfTime:
    def _spans(self):
        # Thread A: root [0, 10] with children [1, 4] and [5, 6]; the
        # second child has a grandchild [5.5, 5.8].  Thread B runs
        # concurrently: root [2, 9] with one child [3, 4].
        a_root = Span("a.root", 0.0, 10.0, None, "A")
        a_one = Span("a.child", 1.0, 4.0, a_root, "A")
        a_two = Span("a.child", 5.0, 6.0, a_root, "A")
        a_grand = Span("a.grand", 5.5, 5.8, a_two, "A")
        b_root = Span("b.root", 2.0, 9.0, None, "side-B")
        b_child = Span("b.child", 3.0, 4.0, b_root, "side-B")
        return [a_root, a_one, a_two, a_grand, b_root, b_child]

    def test_self_time_subtracts_only_direct_children(self):
        items = self._spans()
        own = spans.self_times(items)
        assert [own[id(s)] for s in items] == pytest.approx([6.0, 3.0, 0.7, 0.3, 6.0, 1.0])

    def test_totals_aggregate_by_name(self):
        totals = spans.totals_by_name(self._spans())
        assert totals["a.child"]["calls"] == 2
        assert totals["a.child"]["self"] == pytest.approx(3.7)
        assert totals["a.child"]["total"] == pytest.approx(4.0)

    def test_coverage_counts_each_thread_once_and_skips_side_threads(self):
        items = self._spans()
        assert spans.coverage(items, 0.0, 10.0, skip_threads=("side-",)) == pytest.approx(1.0)
        assert spans.coverage(items, 0.0, 10.0) == pytest.approx(1.7)
        # Spans outside the window do not count.
        assert spans.coverage(items[1:4], 0.0, 10.0) == pytest.approx(0.4)

    def test_overlapping_children_are_not_double_counted(self):
        root = Span("root", 0.0, 10.0)
        items = [root, Span("c", 1.0, 5.0, root), Span("c", 3.0, 7.0, root)]
        assert spans.self_times(items)[id(root)] == pytest.approx(4.0)

    def test_recorded_spans_nest_per_thread(self):
        tracer = Tracer()

        def work():
            tracer.call("outer", tracer.call, "inner", time.sleep, 0.01)

        threads = [threading.Thread(target=work, name=f"worker-{i}") for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        inner = [s for s in tracer.spans if s.name == "inner"]
        assert len(inner) == 3
        for span in inner:
            assert span.parent.name == "outer"
            assert span.parent.thread == span.thread
        assert all(s.parent is None for s in tracer.spans if s.name == "outer")


class _Toy:
    def double(self, value):
        return 2 * value

    def __iter__(self):
        yield from (1, 2, 3)


def _toy_function(value):
    return value + 1


class TestWrappers:
    def test_install_uninstall_restores_the_original_callables(self):
        tracer = Tracer()
        originals = (vars(_Toy)["double"], vars(_Toy)["__iter__"], _toy_function)
        tracer.wrap(_Toy, "double", "toy.double")
        tracer.wrap(_Toy, "__iter__", "toy.next")
        tracer.wrap(sys.modules[__name__], "_toy_function", "toy.function")
        assert vars(_Toy)["double"] is not originals[0]
        assert _Toy().double(4) == 8
        assert list(_Toy()) == [1, 2, 3]
        assert _toy_function(1) == 2
        names = [s.name for s in tracer.spans]
        assert names.count("toy.double") == 1
        assert names.count("toy.next") == 4  # three items plus the exhausting next()
        assert names.count("toy.function") == 1
        assert tracer.uninstall()
        assert (vars(_Toy)["double"], vars(_Toy)["__iter__"], _toy_function) == originals

    def test_every_layer_boundary_is_restored(self):
        import importlib

        originals = []
        for module_name, class_name, attr, _name in spans.LAYERS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            originals.append((owner, attr, vars(owner)[attr]))
        tracer = Tracer()
        tracer.install_layers()
        assert all(vars(owner)[attr] is not fn for owner, attr, fn in originals)
        assert tracer.uninstall()
        assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)

    def test_wrapping_rejects_non_functions(self):
        class Holder:
            value = 3

        with pytest.raises(TypeError):
            Tracer().wrap(Holder, "value", "holder.value")


class TestOracleGate:
    def test_counts_each_differing_or_missing_flow(self):
        expected = {1: (10.0, 100.0), 2: (20.0, 200.0), 3: (5.0, 50.0)}
        assert measure.estimate_mismatches(dict(expected), expected) == 0
        perturbed = dict(expected)
        perturbed[2] = (20.5, 200.0)
        assert measure.estimate_mismatches(perturbed, expected) == 1
        missing = {1: expected[1], 2: expected[2]}
        assert measure.estimate_mismatches(missing, expected) == 1

    def test_workload_gate_catches_one_perturbed_estimate(self, tmp_path):
        from repro.core import InstaMeasureConfig
        from repro.traffic import CaidaLikeConfig
        from workloads import PipelineWorkload

        workload = PipelineWorkload(
            "tiny",
            "test",
            CaidaLikeConfig(num_flows=2_000, duration=5.0),
            InstaMeasureConfig(l1_memory_bytes=1024, wsaf_entries=1 << 12),
            hh_threshold=100,
            max_packets=20_000,
        )
        workload.prepare(seed=3, workdir=str(tmp_path))
        result = workload.run_pass()
        oracle = workload.oracle()
        assert workload.mismatches(result, oracle) == 0
        key = next(iter(result.estimates))
        packets, bytes_ = result.estimates[key]
        result.estimates[key] = (packets + 1.0, bytes_)
        assert workload.mismatches(result, oracle) == 1
        result.estimates[key] = (packets, bytes_)
        result.words = result.words[:-1] + bytes([result.words[-1] ^ 1])
        assert workload.mismatches(result, oracle) == 1


class TestAccuracy:
    def test_are_and_recall(self):
        truth = {1: 1000, 2: 2000, 3: 10, 4: 5000}
        estimates = {1: (900.0, 0.0), 2: (2200.0, 0.0), 4: (5000.0, 0.0)}
        are, recall = measure.accuracy(truth, estimates, min_packets=1000, threshold=2000)
        assert are == pytest.approx((0.1 + 0.1 + 0.0) / 3)
        assert recall == 1.0
        are, recall = measure.accuracy(truth, {}, min_packets=1000, threshold=2000)
        assert (are, recall) == (1.0, 0.0)


class TestContract:
    def test_benchmark_json_matches_the_catalog(self):
        from workloads import WORKLOADS

        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
            (name, unit) for name, unit, _better in measure.END_TO_END
        ]
        assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == measure.PER_LAYER
        assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
        assert any(m["name"] == "setup_s" for m in spec["end_to_end"])

    def test_fails_without_the_package_sources(self, tmp_path):
        shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "caida-fork2",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode != 0
        assert done.stdout == ""
