"""The closed-loop backpressure control plane.

Contracts under test, layer by layer:

* policies (:mod:`repro.pipeline.control`): ``none`` passes everything,
  ``shed`` thins to the target with seed-stable sampling;
* mechanism: the thinning mask is a pure function of (seed, global
  position) — identical across chunk geometries — and the governor
  hands passed chunks on as they are and thinned ones at their source
  ``begin``;
* drivers: a shed controller that never sheds is byte-identical to no
  controller at all, shed runs are byte-identical across repeats, and a
  sharded shed run equals the single-process one exactly;
* service: the daemon accounts offered vs measured packets and surfaces
  controller stats; the control socket renders them as Prometheus text.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import InstaMeasure, InstaMeasureConfig
from repro.errors import ConfigurationError
from repro.pipeline import (
    ChunkGovernor,
    LOAD_POLICY_CHOICES,
    Pipeline,
    ShardedPipeline,
    ShedController,
    TraceChunkSource,
    build_load_controller,
    run_pipeline,
    thin_chunk,
    thin_mask,
)
from repro.state.codec import to_bytes
from repro.traffic import CaidaLikeConfig, build_caida_like_trace


@pytest.fixture(scope="module")
def trace():
    return build_caida_like_trace(
        CaidaLikeConfig(num_flows=1_500, duration=6.0, seed=21)
    )


def _config(**overrides) -> InstaMeasureConfig:
    base = dict(l1_memory_bytes=2_048, wsaf_entries=1 << 11, seed=5)
    base.update(overrides)
    return InstaMeasureConfig(**base)


class TestPolicies:
    def test_none_always_passes(self, trace):
        """``none`` builds no controller, so every chunk is ingested
        whole, whatever its offered rate."""
        assert build_load_controller("none", target_pps=1.0) is None
        pipeline = Pipeline(
            InstaMeasure(_config()),
            controller=build_load_controller("none", target_pps=1.0),
        )
        source = TraceChunkSource(trace, chunk_size=700)
        pipeline.begin(source)
        for chunk in source:
            assert pipeline.step(chunk).packets == chunk.num_packets
        result = pipeline.finish()
        assert result.packets == trace.num_packets
        assert result.controller_stats is None

    def test_shed_passes_under_target(self):
        controller = ShedController(target_pps=1_000.0)
        assert controller.decide(999.0).action == "pass"
        assert controller.decide(1_000.0).action == "pass"

    def test_shed_thins_proportionally_over_target(self):
        controller = ShedController(target_pps=1_000.0)
        decision = controller.decide(4_000.0)
        assert decision.action == "thin"
        assert decision.keep_fraction == pytest.approx(0.25)

    def test_shed_drops_on_infinite_rate_without_floor(self):
        controller = ShedController(target_pps=1_000.0)
        assert controller.decide(float("inf")).action == "drop"

    def test_shed_validation(self):
        for target in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                ShedController(target_pps=target)

    def test_factory(self):
        assert build_load_controller(None) is None
        assert build_load_controller("none") is None
        assert isinstance(
            build_load_controller("shed", target_pps=10.0), ShedController
        )
        for retired in ("degrade", "panic"):
            with pytest.raises(ConfigurationError, match="unknown load policy"):
                build_load_controller(retired, target_pps=10.0)
        with pytest.raises(ConfigurationError, match="target-pps"):
            build_load_controller("shed")
        assert LOAD_POLICY_CHOICES == ("none", "shed")


class TestThinningMechanism:
    def test_mask_is_deterministic(self):
        first = thin_mask(0, 10_000, 0.4, seed=9)
        second = thin_mask(0, 10_000, 0.4, seed=9)
        assert (first == second).all()

    def test_mask_is_geometry_invariant(self):
        whole = thin_mask(0, 10_000, 0.4, seed=9)
        pieces = np.concatenate(
            [
                thin_mask(0, 3_000, 0.4, seed=9),
                thin_mask(3_000, 7_500, 0.4, seed=9),
                thin_mask(7_500, 10_000, 0.4, seed=9),
            ]
        )
        assert (whole == pieces).all()

    def test_mask_fraction_tracks_keep(self):
        mask = thin_mask(0, 100_000, 0.3, seed=1)
        assert mask.mean() == pytest.approx(0.3, abs=0.01)

    def test_mask_varies_with_seed(self):
        assert (
            thin_mask(0, 10_000, 0.5, seed=1)
            != thin_mask(0, 10_000, 0.5, seed=2)
        ).any()

    def test_thin_chunk_keeps_its_source_begin(self, trace):
        chunk = list(TraceChunkSource(trace, chunk_size=700))[1]
        kept = thin_chunk(chunk, 0.5, seed=3)
        assert kept.begin == chunk.begin == 700
        assert kept.end - kept.begin == kept.num_packets
        assert 0 < kept.num_packets < chunk.num_packets
        assert kept.total_packets == chunk.total_packets
        assert kept.trace.flows is chunk.trace.flows

    def test_thin_chunk_empty_sample_is_none(self, trace):
        source = TraceChunkSource(trace, chunk_size=4)
        chunk = next(iter(source))
        # A vanishing keep fraction on a tiny chunk keeps nothing.
        assert thin_chunk(chunk, 1e-12, seed=1_000) is None


class TestChunkGovernor:
    def test_stats_conserve_packets(self, trace):
        governor = ChunkGovernor(ShedController(target_pps=1_000.0, seed=2))
        kept = 0
        for chunk in TraceChunkSource(trace, chunk_size=700):
            admitted = governor.admit(chunk)
            kept += 0 if admitted is None else admitted.num_packets
        stats = governor.stats
        assert stats.offered_packets == trace.num_packets
        assert stats.kept_packets + stats.dropped_packets == trace.num_packets
        assert 0 < stats.kept_packets == kept < trace.num_packets
        assert stats.chunks == len(
            list(TraceChunkSource(trace, chunk_size=700))
        )

    def test_governed_chunks_keep_their_source_span(self, trace):
        """A chunk that passes comes back as it is; a thinned one keeps
        its source ``begin`` and spans only its kept packets."""
        actions = set()
        for target_pps in (1_000.0, 1e12):
            governor = ChunkGovernor(ShedController(target_pps=target_pps, seed=2))
            for chunk in TraceChunkSource(trace, chunk_size=700):
                admitted = governor.admit(chunk)
                action = governor.decisions[-1].action
                actions.add(action)
                if action == "pass":
                    assert admitted is chunk
                elif admitted is not None:
                    assert admitted.begin == chunk.begin
                    assert admitted.end == chunk.begin + admitted.num_packets
                    assert admitted.num_packets < chunk.num_packets
        assert {"pass", "thin"} <= actions

    def test_stats_round_trip_through_a_dict(self, trace):
        from repro.pipeline import ControllerStats

        governor = ChunkGovernor(ShedController(target_pps=1_000.0, seed=2))
        for chunk in TraceChunkSource(trace, chunk_size=700):
            governor.admit(chunk)
        tallies = governor.stats.as_dict()
        assert ControllerStats.from_dict(tallies).as_dict() == tallies

    @pytest.mark.parametrize(
        "damage",
        [
            {"chunks": -5},
            {"offered_packets": True},
            {"kept_packets": 2.5},
            {"kept_packets": 101},
            {"dropped_packets": 101},
            {"thinned_chunks": 11},
            {"dropped_chunks": 11},
            {"policy": "degrade"},
        ],
        ids=lambda damage: "-".join(f"{k}={v}" for k, v in damage.items()),
    )
    def test_restored_tallies_are_range_checked(self, damage):
        from repro.pipeline import ControllerStats

        tallies = {
            "policy": "shed",
            "chunks": 10,
            "offered_packets": 100,
            "kept_packets": 60,
            "dropped_packets": 40,
            "thinned_chunks": 4,
            "dropped_chunks": 2,
        }
        ControllerStats.from_dict(tallies)
        with pytest.raises(ValueError):
            ControllerStats.from_dict(dict(tallies, **damage))

    def test_decision_history_is_bounded(self, trace):
        governor = ChunkGovernor(
            ShedController(target_pps=1_000.0, seed=2), history=3
        )
        for chunk in TraceChunkSource(trace, chunk_size=300):
            governor.admit(chunk)
        assert len(governor.decisions) == 3
        assert governor.decisions[-1].kept_packets <= (
            governor.decisions[-1].offered_packets
        )


class TestControlledPipeline:
    def test_none_policy_is_byte_identical_to_no_controller(self, trace):
        """A shed controller whose target the trace never reaches passes
        every chunk untouched: the governor costs no bits."""
        plain = InstaMeasure(_config())
        run_pipeline(plain, TraceChunkSource(trace, chunk_size=700))
        controlled = InstaMeasure(_config())
        result = run_pipeline(
            controlled,
            TraceChunkSource(trace, chunk_size=700),
            controller=ShedController(target_pps=1e12, seed=17),
        )
        assert to_bytes(controlled.snapshot()) == to_bytes(plain.snapshot())
        assert result.offered_packets == trace.num_packets
        assert result.controller_stats["keep_rate"] == 1.0
        assert len(result.decisions) == len(result.chunks)
        assert all(r.action == "pass" for r in result.decisions)

    def test_uncontrolled_result_reports_offered_packets(self, trace):
        result = run_pipeline(
            InstaMeasure(_config()),
            TraceChunkSource(trace, chunk_size=700),
        )
        assert result.offered_packets == trace.num_packets
        assert result.controller_stats is None
        assert result.decisions == []

    def test_shed_runs_are_byte_identical(self, trace):
        snapshots = []
        for _ in range(2):
            engine = InstaMeasure(_config())
            result = run_pipeline(
                engine,
                TraceChunkSource(trace, chunk_size=700),
                controller=ShedController(target_pps=1_000.0, seed=17),
            )
            snapshots.append(to_bytes(engine.snapshot()))
        assert snapshots[0] == snapshots[1]
        stats = result.controller_stats
        assert 0 < stats["kept_packets"] < trace.num_packets
        assert result.result.packets == stats["kept_packets"]

    @pytest.mark.parametrize("parallel", [False, True])
    @pytest.mark.parametrize("policy", ["shed"])
    def test_sharded_shed_equals_single_process(self, trace, policy, parallel):
        """The driver decides once per chunk, before routing: a sharded
        run, in-process or forked, keeps exactly the packets a
        single-process run keeps."""
        from repro.pipeline.sharded import _fork_available

        if parallel and not _fork_available():
            pytest.skip("platform cannot fork")

        def controller():
            return build_load_controller(policy, target_pps=1_000.0, seed=17)

        single = InstaMeasure(_config())
        expected = run_pipeline(
            single,
            TraceChunkSource(trace, chunk_size=700),
            controller=controller(),
        )
        sharded = ShardedPipeline(
            _config(),
            num_shards=2,
            parallel=parallel,
            controller=controller(),
        ).run(TraceChunkSource(trace, chunk_size=700))
        assert sharded.parallel == parallel
        assert (
            sharded.estimates_for(trace)[0] == single.estimates_for(trace)[0]
        ).all()
        assert (
            sharded.controller_stats["kept_packets"]
            == sharded.packets
            < trace.num_packets
        )
        assert sharded.offered_packets == trace.num_packets

        def decisions(result):
            return [
                (record.action, record.keep_fraction, record.kept_packets)
                for record in result.decisions
            ]

        assert decisions(sharded) == decisions(expected)

    def test_epoch_rotation_survives_shedding(self, trace):
        engine = InstaMeasure(_config())
        result = run_pipeline(
            engine,
            TraceChunkSource(trace, chunk_size=500, epoch_seconds=2.0),
            controller=ShedController(target_pps=1_000.0, seed=17),
            rotate=True,
        )
        assert len(result.epochs) >= 2
        counts = [e.packets_so_far for e in result.epochs]
        assert counts == sorted(counts)
        assert counts[-1] == result.controller_stats["kept_packets"]


class TestDaemonControl:
    @pytest.fixture(scope="class")
    def capture(self, trace, tmp_path_factory):
        from repro.traffic.pcaplite import write_pcaplite

        path = tmp_path_factory.mktemp("control") / "trace.impl"
        write_pcaplite(trace, path)
        return str(path)

    def _source(self, capture):
        from repro.pipeline import PacketRecordChunkSource

        return PacketRecordChunkSource(
            capture, chunk_size=700, epoch_seconds=1.0
        )

    def test_rejects_unknown_policy_up_front(self, capture):
        from repro.service import MeasurementDaemon

        with pytest.raises(ConfigurationError):
            MeasurementDaemon(
                self._source(capture), config=_config(), load_policy="panic"
            )

    def test_shed_daemon_accounts_offered_vs_measured(self, trace, capture):
        from repro.service import MeasurementDaemon

        daemon = MeasurementDaemon(
            self._source(capture),
            config=_config(),
            load_policy="shed",
            target_pps=1_000.0,
        )
        daemon.start()
        assert daemon.wait(60.0)
        assert daemon.error is None
        stats = daemon.stats()
        assert stats["packets"] == trace.num_packets  # offered
        assert 0 < stats["measured_packets"] < trace.num_packets
        assert stats["load_policy"] == "shed"
        assert stats["target_pps"] == 1_000.0
        controller = stats["controller"]
        assert controller["policy"] == "shed"
        assert controller["kept_packets"] == stats["measured_packets"]
        assert daemon.measured_packets == stats["measured_packets"]

    def test_none_daemon_measures_everything(self, trace, capture):
        from repro.service import MeasurementDaemon

        daemon = MeasurementDaemon(self._source(capture), config=_config())
        daemon.start()
        assert daemon.wait(60.0)
        stats = daemon.stats()
        assert stats["measured_packets"] == trace.num_packets
        assert stats["load_policy"] == "none"
        assert stats["controller"] is None


class TestRenderMetrics:
    def test_exposition_format(self):
        from repro.service import render_metrics

        text = render_metrics(
            {
                "packets": 42,
                "pps_recent": 1.5,
                "running": True,
                "error": None,
                "load_policy": "shed",
                "controller": {"kept_packets": 21, "keep_rate": 0.5},
            }
        )
        lines = text.splitlines()
        assert "# TYPE instameasure_packets counter" in lines
        assert "instameasure_packets 42" in lines
        assert "# TYPE instameasure_pps_recent gauge" in lines
        assert "instameasure_pps_recent 1.5" in lines
        assert "instameasure_running 1" in lines
        # Nested controller stats flatten; counters stay counters.
        assert "# TYPE instameasure_controller_kept_packets counter" in lines
        assert "instameasure_controller_kept_packets 21" in lines
        assert "# TYPE instameasure_controller_keep_rate gauge" in lines
        # Non-numeric values are skipped, not mangled.
        assert not any("load_policy" in line for line in lines)
        assert not any("error" in line for line in lines)
        assert text.endswith("\n")

    def test_non_finite_and_unsafe_names(self):
        from repro.service import render_metrics

        text = render_metrics(
            {"pps-total": 3, "bad": float("nan"), "worse": float("inf")}
        )
        assert "instameasure_pps_total 3" in text
        assert "bad" not in text and "worse" not in text

    def test_metrics_verb_over_the_socket(self):
        from repro.service import ControlServer, send_command

        class FakeDaemon:
            def stats(self):
                return {"packets": 7, "controller": {"keep_rate": 1.0}}

        with ControlServer(FakeDaemon()) as server:
            ok, payload = send_command(server.address, "metrics")
        assert ok
        assert isinstance(payload, str)
        assert "# TYPE instameasure_packets counter" in payload
        assert "instameasure_controller_keep_rate 1.0" in payload
