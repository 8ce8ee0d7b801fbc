"""The always-on measurement service: checkpoints, recovery, control.

The contract under test is the service tentpole: a daemon killed
between checkpoints and restarted over the same capture must finish
with *bit-identical* state — estimates, regulator words, stream
cursors — to a daemon that never died, and while running it must stay
queryable over the control socket at throughput comparable to the batch
pipeline.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core import InstaMeasureConfig
from repro.errors import ConfigurationError, SnapshotError, TraceFormatError
from repro.pipeline import (
    PacketRecordChunkSource,
    Pipeline,
    ShardedStreamingMeasurer,
    SocketChunkSource,
)
from repro.service import (
    CheckpointStore,
    ControlServer,
    MeasurementDaemon,
    send_command,
)
from repro.state import from_bytes, to_bytes
from repro.traffic import CaidaLikeConfig, Trace, build_caida_like_trace
from repro.traffic.pcaplite import HEADER_BYTES, PacketRecordWriter, write_pcaplite


@pytest.fixture(scope="module")
def trace():
    return build_caida_like_trace(
        CaidaLikeConfig(num_flows=700, duration=6.0, seed=31)
    )


@pytest.fixture(scope="module")
def capture(trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("service") / "trace.impl"
    write_pcaplite(trace, path)
    return str(path)


@pytest.fixture(scope="module")
def bad_capture(trace, tmp_path_factory):
    """The first 3,000 packets of the trace, packet 1,500 stamped NaN."""
    path = tmp_path_factory.mktemp("service") / "bad.impl"
    tuples = [trace.flows.five_tuple(i) for i in range(trace.num_flows)]
    with PacketRecordWriter(path) as writer:
        for p in range(3_000):
            ts = float("nan") if p == 1_500 else float(trace.timestamps[p])
            writer.write(ts, tuples[trace.flow_ids[p]], int(trace.sizes[p]))
    return str(path)


def _config() -> InstaMeasureConfig:
    return InstaMeasureConfig(
        l1_memory_bytes=2_048, wsaf_entries=1 << 11, seed=13
    )


def _source(capture, **kwargs):
    kwargs.setdefault("chunk_size", 1_000)
    kwargs.setdefault("epoch_seconds", 1.0)
    return PacketRecordChunkSource(capture, **kwargs)


def _run_daemon(daemon):
    daemon.start()
    assert daemon.wait(60.0)
    return daemon


def _shard_bytes(measurer):
    return [to_bytes(s) for s in measurer.snapshot_shards()]


class _Dying(PacketRecordChunkSource):
    """A capture whose reader dies at chunk 5, between the
    every-2-chunks checkpoints."""

    def __iter__(self):
        for i, chunk in enumerate(super().__iter__()):
            if i == 5:
                raise RuntimeError("simulated crash")
            yield chunk


def _crash(capture, ck, **control):
    """Run a 2-shard daemon over ``capture`` until it dies at chunk 5,
    checkpointing into ``ck`` every 2 chunks."""
    crashed = _run_daemon(
        MeasurementDaemon(
            _Dying(capture, chunk_size=1_000, epoch_seconds=1.0),
            config=_config(),
            num_shards=2,
            epoch_seconds=1.0,
            checkpoint_dir=ck,
            checkpoint_every=2,
            **control,
        )
    )
    assert isinstance(crashed.error, RuntimeError)
    return crashed


def _restart(ck, capture, **control):
    """Restart over the whole capture from the checkpoints in ``ck``."""
    return _run_daemon(
        MeasurementDaemon(
            _source(capture),
            num_shards=2,
            epoch_seconds=1.0,
            checkpoint_dir=ck,
            checkpoint_every=2,
            **control,
        )
    )


def _assert_resumed_whole(recovered, reference):
    """Recovery equals the uninterrupted run in the driver's outputs too:
    every epoch fired after recovery, the result's counts, and
    ``stats()`` apart from its wall-clock and recovery fields."""
    fired = {record.index: record for record in reference.result.epochs}
    assert recovered.result.epochs
    for record in recovered.result.epochs:
        assert record == fired[record.index]
    for name in ("packets", "offered_packets", "controller_stats"):
        assert getattr(recovered.result, name) == getattr(reference.result, name)
    volatile = ("pps_total", "pps_recent", "uptime_seconds", "recovered_from")

    def steady(stats):
        return {k: v for k, v in stats.items() if k not in volatile}

    assert steady(recovered.stats()) == steady(reference.stats())


def _flip_numeric_byte(path, column="wsaf.packets") -> bytes:
    """Flip the low mantissa byte of the middle entry of ``column`` in the
    IMSNAP file at ``path``; returns the damaged bytes."""
    with open(path, "rb") as handle:
        payload = bytearray(handle.read())
    length = int.from_bytes(payload[8:16], "little")
    header = json.loads(payload[16 : 16 + length])
    offset = 16 + length
    for entry in header["manifest"]:
        itemsize = np.dtype(entry["dtype"]).itemsize
        if entry["name"] == column:
            assert entry["count"] > 0
            payload[offset + (entry["count"] // 2) * itemsize] ^= 0x01
            break
        offset += itemsize * entry["count"]
    else:
        raise AssertionError(f"no column {column}")
    with open(path, "wb") as handle:
        handle.write(payload)
    return bytes(payload)


class TestCheckpointStore:
    def _payloads(self, capture, chunks=2):
        measurer = ShardedStreamingMeasurer(_config(), num_shards=2)
        source = _source(capture)
        for i, chunk in enumerate(source):
            if i == chunks:
                source.stop()
            measurer.ingest(chunk)
        return measurer.shard_payloads()

    def test_save_latest_load_round_trip(self, capture, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        payloads = self._payloads(capture)
        info = store.save(payloads, meta={"position": 2_000, "epoch": 1})
        latest = store.latest()
        assert latest is not None and latest.seq == info.seq
        assert latest.meta["position"] == 2_000
        assert latest.num_shards == 2
        loaded = store.load(latest)
        assert [to_bytes(s) for s in loaded] == payloads
        # No .tmp litter after a completed save.
        assert not [n for n in os.listdir(tmp_path / "ck") if ".tmp" in n]

    def test_prunes_to_retention(self, capture, tmp_path):
        store = CheckpointStore(tmp_path / "ck", keep=2)
        payloads = self._payloads(capture)
        for position in (100, 200, 300, 400):
            store.save(payloads, meta={"position": position})
        infos = store.list()
        assert [info.meta["position"] for info in infos] == [300, 400]
        names = os.listdir(tmp_path / "ck")
        assert len([n for n in names if n.endswith(".json")]) == 2

    def test_latest_skips_corrupt_manifest(self, capture, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        payloads = self._payloads(capture)
        good = store.save(payloads, meta={"position": 1})
        bad = store.save(payloads, meta={"position": 2})
        with open(bad.manifest_path, "w") as handle:
            handle.write("{ not json")
        assert store.latest().seq == good.seq

    def test_latest_skips_missing_shard_files(self, capture, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        payloads = self._payloads(capture)
        good = store.save(payloads, meta={"position": 1})
        bad = store.save(payloads, meta={"position": 2})
        os.remove(bad.shard_paths[0])
        assert store.latest().seq == good.seq

    def test_manifest_records_shard_lengths_and_crcs(self, capture, tmp_path):
        import zlib

        store = CheckpointStore(tmp_path / "ck")
        info = store.save(self._payloads(capture), meta={"position": 1})
        recorded = info.meta["shard_integrity"]
        assert len(recorded) == info.num_shards == 2
        for path, entry in zip(info.shard_paths, recorded):
            with open(path, "rb") as handle:
                payload = handle.read()
            assert entry == {"bytes": len(payload), "crc32": zlib.crc32(payload)}
        assert store.latest().meta["shard_integrity"] == recorded

    def test_load_rejects_a_damaged_shard_file(self, capture, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        info = store.save(self._payloads(capture), meta={"position": 1})
        damaged = _flip_numeric_byte(info.shard_paths[1])
        from_bytes(damaged)  # the flip still decodes: only the CRC sees it
        with pytest.raises(SnapshotError, match="shard1.imsnap is damaged"):
            store.load(store.latest())
        with open(info.shard_paths[1], "ab") as handle:
            handle.write(b"\0")
        with pytest.raises(SnapshotError, match="damaged"):
            store.load(store.latest())

    def test_manifest_without_integrity_fields_still_loads(self, capture, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        payloads = self._payloads(capture)
        info = store.save(payloads, meta={"position": 1})
        legacy = dict(info.meta)
        del legacy["shard_integrity"]
        with open(info.manifest_path, "w", encoding="utf-8") as handle:
            json.dump(legacy, handle)
        loaded = store.load(store.latest())
        assert [to_bytes(s) for s in loaded] == payloads

    def test_meta_never_overrides_the_store_fields(self, capture, tmp_path):
        """Re-saving a loaded checkpoint's ``meta`` writes a new
        checkpoint: its own ``seq``, shard files and integrity record."""
        store = CheckpointStore(tmp_path / "ck")
        first = store.save(self._payloads(capture, chunks=1), meta={"position": 1})
        later = self._payloads(capture, chunks=3)
        second = store.save(later, meta=first.meta)
        latest = store.latest()
        assert latest.seq == second.seq == first.seq + 1
        assert latest.meta["seq"] == second.seq
        assert latest.meta["position"] == 1
        assert latest.shard_paths == second.shard_paths != first.shard_paths
        assert [to_bytes(s) for s in store.load(latest)] == later

    @pytest.mark.parametrize(
        "names", ["absolute", "outside", "reordered", "another seq"]
    )
    def test_latest_skips_shard_names_it_did_not_write(
        self, capture, tmp_path, names
    ):
        """A manifest may name only its own ``ckpt-{seq}.shard{i}``
        files, in order: one naming any other (readable, well-formed)
        file is an incomplete checkpoint, and no file outside the store
        is read."""
        store = CheckpointStore(tmp_path / "ck")
        payloads = self._payloads(capture)
        good = store.save(payloads, meta={"position": 1})
        bad = store.save(payloads, meta={"position": 2})
        other = tmp_path / "other"
        other.mkdir()
        for path in good.shard_paths:
            shutil.copy(path, other / os.path.basename(path))
        shards = {
            "absolute": [str(other / name) for name in good.meta["shards"]],
            "outside": [f"../other/{name}" for name in good.meta["shards"]],
            "reordered": bad.meta["shards"][::-1],
            "another seq": good.meta["shards"],
        }[names]
        manifest = dict(bad.meta, shards=shards)
        del manifest["shard_integrity"]
        with open(bad.manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        assert store.latest().seq == good.seq
        assert [info.seq for info in store.list()] == [good.seq]

    def test_empty_directory_has_no_latest(self, tmp_path):
        assert CheckpointStore(tmp_path / "ck").latest() is None

    def test_rejects_bad_parameters(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CheckpointStore(tmp_path / "ck", keep=0)
        with pytest.raises(ConfigurationError):
            CheckpointStore(tmp_path / "ck").save([])


class TestMeasurementDaemon:
    def test_rejects_bounded_sources(self, trace):
        from repro.pipeline import TraceChunkSource

        with pytest.raises(ConfigurationError):
            MeasurementDaemon(TraceChunkSource(trace, chunk_size=100))

    def test_matches_manual_pipeline(self, trace, capture, tmp_path):
        reference = ShardedStreamingMeasurer(_config(), num_shards=2)
        source = _source(capture)
        pipeline = Pipeline(reference, rotate=True)
        pipeline.begin(source)
        for chunk in source:
            pipeline.step(chunk)
        result = pipeline.finish()

        daemon = _run_daemon(
            MeasurementDaemon(
                _source(capture),
                config=_config(),
                num_shards=2,
                epoch_seconds=1.0,
                checkpoint_dir=str(tmp_path / "ck"),
                checkpoint_every=3,
            )
        )
        assert daemon.error is None
        assert daemon.packets == result.packets == trace.num_packets
        assert daemon.measurer.estimates() == reference.estimates()
        assert _shard_bytes(daemon.measurer) == _shard_bytes(reference)

    def test_serves_packets_on_epoch_boundaries(self, trace, tmp_path):
        """Packets exactly on ``start + k * 0.1``, where rounding leaves
        some a hair either side of a floor division's boundary: the
        daemon finishes and equals the driver over the same source."""
        path = str(tmp_path / "edges.impl")
        write_pcaplite(
            Trace(
                timestamps=1.0 + (np.arange(trace.num_packets) // 400) * 0.1,
                flow_ids=trace.flow_ids,
                sizes=trace.sizes,
                flows=trace.flows,
            ),
            path,
        )
        reference = ShardedStreamingMeasurer(_config(), num_shards=2)
        expected = Pipeline(reference, rotate=True).run(
            _source(path, epoch_seconds=0.1)
        )
        daemon = _run_daemon(
            MeasurementDaemon(
                _source(path, epoch_seconds=0.1), config=_config(),
                num_shards=2, epoch_seconds=0.1,
            )
        )
        assert daemon.error is None
        assert daemon.packets == trace.num_packets
        fired = daemon.result.epochs
        assert fired and fired == expected.epochs[-len(fired):]
        assert _shard_bytes(daemon.measurer) == _shard_bytes(reference)

    def test_crash_recovery_is_bit_identical(self, trace, capture, tmp_path):
        """Satellite: kill mid-stream between checkpoints, restart,
        finish — state equals a run that never died."""
        reference = _run_daemon(
            MeasurementDaemon(
                _source(capture), config=_config(), num_shards=2,
                epoch_seconds=1.0,
            )
        )
        assert reference.error is None

        ck = str(tmp_path / "ck")
        crashed = _crash(capture, ck)
        # The crash wrote no final checkpoint: on-disk state is the last
        # *periodic* one, strictly before the crash point.
        last = crashed.store.latest()
        assert 0 < last.meta["position"] < crashed.stats()["position"]

        recovered = _restart(ck, capture)
        assert recovered.error is None
        assert recovered.recovered_from == last.seq
        assert recovered.packets == trace.num_packets
        # The chunk count resumes from the checkpoint like the packets.
        assert recovered.stats()["chunks"] == reference.stats()["chunks"]
        assert recovered.measurer.estimates() == reference.measurer.estimates()
        assert _shard_bytes(recovered.measurer) == _shard_bytes(
            reference.measurer
        )
        _assert_resumed_whole(recovered, reference)

    def test_shed_crash_recovery_is_bit_identical(self, trace, capture, tmp_path):
        """The same kill and restart while shedding: the recovered run
        resumes its stream clock from the checkpoint, so the first chunk
        after recovery is offered at the rate, and keeps the packets, it
        had in the run that never died."""
        shed = dict(target_pps=0.5 * trace.num_packets / trace.duration)
        reference = _run_daemon(
            MeasurementDaemon(
                _source(capture), config=_config(), num_shards=2,
                epoch_seconds=1.0, **shed,
            )
        )
        assert reference.error is None
        assert 0 < reference.measured_packets < trace.num_packets

        ck = str(tmp_path / "ck")
        crashed = _crash(capture, ck, **shed)
        last = crashed.store.latest()
        assert 0 < last.meta["position"] < crashed.stats()["position"]

        recovered = _restart(ck, capture, **shed)
        assert recovered.error is None
        assert recovered.recovered_from == last.seq
        assert recovered.packets == trace.num_packets
        assert recovered.measured_packets == reference.measured_packets
        assert recovered.stats()["chunks"] == reference.stats()["chunks"]
        # The controller's tallies resume from the checkpoint too, so a
        # consumer scaling estimates by 1 / keep_rate reads the same rate.
        assert recovered.stats()["controller"] == reference.stats()["controller"]
        assert recovered.measurer.estimates() == reference.measurer.estimates()
        assert _shard_bytes(recovered.measurer) == _shard_bytes(
            reference.measurer
        )
        _assert_resumed_whole(recovered, reference)

    @pytest.mark.parametrize(
        "damage",
        ["position", "epoch", "stream_time", "shard"],
    )
    def test_recovery_skips_a_checkpoint_that_does_not_decode(
        self, trace, capture, tmp_path, damage
    ):
        """A newest checkpoint with a manifest field of the wrong type,
        or a shard file cut in half, is passed over: recovery lands on
        the previous one and still ends bit-identical."""
        reference = _run_daemon(
            MeasurementDaemon(
                _source(capture), config=_config(), num_shards=2,
                epoch_seconds=1.0,
            )
        )
        ck = str(tmp_path / "ck")
        store = _crash(capture, ck).store
        previous, newest = store.list()[-2:]
        if damage == "shard":
            path = newest.shard_paths[0]
            with open(path, "rb") as handle:
                payload = handle.read()
            with open(path, "wb") as handle:
                handle.write(payload[: len(payload) // 2])
        else:
            bad = {"position": "abc", "epoch": [1], "stream_time": "soon"}
            manifest = dict(newest.meta, **{damage: bad[damage]})
            with open(newest.manifest_path, "w", encoding="utf-8") as handle:
                json.dump(manifest, handle)

        recovered = _restart(ck, capture)
        assert recovered.error is None
        assert recovered.recovered_from == previous.seq
        assert recovered.packets == trace.num_packets
        assert recovered.stats()["chunks"] == reference.stats()["chunks"]
        assert recovered.measurer.estimates() == reference.measurer.estimates()
        assert _shard_bytes(recovered.measurer) == _shard_bytes(
            reference.measurer
        )

    def test_recovery_skips_a_shard_file_with_a_flipped_byte(
        self, trace, capture, tmp_path
    ):
        """One flipped byte inside a numeric column of the newest shard
        file still decodes; its CRC32 no longer matches the manifest, so
        recovery lands on the previous checkpoint and drains to the
        uninterrupted run's state."""
        reference = _run_daemon(
            MeasurementDaemon(
                _source(capture), config=_config(), num_shards=2,
                epoch_seconds=1.0,
            )
        )
        ck = str(tmp_path / "ck")
        previous, newest = _crash(capture, ck).store.list()[-2:]
        from_bytes(_flip_numeric_byte(newest.shard_paths[0]))

        recovered = _restart(ck, capture)
        assert recovered.error is None
        assert recovered.recovered_from == previous.seq
        assert recovered.packets == trace.num_packets
        assert recovered.measurer.estimates() == reference.measurer.estimates()
        assert _shard_bytes(recovered.measurer) == _shard_bytes(
            reference.measurer
        )

    def test_recovery_skips_a_config_no_engine_accepts(
        self, trace, capture, tmp_path
    ):
        """A newest checkpoint saved intact (its CRCs match) whose shard 1
        config builds no engine (``wsaf_entries: 3000``) is passed over:
        recovery lands on the previous checkpoint."""
        reference = _run_daemon(
            MeasurementDaemon(
                _source(capture), config=_config(), num_shards=2,
                epoch_seconds=1.0,
            )
        )
        ck = str(tmp_path / "ck")
        store = _crash(capture, ck).store
        previous = store.latest()
        snapshots = store.load(previous)
        snapshots[1].config["wsaf_entries"] = 3000
        own = ("version", "seq", "shards", "shard_integrity")
        newest = store.save(
            [to_bytes(snapshot) for snapshot in snapshots],
            meta={k: v for k, v in previous.meta.items() if k not in own},
        )
        assert store.latest().seq == newest.seq

        recovered = _restart(ck, capture)
        assert recovered.error is None
        assert recovered.recovered_from == previous.seq
        assert recovered.packets == trace.num_packets
        assert recovered.measurer.estimates() == reference.measurer.estimates()
        assert _shard_bytes(recovered.measurer) == _shard_bytes(
            reference.measurer
        )

    def test_recovery_skips_out_of_range_controller_tallies(
        self, trace, capture, tmp_path
    ):
        """A newest checkpoint whose shed tallies no run can produce
        (``chunks: -5``) is passed over like any field that does not
        decode."""
        shed = dict(target_pps=0.5 * trace.num_packets / trace.duration)
        reference = _run_daemon(
            MeasurementDaemon(
                _source(capture), config=_config(), num_shards=2,
                epoch_seconds=1.0, **shed,
            )
        )
        ck = str(tmp_path / "ck")
        previous, newest = _crash(capture, ck, **shed).store.list()[-2:]
        controller = dict(newest.meta["controller"], chunks=-5)
        with open(newest.manifest_path, "w", encoding="utf-8") as handle:
            json.dump(dict(newest.meta, controller=controller), handle)

        recovered = _restart(ck, capture, **shed)
        assert recovered.error is None
        assert recovered.recovered_from == previous.seq
        assert recovered.stats()["controller"] == reference.stats()["controller"]
        assert _shard_bytes(recovered.measurer) == _shard_bytes(
            reference.measurer
        )

    @pytest.mark.parametrize("newest_policy", ["shed", "degrade"])
    def test_recovers_checkpoints_that_name_a_load_policy(
        self, trace, capture, tmp_path, newest_policy
    ):
        """Checkpoints of a shedding daemon written when a policy name
        still chose the controller carry it twice: ``load_policy`` in the
        manifest and ``policy`` in the tallies.  Recovery reads past both
        and ends equal to the uninterrupted run; tallies naming any
        policy but ``none`` or ``shed`` do not decode, so recovery falls
        back past that checkpoint."""
        shed = dict(target_pps=0.5 * trace.num_packets / trace.duration)
        reference = _run_daemon(
            MeasurementDaemon(
                _source(capture), config=_config(), num_shards=2,
                epoch_seconds=1.0, **shed,
            )
        )
        ck = str(tmp_path / "ck")
        infos = _crash(capture, ck, **shed).store.list()
        for info in infos:
            assert "load_policy" not in info.meta
            assert "policy" not in info.meta["controller"]
            policy = newest_policy if info is infos[-1] else "shed"
            legacy = dict(
                info.meta,
                load_policy="shed",
                controller=dict(info.meta["controller"], policy=policy),
            )
            with open(info.manifest_path, "w", encoding="utf-8") as handle:
                json.dump(legacy, handle)

        recovered = _restart(ck, capture, **shed)
        assert recovered.error is None
        landed = infos[-1] if newest_policy == "shed" else infos[-2]
        assert recovered.recovered_from == landed.seq
        assert _shard_bytes(recovered.measurer) == _shard_bytes(
            reference.measurer
        )
        _assert_resumed_whole(recovered, reference)

    def test_epochs_are_the_sources(self, capture):
        """The source cuts the epochs: a daemon rotating at another width
        is refused up front; ``None`` keeps the records, no rotation."""
        for width in (None, 2.5):
            with pytest.raises(ConfigurationError, match="cuts the epochs"):
                MeasurementDaemon(
                    _source(capture, epoch_seconds=width), epoch_seconds=5.0
                )
        daemon = _run_daemon(
            MeasurementDaemon(_source(capture, epoch_seconds=2.5), config=_config())
        )
        assert daemon.error is None and daemon.stats()["epoch_seconds"] is None
        assert [e.index for e in daemon.result.epochs] == [0, 1, 2]
        assert all(e.snapshot is None for e in daemon.result.epochs)

    def test_recovery_refuses_a_checkpoint_of_another_epoch_width(
        self, capture, tmp_path
    ):
        """A checkpoint cut at 1-s epochs cannot continue over a source
        cutting 0.5-s ones: ``start()`` raises instead of firing the
        missing rotations at once."""
        ck = str(tmp_path / "ck")
        _crash(capture, ck)
        daemon = MeasurementDaemon(
            _source(capture, epoch_seconds=0.5), epoch_seconds=0.5,
            num_shards=2, checkpoint_dir=ck,
        )
        with pytest.raises(ConfigurationError, match="epochs"):
            daemon.start()
        assert not daemon.running

    def test_a_refused_start_changes_nothing(self, capture, tmp_path):
        """``start()`` checks everything before it commits anything: after
        refusing a 2-shard, 1-s checkpoint (over a 0.5-s source; over a
        live feed that cannot seek) the daemon and its source read as
        before."""
        ck = str(tmp_path / "ck")
        _crash(capture, ck)
        config = _config()
        sources = [
            _source(capture, epoch_seconds=0.5),
            SocketChunkSource("127.0.0.1", 9, epoch_seconds=1.0),
        ]
        for source in sources:
            daemon = MeasurementDaemon(
                source, config=config, epoch_seconds=source.epoch_seconds,
                checkpoint_dir=ck,
            )
            with pytest.raises(ConfigurationError):
                daemon.start()
            assert not daemon.running and daemon.recovered_from is None
            assert daemon.measurer is None and daemon.pipeline is None
            assert daemon.config is config and daemon.num_shards == 1
            assert source.start_time is None
        assert list(sources[0])[0].begin == 0

    def test_recovery_skips_manifests_off_their_grid(
        self, trace, capture, tmp_path
    ):
        """Manifests whose origin moved 10^3 s back do not decode (the
        first chunk after recovering one would fire a thousand empty
        rotations): the restarted daemon starts over and equals the
        uninterrupted run."""
        reference = _run_daemon(
            MeasurementDaemon(
                _source(capture), config=_config(), num_shards=2,
                epoch_seconds=1.0,
            )
        )
        ck = str(tmp_path / "ck")
        for info in _crash(capture, ck).store.list():
            with open(info.manifest_path, "w", encoding="utf-8") as handle:
                json.dump(
                    dict(info.meta, start_time=info.meta["start_time"] - 1e3),
                    handle,
                )
        restarted = _run_daemon(
            MeasurementDaemon(
                _source(capture), config=_config(), num_shards=2,
                epoch_seconds=1.0, checkpoint_dir=ck, checkpoint_every=2,
            )
        )
        assert restarted.error is None and restarted.recovered_from is None
        assert restarted.packets == trace.num_packets
        assert _shard_bytes(restarted.measurer) == _shard_bytes(
            reference.measurer
        )
        _assert_resumed_whole(restarted, reference)

    def test_recovery_takes_the_sources_width_for_an_unknown_one(
        self, trace, capture, tmp_path
    ):
        """Older daemons built without ``epoch_seconds`` recorded a null
        width whatever their source cut; such a checkpoint recovers over
        the source's grid, bit-identically."""
        reference = _run_daemon(
            MeasurementDaemon(
                _source(capture), config=_config(), num_shards=2,
                epoch_seconds=1.0,
            )
        )
        ck = str(tmp_path / "ck")
        for info in _crash(capture, ck).store.list():
            with open(info.manifest_path, "w", encoding="utf-8") as handle:
                json.dump(dict(info.meta, epoch_seconds=None), handle)

        recovered = _restart(ck, capture)
        assert recovered.error is None and recovered.recovered_from is not None
        assert _shard_bytes(recovered.measurer) == _shard_bytes(
            reference.measurer
        )
        _assert_resumed_whole(recovered, reference)

    def test_pps_total_covers_every_chunk(self, capture):
        """A finished daemon's throughput counts every chunk's ingest
        time, not only the chunks its ``history`` kept."""
        daemon = _run_daemon(
            MeasurementDaemon(
                _source(capture, chunk_size=200), config=_config(),
                num_shards=2, history=4,
            )
        )
        result = daemon.result
        assert len(result.chunks) == 4
        assert result.elapsed_seconds > sum(c.seconds for c in result.chunks)
        assert result.pps == pytest.approx(result.packets / result.elapsed_seconds)
        assert daemon.stats()["pps_total"] == pytest.approx(result.pps)

    def test_live_feed_cannot_recover_a_checkpoint(self, capture, tmp_path):
        ck = str(tmp_path / "ck")
        first = _run_daemon(
            MeasurementDaemon(
                _source(capture), config=_config(), checkpoint_dir=ck,
                max_packets=2_000,
            )
        )
        assert first.error is None and first.store.latest() is not None
        # A socket feed cannot seek back to the checkpointed position, so
        # start() refuses before connecting anywhere.
        live = MeasurementDaemon(
            SocketChunkSource("127.0.0.1", 9), checkpoint_dir=ck
        )
        with pytest.raises(ConfigurationError, match="cannot seek"):
            live.start()
        assert not live.running

    def test_recovery_restores_config_from_checkpoint(
        self, capture, tmp_path
    ):
        ck = str(tmp_path / "ck")
        first = _run_daemon(
            MeasurementDaemon(
                _source(capture), config=_config(), epoch_seconds=1.0,
                checkpoint_dir=ck, checkpoint_every=2, max_packets=3_000,
            )
        )
        assert first.error is None
        # Restart with *no* config: it must come back from the manifest.
        second = MeasurementDaemon(
            _source(capture), epoch_seconds=1.0, checkpoint_dir=ck,
        )
        second.start()
        assert second.wait(60.0)
        assert second.config.seed == _config().seed
        assert second.config.l1_memory_bytes == _config().l1_memory_bytes

    def test_max_packets_stops_cleanly_with_final_checkpoint(
        self, capture, tmp_path
    ):
        daemon = _run_daemon(
            MeasurementDaemon(
                _source(capture), config=_config(), epoch_seconds=1.0,
                checkpoint_dir=str(tmp_path / "ck"), checkpoint_every=100,
                max_packets=2_500,
            )
        )
        assert daemon.error is None
        assert daemon.packets >= 2_500
        # Clean stop commits a final checkpoint at the stop position.
        assert daemon.store.latest().meta["position"] == daemon.stats()["position"]

    def test_throughput_comparable_to_batch(self, trace, capture):
        """Acceptance: live service pps within 2x of the batch loop."""
        batch = Pipeline(ShardedStreamingMeasurer(_config())).run(
            _source(capture, epoch_seconds=None)
        )
        daemon = _run_daemon(
            MeasurementDaemon(
                _source(capture, epoch_seconds=None), config=_config()
            )
        )
        assert daemon.error is None
        stats = daemon.stats()
        assert stats["pps_total"] >= 0.5 * batch.pps

    def test_bad_capture_ends_with_trace_format_error(self, bad_capture):
        daemon = _run_daemon(
            MeasurementDaemon(
                _source(bad_capture, block_records=500),
                config=_config(),
                epoch_seconds=1.0,
            )
        )
        assert isinstance(daemon.error, TraceFormatError)
        assert "position 1500" in str(daemon.error)
        assert 0 < daemon.packets < 1_500

    def test_stats_and_queries(self, trace, capture):
        daemon = _run_daemon(
            MeasurementDaemon(
                _source(capture), config=_config(), epoch_seconds=1.0
            )
        )
        stats = daemon.stats()
        assert stats["packets"] == trace.num_packets
        assert stats["running"] is False
        assert stats["error"] is None
        assert stats["wsaf_entries"] == daemon.measurer.wsaf_size > 0
        table = daemon.measurer.estimates()
        top = daemon.top(3)
        assert len(top) == 3
        assert top[0][1] == max(est[0] for est in table.values())
        key = top[0][0]
        assert daemon.query(key) == table[key]
        assert daemon.query(0xDEAD_BEEF_0000) is None


def _growing(trace, tmp_path):
    """``(path, feed)``: a capture holding only its header, and a call
    that appends every record of ``trace`` to it."""
    full = tmp_path / "full.impl"
    write_pcaplite(trace, full)
    data = full.read_bytes()
    path = tmp_path / "grow.impl"
    path.write_bytes(data[:HEADER_BYTES])

    def feed():
        with open(path, "ab") as handle:
            handle.write(data[HEADER_BYTES:])

    return str(path), feed


def _eventually(condition, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


class _BlockingStore(CheckpointStore):
    """A store whose first prune waits for ``release``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.entered = threading.Event()
        self.release = threading.Event()
        self.saved = []

    def save(self, payloads, meta=None):
        info = super().save(payloads, meta=meta)
        self.saved.append(info.seq)
        return info

    def prune(self, keep=None):
        self.entered.set()
        assert self.release.wait(30.0)
        return super().prune(keep)


class TestServedOnThePool:
    """The daemon's shard engines run in forked workers (where the
    platform forks); what the workers inherit, and how checkpoints
    leave the daemon lock."""

    @pytest.fixture()
    def live(self, trace, tmp_path):
        """A 2-shard daemon tailing a capture that is still empty."""
        path, feed = _growing(trace, tmp_path)
        daemon = MeasurementDaemon(
            PacketRecordChunkSource(path, chunk_size=500, follow=True, poll_interval=0.01),
            config=_config(),
            num_shards=2,
        )
        daemon.start()
        try:
            yield daemon, feed
        finally:
            daemon.stop()
            assert daemon.wait(30.0)

    @staticmethod
    def _pool(daemon, trace, feed):
        from repro.pipeline.sharded import _fork_available

        if not _fork_available():
            pytest.skip("platform cannot fork")
        feed()
        # A tailing source holds its last partial chunk back.
        _eventually(lambda: daemon.packets >= trace.num_packets - 500)
        return daemon.measurer.pool

    def test_checkpoint_files_are_written_outside_the_daemon_lock(
        self, trace, capture, tmp_path
    ):
        """While a save prunes, a query is answered, and a forced save
        waits its turn: saves keep their own sequence numbers and commit
        in capture order."""
        ck = str(tmp_path / "ck")
        daemon = MeasurementDaemon(
            _source(capture), config=_config(), num_shards=2, epoch_seconds=1.0,
            checkpoint_dir=ck, checkpoint_every=2,
        )
        daemon.store = store = _BlockingStore(ck, keep=1_000)
        forced = []
        saver = threading.Thread(target=lambda: forced.append(daemon.checkpoint_now()))
        try:
            daemon.start()
            assert store.entered.wait(30.0)
            answered = []
            querier = threading.Thread(target=lambda: answered.append(daemon.query(1)))
            querier.start()
            querier.join(5.0)
            assert answered == [None]
            saver.start()
        finally:
            store.release.set()
        saver.join(30.0)
        assert daemon.wait(60.0) and daemon.error is None
        assert forced and len(store.saved) == len(set(store.saved)) > 2
        positions = [info.meta["position"] for info in store.list()]
        assert positions == sorted(positions)

    def test_each_flow_table_ships_once(self, trace, capture, monkeypatch):
        """Chunks cut from one read share its flow table, and the workers
        get each table once, in the first slot frame that needs it."""
        from repro.pipeline.sharded import ShardWorkerPool, _fork_available
        from repro.state.codec import unpack_frame

        if not _fork_available():
            pytest.skip("platform cannot fork")
        carried = {0: 0, 1: 0}
        send = ShardWorkerPool.send

        def counted(pool, shard, frame, answered=False):
            meta, columns = unpack_frame(frame)
            assert meta["type"] != "table"
            if meta["type"] == "slot" and "key64" in columns:
                carried[shard] += 1
            return send(pool, shard, frame, answered)

        monkeypatch.setattr(ShardWorkerPool, "send", counted)
        tables = []

        class Noted(PacketRecordChunkSource):
            def __iter__(self):
                for chunk in super().__iter__():
                    tables.append(chunk.trace.flows)
                    yield chunk

        # Reads of 4,000 records, chunks of at most 1,000.
        daemon = _run_daemon(
            MeasurementDaemon(
                Noted(capture, chunk_size=1_000, epoch_seconds=1.0, block_records=4_000),
                config=_config(),
                num_shards=2,
                epoch_seconds=1.0,
            )
        )
        assert daemon.error is None
        distinct = len({id(table) for table in tables})
        assert len(tables) >= 2 * distinct > 2
        assert carried == {0: distinct, 1: distinct}

        reference = ShardedStreamingMeasurer(_config(), num_shards=2)
        source = PacketRecordChunkSource(
            capture, chunk_size=1_000, epoch_seconds=1.0, block_records=4_000
        )
        pipeline = Pipeline(reference, rotate=True)
        pipeline.begin(source)
        for chunk in source:
            pipeline.step(chunk)
        pipeline.finish()
        assert daemon.measurer.estimates() == reference.estimates()
        assert _shard_bytes(daemon.measurer) == _shard_bytes(reference)

    def test_reads_before_the_first_chunk_build_no_engines(self, trace, live, monkeypatch):
        """Before the first chunk a fresh daemon answers as fresh engines
        would without building any: the workers build their own."""
        import repro.pipeline.sharded as sharded_module

        daemon, feed = live

        def unbuilt(*args, **kwargs):
            raise AssertionError("a read before the first chunk built the shards")

        monkeypatch.setattr(sharded_module, "ShardedStreamingMeasurer", unbuilt)
        assert daemon.query(1) is None
        assert daemon.top(3) == []
        assert daemon.rotate_now() == 0
        assert daemon.stats()["wsaf_entries"] == 0
        monkeypatch.undo()
        assert self._pool(daemon, trace, feed) is not None
        assert daemon.top(1) and daemon.stats()["wsaf_entries"] > 0

    def test_a_closed_control_port_refuses_connections(self, trace, live):
        daemon, feed = live
        server = ControlServer(daemon)
        # A client connected when the first chunk forks the workers.
        client = socket.create_connection(server.address, timeout=10.0)
        try:
            assert self._pool(daemon, trace, feed) is not None
            server.close()
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(server.address, timeout=10.0).close()
        finally:
            client.close()
            server.close()

    def test_a_connection_the_server_closes_reads_eof(self, trace, live):
        """The server's end of a connection open when the workers fork
        is the server's alone: when it closes, the client reads EOF."""
        daemon, feed = live
        with ControlServer(daemon) as server:
            with socket.create_connection(server.address, timeout=10.0) as client:
                client.sendall(b"ping\n")
                assert client.recv(64).startswith(b"ok ")
                assert self._pool(daemon, trace, feed) is not None
                # The server reads EOF, and closes its end.
                client.shutdown(socket.SHUT_WR)
                assert client.recv(64) == b""

    def test_a_worker_sent_sigint_keeps_serving(self, trace, live):
        daemon, feed = live
        worker = self._pool(daemon, trace, feed)._procs[0]
        os.kill(worker.pid, signal.SIGINT)
        time.sleep(0.2)
        assert worker.is_alive()
        key, packets, _bytes = daemon.top(1)[0]
        assert daemon.query(key)[0] == packets
        assert daemon.error is None

    def test_terminate_ends_a_worker(self, trace, live):
        """Even when the daemon's process handles SIGTERM (as ``serve``
        does), ``terminate()`` ends a worker it forked."""
        daemon, feed = live
        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            pool = self._pool(daemon, trace, feed)
        finally:
            signal.signal(signal.SIGTERM, previous)
        worker = pool._procs[1]
        worker.terminate()
        worker.join(10.0)
        assert not worker.is_alive()


class TestControlServer:
    @pytest.fixture()
    def served(self, capture):
        daemon = _run_daemon(
            MeasurementDaemon(
                _source(capture), config=_config(), epoch_seconds=1.0
            )
        )
        with ControlServer(daemon) as server:
            yield daemon, server.address

    def test_ping(self, served):
        _daemon, address = served
        assert send_command(address, "ping") == (True, "pong")

    def test_stats(self, served, trace):
        daemon, address = served
        ok, stats = send_command(address, "stats")
        assert ok and stats["packets"] == trace.num_packets

    def test_query_and_top(self, served):
        daemon, address = served
        ok, top = send_command(address, "top 2")
        assert ok and len(top) == 2
        key = top[0][0]
        ok, reply = send_command(address, f"query {key}")
        assert ok and reply["key"] == key
        assert reply["packets"] == pytest.approx(top[0][1])
        ok, miss = send_command(address, "query 1")
        assert ok and miss["packets"] is None

    def test_rotate(self, capture):
        # No epochs, so nothing expires before the verb rotates.
        config = replace(_config(), gc_timeout=1.0)
        daemon = _run_daemon(
            MeasurementDaemon(_source(capture, epoch_seconds=None), config=config)
        )
        before = daemon.stats()["wsaf_entries"]
        with ControlServer(daemon) as server:
            ok, reply = send_command(server.address, "rotate")
        assert ok
        assert 0 < reply["expired"] == before - daemon.stats()["wsaf_entries"]

    def test_errors_are_reported_in_band(self, served):
        _daemon, address = served
        ok, message = send_command(address, "frobnicate")
        assert not ok and "frobnicate" in message
        ok, _message = send_command(address, "query")
        assert not ok
        # snapshot without a checkpoint dir is an in-band error too
        ok, message = send_command(address, "snapshot")
        assert not ok and "checkpoint" in message

    def test_snapshot_with_store(self, capture, tmp_path):
        daemon = _run_daemon(
            MeasurementDaemon(
                _source(capture), config=_config(), epoch_seconds=1.0,
                checkpoint_dir=str(tmp_path / "ck"), checkpoint_every=10_000,
            )
        )
        with ControlServer(daemon) as server:
            ok, reply = send_command(server.address, "snapshot")
        assert ok and os.path.exists(reply["path"])


class TestServeCLI:
    """End-to-end over the real executable: serve, hard-kill, recover."""

    def _run(self, *argv, **kwargs):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env=env, capture_output=True, text=True, timeout=120, **kwargs,
        )

    @staticmethod
    def _summary(stdout: str) -> "tuple[str, str]":
        """(packets, wsaf flows) off the final ``served ...`` line —
        the run-invariant parts (pps is wall-clock noise)."""
        line = stdout.strip().splitlines()[-1]
        assert line.startswith("served "), line
        words = line.split()
        return words[1], words[-3]

    def test_serve_batch_and_kill_recover(self, capture, tmp_path):
        ck = str(tmp_path / "ck")
        serve_args = [
            "serve", capture, "--epoch-seconds", "1", "--chunk-size", "500",
            "--checkpoint-dir", ck, "--checkpoint-every", "2",
            "--l1-kb", "2", "--wsaf-bits", "11",
        ]
        # Uninterrupted pass: the baseline summary line.
        clean = self._run(*serve_args)
        assert clean.returncode == 0, clean.stderr
        baseline = self._summary(clean.stdout)

        # Fresh directory, kill a follow-mode server mid-stream.
        ck2 = str(tmp_path / "ck2")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(
            os.path.dirname(__file__), "..", "src"
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", capture, "--follow",
                "--epoch-seconds", "1", "--chunk-size", "500",
                "--checkpoint-dir", ck2, "--checkpoint-every", "2",
                "--control-port", "0", "--l1-kb", "2", "--wsaf-bits", "11",
            ],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            assert line.startswith("control "), line
            host, _, port = line.split()[1].partition(":")
            deadline = time.monotonic() + 60.0
            packets = 0
            while time.monotonic() < deadline:
                ok, stats = send_command((host, int(port)), "stats")
                assert ok, stats
                packets = stats["packets"]
                if packets and any(
                    name.endswith(".json") for name in os.listdir(ck2)
                ):
                    break
                time.sleep(0.1)
            assert packets > 0
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            proc.stdout.close()

        # Recover without --follow: drains the capture to the end and
        # lands on the same packet count and WSAF occupancy as the
        # uninterrupted pass (pps is wall-clock and may differ).
        recover_args = [
            arg if arg != ck else ck2 for arg in serve_args
        ]
        recovered = self._run(*recover_args)
        assert recovered.returncode == 0, recovered.stderr
        assert "recovered from checkpoint" in recovered.stdout
        assert self._summary(recovered.stdout) == baseline

    def test_control_cli_round_trip(self, capture, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(
            os.path.dirname(__file__), "..", "src"
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", capture, "--follow",
                "--chunk-size", "500", "--control-port", "0",
                "--l1-kb", "2", "--wsaf-bits", "11",
            ],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            address = line.split()[1]
            out = self._run("control", address, "ping")
            assert out.returncode == 0 and json.loads(out.stdout) == "pong"
            out = self._run("control", address, "stats")
            assert out.returncode == 0
            assert "packets" in json.loads(out.stdout)
            out = self._run("control", address, "stop")
            assert out.returncode == 0
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            proc.stdout.close()

    def test_serve_bad_capture_fails(self, bad_capture):
        out = self._run(
            "serve", bad_capture, "--chunk-size", "500",
            "--l1-kb", "2", "--wsaf-bits", "11",
        )
        assert out.returncode == 1
        assert "error: ingest failed" in out.stderr
        assert "position 1500" in out.stderr
