"""The always-on measurement daemon.

:class:`MeasurementDaemon` wraps the incremental :class:`~repro.
pipeline.driver.Pipeline` loop in a background ingest thread and keeps
the engine continuously queryable: packets stream in from any unbounded
:class:`~repro.pipeline.source.ChunkSource` (a tailed pcap-lite file, a
socket feed), epochs rotate on the grid the source cuts, and every N
chunks the complete engine state — per-shard mid-stream snapshots plus
the driver's :class:`~repro.pipeline.driver.RunProgress` record — is
checkpointed atomically through
:class:`~repro.service.checkpoint.CheckpointStore`.  The daemon keeps no
stream counts of its own: ``packets``, ``stats()`` and every manifest
read the driver's record.

The shard engines run in a fork pool
(:func:`~repro.pipeline.sharded._serving_measurer`), forked at the first
chunk; where the platform cannot fork they stay in-process.  This
process parses, routes and writes the packet ring; the regulator, the
WSAF and epoch expiry run in the workers.  Every read is asked under the
daemon lock and answered after it is released: a query, ``top``,
``stats()`` or a checkpoint capture sends its request in frame order and
waits for the workers' reply without holding up ingest, and a checkpoint
writes its files under a save lock alone.

Crash recovery is the point: :meth:`MeasurementDaemon.start` looks for
the newest complete checkpoint whose record decodes
(:meth:`~repro.pipeline.driver.RunProgress.from_meta`) and whose shard
snapshots load and restore (a damaged newer one is skipped), restores
the measurer bit-identically (unknown-length stream cursors resume
mid-block), seeks the source back to the checkpointed packet position,
and hands the record to ``Pipeline.begin(source, resume=...)``, which
continues the epochs, counts, stream clock and load-control tallies
where they left off.  Re-feeding the tail of the capture then
reproduces *exactly* the estimates, regulator words, epoch records and
counts of a run that never died — the invariant ``tests/test_service.py``
pins.

Crash semantics are deliberate: a clean :meth:`stop` writes a final
checkpoint and finalizes the stream, but an ingest error does *not*
checkpoint — the on-disk state stays at the last periodic checkpoint,
exactly what a hard kill would leave.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.core import InstaMeasureConfig
from repro.errors import ConfigurationError, ShardWorkerError, SnapshotError
from repro.pipeline.control import build_load_controller
from repro.pipeline.driver import Pipeline, RunProgress
from repro.pipeline.sharded import ShardedStreamingMeasurer, _serving_measurer
from repro.service.checkpoint import CheckpointStore

#: How many (wall_time, packets) samples back the "recent" pps window
#: reaches (one sample per ingested chunk).
_RECENT_WINDOW = 32


class MeasurementDaemon:
    """Run a measurer over an unbounded source, checkpointed and queryable.

    Args:
        source: an unbounded :class:`~repro.pipeline.source.ChunkSource`
            (``total_packets is None``).  For recovery it must support
            ``seek_packets(offset)`` — the pcap-lite file source does.  A
            live socket feed cannot seek: it runs fine without a
            checkpoint to recover from, but :meth:`start` raises
            :class:`~repro.errors.ConfigurationError` once the checkpoint
            directory holds one.
        config: engine configuration (default
            :class:`~repro.core.instameasure.InstaMeasureConfig`), used
            for a fresh start; a recovered daemon takes its config from
            the checkpoint instead.
        num_shards: shard the engine by flow key, one forked worker per
            shard (in-process where the platform cannot fork).  ``1``
            keeps a single engine; either way the checkpoint format is a
            list of per-shard snapshots.
        epoch_seconds: rotate at every epoch boundary the source cuts;
            it must equal the source's ``epoch_seconds`` (the source owns
            the epoch grid), or :class:`~repro.errors.ConfigurationError`
            is raised.  ``None`` keeps the epoch records without
            rotating.
        checkpoint_dir: where to persist checkpoints; ``None`` disables
            checkpointing (the daemon is then purely in-memory).
        checkpoint_every: checkpoint after this many ingested chunks.
        keep_checkpoints: retention passed to :class:`CheckpointStore`.
        max_packets: stop the source once this many packets have been
            measured (recovered packets count) — a test/CI convenience.
        history: bound on the driver's per-chunk/per-epoch records.
        load_policy: backpressure policy (``none`` / ``shed``, see
            :mod:`repro.pipeline.control`) — the daemon's rate-limit
            knob.  ``shed`` requires ``target_pps`` and surfaces its live
            :class:`~repro.pipeline.control.ControllerStats` under
            ``stats()["controller"]`` (and so through the control
            protocol's ``stats`` and ``metrics`` verbs).
        target_pps: the sustained stream-clock rate the policy defends.
    """

    def __init__(
        self,
        source,
        config: "InstaMeasureConfig | None" = None,
        num_shards: int = 1,
        epoch_seconds: "float | None" = None,
        checkpoint_dir: "str | None" = None,
        checkpoint_every: int = 50,
        keep_checkpoints: int = 3,
        max_packets: "int | None" = None,
        history: int = 256,
        load_policy: str = "none",
        target_pps: "float | None" = None,
    ) -> None:
        if getattr(source, "total_packets", None) is not None:
            raise ConfigurationError(
                "the daemon serves unbounded sources; for a bounded trace "
                "use Pipeline.run"
            )
        if epoch_seconds is not None and epoch_seconds != source.epoch_seconds:
            raise ConfigurationError(
                f"epoch_seconds {epoch_seconds} differs from the source's "
                f"{source.epoch_seconds}: the source cuts the epochs"
            )
        if checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.source = source
        self.config = config or InstaMeasureConfig()
        self.num_shards = num_shards
        self.epoch_seconds = epoch_seconds
        self.checkpoint_every = checkpoint_every
        self.max_packets = max_packets
        self.load_policy = load_policy
        self.target_pps = target_pps
        # Validate the policy/target combination at construction time
        # (the controller itself is rebuilt in start(), after recovery
        # may have replaced the config whose seed it samples with).
        build_load_controller(load_policy, target_pps, seed=self.config.seed)
        self.store = (
            CheckpointStore(checkpoint_dir, keep=keep_checkpoints)
            if checkpoint_dir is not None
            else None
        )
        self.history = history
        self.measurer = None
        self.pipeline: "Pipeline | None" = None
        self.result = None
        self.error: "BaseException | None" = None
        self.recovered_from: "int | None" = None

        self._lock = threading.RLock()
        #: Held from a checkpoint's capture to its commit, taken before
        #: the daemon lock: saves commit in capture order, one at a time.
        self._save_lock = threading.Lock()
        self._thread: "threading.Thread | None" = None
        self._finished = threading.Event()
        self._chunks_since_checkpoint = 0
        self._started_at: "float | None" = None
        self._recent: "deque[tuple[float, int]]" = deque(maxlen=_RECENT_WINDOW)

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "MeasurementDaemon":
        """Recover from the latest checkpoint (if any), then start the
        ingest thread.  Returns ``self`` for chaining.

        A start that raises (over a checkpoint of another epoch grid, or
        a source that cannot seek) changes neither the daemon nor the
        source's position or origin.
        """
        if self._thread is not None:
            raise ConfigurationError("the daemon is already running")
        seq, resume, restored = self._recover()
        measurer = _serving_measurer(
            self.config,
            self.num_shards,
            restored,
            slot_packets=getattr(self.source, "chunk_size", None),
        )
        pipeline = Pipeline(
            measurer,
            rotate=self.epoch_seconds is not None,
            history=self.history,
            controller=build_load_controller(
                self.load_policy, self.target_pps, seed=measurer.config.seed
            ),
        )
        if resume is not None:
            # Refuse before anything moves: a source that cannot seek
            # raises in seek_packets, and one that can is checked against
            # the record's epoch grid first.
            if getattr(self.source, "seekable", False):
                resume.check_source(self.source)
            self.source.seek_packets(resume.position)
        pipeline.begin(self.source, resume=resume)
        self.measurer, self.pipeline = measurer, pipeline
        self.config, self.num_shards = measurer.config, measurer.num_shards
        self.recovered_from = seq
        self._started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._ingest_loop, name="measurement-daemon", daemon=True
        )
        self._thread.start()
        return self

    def _recover(self):
        """``(seq, run record, measurer)`` of the newest checkpoint that
        decodes, loads and restores, or three ``None`` when none does."""
        for info in reversed(self.store.list() if self.store is not None else []):
            try:
                progress = RunProgress.from_meta(info.meta)
                measurer = ShardedStreamingMeasurer.from_snapshots(
                    self.store.load(info)
                )
            except SnapshotError:
                continue
            return info.seq, progress, measurer
        return None, None, None

    def _ingest_loop(self) -> None:
        try:
            for chunk in self.source:
                with self._lock:
                    # The first chunk forks the pool: set-up, not ingest.
                    self.measurer.open()
                    self.pipeline.step(chunk)
                    self._chunks_since_checkpoint += 1
                    self._recent.append((time.monotonic(), self.packets))
                    due = (
                        self.store is not None
                        and self._chunks_since_checkpoint >= self.checkpoint_every
                    )
                if due:
                    self._checkpoint()
                if (
                    self.max_packets is not None
                    and self.packets >= self.max_packets
                ):
                    self.source.stop()
            # Clean end of stream: commit the final state, then close the
            # stream (and the pool) so estimates read a finished run.
            if self.store is not None:
                self._checkpoint()
            with self._lock:
                self.result = self.pipeline.finish()
        except BaseException as exc:  # crash path: NO final checkpoint
            self.error = exc
            with self._lock:
                self.pipeline.abort()
                # The measurer keeps the state its workers reached.
                self.measurer.close()
        finally:
            self._finished.set()

    def stop(self) -> None:
        """Ask the source to wind down; :meth:`wait` for completion."""
        stop = getattr(self.source, "stop", None)
        if callable(stop):
            stop()

    def wait(self, timeout: "float | None" = None) -> bool:
        """Block until the ingest thread exits; ``True`` when it did."""
        if self._thread is None:
            return True
        self._thread.join(timeout)
        return not self._thread.is_alive()

    def __enter__(self) -> "MeasurementDaemon":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
        self.wait(timeout=30.0)

    # -- checkpointing ---------------------------------------------------------

    def _checkpoint(self):
        """Capture the state under the daemon lock, then write it under the
        save lock alone: queries go on while the files are written, and
        saves still commit in capture order."""
        with self._save_lock:
            with self._lock:
                payloads = self.measurer.shard_payloads()
                meta = {
                    **self.pipeline.progress.as_meta(),
                    "num_shards": self.num_shards,
                    "load_policy": self.load_policy,
                }
                self._chunks_since_checkpoint = 0
            return self.store.save(payloads, meta=meta)

    def checkpoint_now(self):
        """Force a checkpoint immediately; returns its info."""
        if self.store is None:
            raise ConfigurationError("the daemon has no checkpoint directory")
        return self._checkpoint()

    # -- queries ---------------------------------------------------------------

    @property
    def progress(self) -> RunProgress:
        """The driver's record of the stream (a fresh one before
        :meth:`start`): how far it was read, recovered packets included."""
        return self.pipeline.progress if self.pipeline is not None else RunProgress()

    @property
    def packets(self) -> int:
        """Packets the stream offered so far, including recovered ones."""
        return self.progress.packets

    @property
    def measured_packets(self) -> int:
        """Packets that actually reached the measurer (equals
        :attr:`packets` unless a load policy shed some)."""
        return self.progress.measured_packets

    @property
    def running(self) -> bool:
        return self._thread is not None and not self._finished.is_set()

    def query(self, key: int) -> "tuple[float, float] | None":
        """Current ``(packets, bytes)`` estimate for one flow key."""
        key = int(key)
        with self._lock:
            found = self.measurer.estimates(flow_keys=[key])
        return found.get(key)

    def top(self, k: int) -> "list[tuple[int, float, float]]":
        """The ``k`` largest flows by packet estimate:
        ``[(key64, packets, bytes), ...]`` descending."""
        k = max(0, int(k))
        with self._lock:
            candidates = self.measurer.top(k)
        ranked = sorted(
            candidates.items(), key=lambda item: item[1][0], reverse=True
        )
        return [(key, est[0], est[1]) for key, est in ranked[:k]]

    def rotate_now(self) -> int:
        """Rotate every shard at the current stream time; returns how
        many WSAF entries the rotation expired."""
        with self._lock:
            now = self.progress.stream_time
            before = self.measurer.wsaf_sizes()
            self.measurer.rotate(now if now is not None else 0.0)
            after = self.measurer.wsaf_sizes()
        return sum(before) - sum(after)

    def stats(self) -> "dict":
        """Live operational counters (what the control ``stats`` verb
        serves)."""
        with self._lock:
            recent = list(self._recent)
            progress = self.progress
            meta = progress.as_meta()
            pps_total = (
                progress.ingest_packets / progress.ingest_seconds
                if progress.ingest_seconds > 0
                else 0.0
            )
            failure = self.error
            try:
                sizes = self.measurer.wsaf_sizes() if self.measurer is not None else ()
            except ShardWorkerError as exc:
                sizes, failure = (), failure or exc
        try:
            wsaf_entries = sum(sizes)
        except ShardWorkerError as exc:
            # A dead worker counts nothing: its records read 0, and
            # ``error`` names it before the ingest thread sees it too.
            wsaf_entries, failure = 0, failure or exc
        pps_recent = 0.0
        if len(recent) >= 2:
            dt = recent[-1][0] - recent[0][0]
            dp = recent[-1][1] - recent[0][1]
            pps_recent = dp / dt if dt > 0 else 0.0
        return {
            "running": self.running,
            "packets": meta["packets"],
            "measured_packets": meta["measured_packets"],
            "position": meta["position"],
            "chunks": meta["chunks"],
            "epoch": meta["epoch"],
            "epoch_seconds": self.epoch_seconds,
            "num_shards": self.num_shards,
            "wsaf_entries": wsaf_entries,
            "load_policy": self.load_policy,
            "target_pps": self.target_pps,
            "controller": meta["controller"],
            "pps_total": pps_total,
            "pps_recent": pps_recent,
            "stream_time": meta["stream_time"],
            "start_time": meta["start_time"],
            "uptime_seconds": (
                time.monotonic() - self._started_at
                if self._started_at is not None
                else 0.0
            ),
            "recovered_from": self.recovered_from,
            "error": repr(failure) if failure is not None else None,
        }
