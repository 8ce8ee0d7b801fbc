"""Process-sharded ingestion — N streaming workers, one exact merged state.

A :class:`ShardedPipeline` consumes any
:class:`~repro.pipeline.source.ChunkSource` and routes each chunk as it
arrives: :meth:`repro.state.ShardRouter.split_chunk` partitions the
chunk's packets into per-shard sub-traces plus their *global* bit-stream
positions, so memory stays bounded by the chunk size — a
:class:`~repro.pipeline.source.FileChunkSource` streams straight into
sharded workers without the whole trace ever being routed at once.

The merged state's ``estimates()`` are **exactly equal** to a
single-process run of the same stream, because the sharding is exact on
every axis:

* *Regulator*: flows sharing an L1 word land in the same shard, so each
  shard's full-size, same-seed regulator evolves its words precisely as
  the single run; disjoint word ranges OR together losslessly.
* *Randomness*: each worker opens the same global draw
  (``InstaMeasure.begin_stream(total)``) and gathers each sub-chunk's
  bits at its packets' global positions (``ingest(chunk, positions=...)``),
  so its packets consume exactly the bits the single run would hand them.
* *WSAF*: per-flow accumulation order is preserved (chunks arrive in
  stream order and routing is order-stable within a shard), and disjoint
  key sets concatenate.  The equality holds while the WSAF experiences
  no evictions or GC — with the paper's 2^20-entry table and ~1 %
  regulation rate, the working set of realistic traces fits (the
  equivalence tests assert zero evictions).

Every run goes through the :class:`~repro.pipeline.driver.Pipeline`
driver, the repository's one run loop, so a load controller applies to
a sharded run exactly as to a single-process one.  The measurer it
drives is :class:`ShardedStreamingMeasurer` in-process — N engines
behind one router, also what the service daemon runs — or, with
``parallel=True``, a :class:`ShardWorkerPool` of long-lived forked
workers that receive routed sub-chunks incrementally over pipes as
packed NumPy frames (:func:`repro.state.codec.pack_frame`), keep engine
state resident between chunks, and ship one IMSNAP payload back at
finalize — fork and import cost is paid once per run, not once per
shard-chunk.  Both forms are bit-identical; in-process execution is the
fallback wherever fork is unavailable (with a :class:`RuntimeWarning`,
since the caller asked for parallelism it will not get).

Unknown-length sources (``total_packets is None`` — the always-on
service's inputs) shard too: the regulator/WSAF disjointness argument is
unchanged, but with no stream total there is no global draw to position
against, so each shard consumes its own unknown-length block-drawn
stream.  The merged state is then a well-defined sharded measurement —
deterministic for a given routing, exact merges, per-shard checkpoints —
but not a bit-replica of a single-process unbounded run.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, ShardWorkerError, SnapshotError
from repro.pipeline.driver import Pipeline
from repro.pipeline.source import (
    DEFAULT_CHUNK_SIZE,
    ChunkSource,
    TraceChunkSource,
)
from repro.state import MeasurementSnapshot, ShardRouter, from_bytes, merge, to_bytes
from repro.state.codec import pack_frame, unpack_frame
from repro.state.shard import l1_sketch
from repro.traffic.packet import Trace

#: Mask extracting the low 64 bits of a packed 104-bit 5-tuple.
_LOW64 = (1 << 64) - 1


@dataclass
class ShardedResult:
    """Outcome of a sharded run: the merged state plus per-shard stats.

    ``stage_seconds`` breaks the run into its serial and parallel parts:
    ``route_s`` (parent-side chunk routing), ``ipc_s`` (frame packing +
    pipe writes + final snapshot collection; 0 for in-process runs),
    ``ingest_s`` (the slowest shard's engine time — the parallelizable
    part), and ``merge_s`` (snapshot capture or decode + fold).  The
    stages overlap with each other in a fork-parallel run, so they need
    not sum to ``elapsed_seconds`` (end-to-end wall clock).
    """

    num_shards: int
    snapshot: MeasurementSnapshot
    shard_packets: "list[int]" = field(default_factory=list)
    shard_insertions: "list[int]" = field(default_factory=list)
    stage_seconds: "dict[str, float]" = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    parallel: bool = False
    #: Packets the source offered before any load-shedding (== packets
    #: when the run had no controller).
    offered_packets: int = 0
    #: Per-chunk controller decisions / aggregate stats, when the run
    #: had a load controller (see repro.pipeline.control); else []/None.
    decisions: list = field(default_factory=list)
    controller_stats: "dict | None" = None

    @property
    def packets(self) -> int:
        return sum(self.shard_packets)

    @property
    def insertions(self) -> int:
        return sum(self.shard_insertions)

    @property
    def load_shares(self) -> "list[float]":
        """Fraction of packets each shard received."""
        total = self.packets
        if total == 0:
            return [0.0] * self.num_shards
        return [count / total for count in self.shard_packets]

    def estimates(self, flow_keys=None) -> "dict[int, tuple[float, float]]":
        """Merged per-flow ``{key64: (packets, bytes)}`` estimates."""
        return self.snapshot.estimates(flow_keys=flow_keys)

    def restore(self, accountant=None):
        """Materialize the merged state as a live engine."""
        return self.snapshot.restore(accountant=accountant)

    def estimates_for(self, trace: Trace) -> "tuple[np.ndarray, np.ndarray]":
        """Per-flow (packets, bytes) arrays aligned with ``trace.flows``."""
        from repro.core.instameasure import aligned_estimates

        return aligned_estimates(self.snapshot, trace)


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


# -- worker-side flow directory ----------------------------------------------


class _ShardFlowDirectory:
    """A worker's growing flow table, fed incrementally by the parent.

    Duck-types the slice of :class:`~repro.traffic.packet.FlowTable` the
    engines consume — ``key64``, ``packed_tuples()``, ``len()`` — so a
    worker-side :class:`Trace` can reference it directly.  The parent
    ships each flow's precomputed ``key64`` and packed-5-tuple halves
    exactly once (on the first chunk where the flow appears), so the
    per-chunk frames carry only the *new* flows' identity.
    """

    def __init__(self) -> None:
        self.key64 = np.empty(0, dtype=np.uint64)
        self._packed: "list[int]" = []

    def extend(
        self, key64: np.ndarray, tuple_lo: np.ndarray, tuple_hi: np.ndarray
    ) -> None:
        if key64.size == 0:
            return
        self.key64 = np.concatenate([self.key64, key64.astype(np.uint64)])
        self._packed.extend(
            (high << 64) | low
            for high, low in zip(tuple_hi.tolist(), tuple_lo.tolist())
        )

    def __len__(self) -> int:
        return int(self.key64.size)

    def packed_tuples(self) -> "list[int]":
        return self._packed


class _ShardFlowSync:
    """Parent-side record of which flows a worker has already been sent.

    Maps the current flow table's global flow ids to the worker's dense
    local ids, handing back the chunk's localized ``flow_ids`` plus the
    indices of flows the worker has not seen yet (to be shipped in this
    frame).  Only the current table is kept: a chunk on another table
    starts a fresh map, and its frame tells the worker to start a fresh
    directory, so each flow ships once per flow table and sources that
    build a table per chunk (pcap-lite, sockets) hold one table at a time.
    """

    def __init__(self) -> None:
        self._flows = None
        self._mapping: "np.ndarray | None" = None
        self.count = 0

    def localize(self, flows, flow_ids: np.ndarray):
        """``(local_ids, fresh, new_table)`` for one chunk; ``new_table``
        is true when the chunk replaces an earlier table."""
        new_table = False
        if flows is not self._flows:
            new_table = self._flows is not None
            self._flows = flows
            self._mapping = np.full(len(flows), -1, dtype=np.int64)
            self.count = 0
        mapping = self._mapping
        local_ids = mapping[flow_ids]
        unmapped = local_ids < 0
        pending = flow_ids[unmapped]
        # Distinct unmapped ids by sort and adjacent compare: a plain
        # np.unique takes NumPy's (>= 2.3) far slower hash path.
        fresh = np.sort(pending)
        if fresh.size > 1:
            fresh = fresh[np.concatenate(([True], fresh[1:] != fresh[:-1]))]
        if fresh.size:
            mapping[fresh] = np.arange(
                self.count, self.count + fresh.size, dtype=np.int64
            )
            self.count += int(fresh.size)
            local_ids[unmapped] = mapping[pending]
        return local_ids, fresh, new_table


def _fresh_flow_columns(flows, index: np.ndarray):
    """``(key64, tuple_lo, tuple_hi)`` for the flows at ``index``."""
    key64 = flows.key64[index]
    packed_halves = getattr(flows, "_packed_halves", None)
    if packed_halves is not None:
        hi, lo = packed_halves(index)
    else:
        # A duck-typed table with no 5-tuple columns.
        packed = flows.packed_tuples()
        values = [packed[i] for i in index.tolist()]
        lo = np.array([v & _LOW64 for v in values], dtype=np.uint64)
        hi = np.array([v >> 64 for v in values], dtype=np.uint64)
    return key64, lo, hi


# -- the persistent worker pool ----------------------------------------------


def _worker_main(conn, parent_conn, config, key_range, total) -> None:
    """Child-process loop: ingest framed sub-chunks until finalize.

    Protocol (all messages are :func:`repro.state.codec.pack_frame`
    payloads over ``conn``):

    * ``{"type": "chunk"}`` with columns ``timestamps`` / ``flow_ids``
      (worker-local) / ``sizes`` / ``positions`` (global) plus the
      not-yet-seen flows' ``new_key64`` / ``new_tuple_lo`` /
      ``new_tuple_hi`` — ingested immediately, engine state kept live.
      ``"new_table": true`` in the meta means the chunk's flows come from
      a new flow table: the worker starts a fresh flow directory first.
    * ``{"type": "finalize"}`` — finalize the stream and reply with one
      ``{"type": "done"}`` frame carrying per-shard counters and the
      shard's IMSNAP snapshot payload, then exit.

    Any failure is reported back as a ``{"type": "error"}`` frame with
    the full traceback; the parent raises it as a
    :class:`~repro.errors.ShardWorkerError`.
    """
    if parent_conn is not None:
        parent_conn.close()
    try:
        from repro.core.instameasure import InstaMeasure

        engine = InstaMeasure(config)
        engine.begin_stream(total=total)
        directory = _ShardFlowDirectory()
        ingest_s = 0.0
        while True:
            meta, columns = unpack_frame(conn.recv_bytes())
            kind = meta.get("type")
            if kind == "chunk":
                if meta.get("new_table"):
                    directory = _ShardFlowDirectory()
                directory.extend(
                    columns["new_key64"],
                    columns["new_tuple_lo"],
                    columns["new_tuple_hi"],
                )
                sub = Trace(
                    timestamps=columns["timestamps"],
                    flow_ids=columns["flow_ids"],
                    sizes=columns["sizes"],
                    flows=directory,
                )
                begin = time.perf_counter()
                engine.ingest(sub, positions=columns.get("positions"))
                ingest_s += time.perf_counter() - begin
            elif kind == "finalize":
                result = engine.finalize()
                payload = to_bytes(engine.snapshot(key_range=key_range))
                conn.send_bytes(
                    pack_frame(
                        {
                            "type": "done",
                            "packets": result.packets,
                            "insertions": result.insertions,
                            "elapsed": result.elapsed_seconds,
                            "ingest_s": ingest_s,
                        },
                        {"snapshot": np.frombuffer(payload, dtype=np.uint8)},
                    )
                )
                return
            else:
                raise ShardWorkerError(f"unknown frame type {kind!r}")
    except BaseException as exc:
        try:
            conn.send_bytes(
                pack_frame(
                    {
                        "type": "error",
                        "message": f"{type(exc).__name__}: {exc}",
                        "traceback": traceback.format_exc(),
                    },
                    {},
                )
            )
        except Exception:
            pass  # parent will see EOF and raise ShardWorkerError
    finally:
        conn.close()


class ShardWorkerPool:
    """Long-lived forked shard workers fed incrementally over pipes.

    One worker process per shard, forked once at construction; each
    holds a live engine with the global randomness draw and accumulates
    state across every sub-chunk it receives, so per-run cost is one
    fork + one snapshot ship per worker no matter how many chunks
    stream through.  The kernel's FSM tables are built (or fetched from
    the process cache) before the fork, so workers inherit them.  Worker
    failures surface promptly as :class:`~repro.errors.ShardWorkerError`
    (never a hang): a worker that raises ships its traceback back as an
    error frame, and a worker that dies outright breaks the pipe, which
    the next :meth:`send` or :meth:`finalize` turns into the same error.
    """

    def __init__(self, config, key_ranges, total: int, context=None) -> None:
        from repro.kernels import geometry_tables, runs_kernel

        if context is None:
            context = multiprocessing.get_context("fork")
        if runs_kernel(config):
            # Built once here, every forked worker inherits the kernel's
            # FSM tables copy-on-write instead of rebuilding them.
            l1 = l1_sketch(config)
            geometry_tables(l1.vector_bits, l1.saturation_bits)
        self.num_shards = len(key_ranges)
        self._conns = []
        self._procs = []
        self._closed = False
        for shard, key_range in enumerate(key_ranges):
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=_worker_main,
                args=(child_conn, parent_conn, config, key_range, total),
                name=f"shard-worker-{shard}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(process)

    def _raise_worker_failure(self, shard: int, cause=None):
        """Turn a dead or failed worker into a ShardWorkerError."""
        detail = ""
        try:
            if self._conns[shard].poll(1.0):
                meta, _columns = unpack_frame(self._conns[shard].recv_bytes())
                if meta.get("type") == "error":
                    detail = meta.get("traceback") or meta.get("message", "")
        except (EOFError, OSError, SnapshotError):
            pass
        if detail:
            message = f"shard worker {shard} failed:\n{detail}"
        else:
            message = f"shard worker {shard} died without reporting an error"
        raise ShardWorkerError(message) from cause

    def send(self, shard: int, frame: bytes) -> None:
        """Ship one packed frame to ``shard``'s worker."""
        conn = self._conns[shard]
        # An unsolicited message waiting here can only be an error frame:
        # surface it instead of writing into a pipe nobody reads.
        if conn.poll(0):
            self._raise_worker_failure(shard)
        try:
            conn.send_bytes(frame)
        except (BrokenPipeError, OSError) as exc:
            self._raise_worker_failure(shard, exc)

    def finalize(self) -> "list[tuple[dict, bytes]]":
        """Ask every worker to finalize; collect ``(stats, snapshot_bytes)``."""
        frame = pack_frame({"type": "finalize"}, {})
        for shard in range(self.num_shards):
            try:
                self._conns[shard].send_bytes(frame)
            except (BrokenPipeError, OSError) as exc:
                self._raise_worker_failure(shard, exc)
        replies: "list[tuple[dict, bytes]]" = []
        for shard in range(self.num_shards):
            try:
                meta, columns = unpack_frame(self._conns[shard].recv_bytes())
            except (EOFError, OSError) as exc:
                self._raise_worker_failure(shard, exc)
            if meta.get("type") == "error":
                detail = meta.get("traceback") or meta.get("message", "")
                raise ShardWorkerError(
                    f"shard worker {shard} failed:\n{detail}"
                )
            replies.append((meta, columns["snapshot"].tobytes()))
        return replies

    def close(self) -> None:
        """Close every pipe and reap the worker processes."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        for process in self._procs:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- the sharded pipeline ----------------------------------------------------


class ShardedPipeline:
    """Stream any chunk source across N shards and merge the states.

    Known-length sources merge *exactly equal* to a single-process run
    (see the module docstring); unknown-length sources shard exactly on
    the regulator/WSAF axes but draw per-shard randomness.

    Args:
        config: per-worker engine configuration.  Unlike the multi-core
            manager, every shard uses the *same* seed — word-range
            disjointness is what keeps their regulators from interfering.
        num_shards: worker count, >= 1.
        parallel: run workers as a forked :class:`ShardWorkerPool`
            (falls back to in-process execution, with a
            :class:`RuntimeWarning`, where the platform cannot fork;
            both modes are bit-identical).
        chunk_size: slicing budget when :meth:`run` receives a bare
            trace (defaults to the config's ``chunk_size``); an explicit
            chunk source keeps its own slicing.
        controller: optional
            :class:`~repro.pipeline.control.ShedController`, applied by
            the :class:`~repro.pipeline.driver.Pipeline` driver exactly
            as in a single-process run: one decision per chunk, before
            routing, applied to the whole chunk — so every shard sheds
            the same packets and a sharded shed run stays
            decision-identical to a single-process shed run with the
            same policy, seed, and schedule.
    """

    def __init__(
        self,
        config=None,
        num_shards: int = 1,
        parallel: bool = False,
        chunk_size: "int | None" = None,
        controller=None,
    ) -> None:
        from repro.core.instameasure import InstaMeasureConfig

        if num_shards < 1:
            raise ConfigurationError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        self.config = config or InstaMeasureConfig()
        self.num_shards = num_shards
        self.parallel = parallel
        self.chunk_size = (
            chunk_size
            if chunk_size is not None
            else getattr(self.config, "chunk_size", DEFAULT_CHUNK_SIZE)
        )
        self.controller = controller
        self.router = ShardRouter.for_config(self.config, num_shards)

    def _coerce_source(self, source) -> ChunkSource:
        """Any trace or chunk source; routing itself is per-chunk.

        A known ``total_packets`` positions every shard against the one
        global randomness draw — the exact-equals-single-process mode.
        An unknown total (unbounded source) still shards exactly on the
        regulator/WSAF axes, but each shard consumes its own
        unknown-length block-drawn stream, so the merged result is a
        well-defined sharded measurement rather than a bit-replica of a
        single-process run (see the module docstring).
        """
        if isinstance(source, Trace):
            source = TraceChunkSource(source, chunk_size=self.chunk_size)
        if not isinstance(source, ChunkSource):
            raise ConfigurationError(
                "sharded ingestion needs a Trace or a ChunkSource, "
                f"got {type(source).__name__}"
            )
        return source

    def run(self, source, parallel: "bool | None" = None) -> ShardedResult:
        """Drive every chunk through the pipeline into the shards; merge."""
        source = self._coerce_source(source)
        total = source.total_packets
        if total is not None:
            total = int(total)
        if parallel is None:
            parallel = self.parallel
        use_fork = parallel and _fork_available()
        if parallel and not use_fork:
            warnings.warn(
                "fork start method is unavailable on this platform; "
                "running shards in-process instead of in parallel",
                RuntimeWarning,
                stacklevel=2,
            )
        begin = time.perf_counter()
        pool = None
        if use_fork:
            key_ranges = [
                self.router.key_range(shard) for shard in range(self.num_shards)
            ]
            pool = ShardWorkerPool(self.config, key_ranges, total)
            measurer = _PoolShardMeasurer(self.config, pool, total)
        else:
            measurer = ShardedStreamingMeasurer(self.config, self.num_shards)
            measurer.begin_stream(total)
        try:
            outcome = Pipeline(measurer, controller=self.controller).run(source)
        finally:
            if pool is not None:
                pool.close()
        stream = outcome.result

        merge_begin = time.perf_counter()
        merged = measurer.merged_snapshot()
        merge_s = time.perf_counter() - merge_begin
        return ShardedResult(
            num_shards=self.num_shards,
            snapshot=merged,
            shard_packets=stream.shard_packets,
            shard_insertions=stream.shard_insertions,
            stage_seconds=dict(stream.stage_seconds, merge_s=merge_s),
            elapsed_seconds=time.perf_counter() - begin,
            parallel=use_fork,
            offered_packets=outcome.offered_packets,
            decisions=outcome.decisions,
            controller_stats=outcome.controller_stats,
        )


@dataclass
class ShardedStreamResult:
    """Aggregate result of one sharded stream (``finalize`` output).

    ``stage_seconds`` holds the stream's ``route_s``, ``ipc_s`` and
    ``ingest_s`` as :class:`ShardedResult` defines them.
    """

    packets: int
    insertions: int
    elapsed_seconds: float
    shard_packets: "list[int]" = field(default_factory=list)
    shard_insertions: "list[int]" = field(default_factory=list)
    stage_seconds: "dict[str, float]" = field(default_factory=dict)


class ShardedStreamingMeasurer:
    """In-process sharded measurer: N same-seed engines behind one router.

    The in-process form of every sharded run.  :class:`ShardedPipeline`
    drives it through the :class:`~repro.pipeline.driver.Pipeline`
    driver, and the always-on service pushes chunks into it one at a
    time, checkpoints it mid-flight, and queries it between chunks.
    Every chunk goes through the word-range
    :class:`~repro.state.ShardRouter`, so regulator words and WSAF key
    sets stay disjoint and per-shard states merge exactly.  It speaks the
    :class:`~repro.pipeline.protocol.StreamingMeasurer` protocol, so the
    driver and the service daemon treat it exactly like a single engine.

    Randomness: after :meth:`begin_stream` with the stream's known total,
    every shard gathers its packets' bits out of the single-process
    run's global draw; otherwise each shard consumes its own
    unknown-length (block-drawn, chunking-invariant) stream.

    Checkpointing goes through :meth:`snapshot_shards` (one mid-flight
    snapshot per shard — ``merge`` refuses in-progress streams, and the
    per-shard cursors must survive individually anyway) and
    :meth:`from_snapshots` to resume.
    """

    def __init__(self, config=None, num_shards: int = 1, accountant=None) -> None:
        from repro.core.instameasure import InstaMeasure, InstaMeasureConfig

        if num_shards < 1:
            raise ConfigurationError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        self.config = config or InstaMeasureConfig()
        self.num_shards = num_shards
        self.router = ShardRouter.for_config(self.config, num_shards)
        self.engines = [
            InstaMeasure(self.config, accountant) for _ in range(num_shards)
        ]
        self._positioned = False
        self._route_s = 0.0

    @classmethod
    def from_snapshots(cls, snapshots, accountant=None) -> "ShardedStreamingMeasurer":
        """Rebuild from per-shard snapshots (a service checkpoint),
        resuming every shard's stream cursor bit-identically."""
        from repro.core.instameasure import InstaMeasure
        from repro.state.snapshot import snapshot_config

        if not snapshots:
            raise ConfigurationError("cannot restore from zero shard snapshots")
        config = snapshot_config(snapshots[0])
        measurer = cls(config, num_shards=len(snapshots), accountant=accountant)
        measurer.engines = [
            InstaMeasure.from_snapshot(snapshot, accountant=accountant)
            for snapshot in snapshots
        ]
        return measurer

    def begin_stream(self, total: "int | None" = None) -> None:
        """Open every shard's stream before the first chunk.

        ``total`` is the whole stream's length, never a shard's share: a
        known total opens every engine on the global draw, and each routed
        sub-chunk gathers its bits at its packets' global positions.
        ``None`` opens unknown-length streams, as :meth:`ingest` does when
        no stream is open.
        """
        for engine in self.engines:
            engine.begin_stream(total=total)
        self._positioned = total is not None

    def ingest(self, chunk, on_accumulate=None) -> None:
        """Route one chunk's packets into their owning shard engines.

        With no stream open, every engine opens an unknown-length stream
        (the service never knows how many packets are coming) here rather
        than lazily inside the engine, so no shard infers a finite total
        from its first sub-chunk's metadata.
        """
        for engine in self.engines:
            if engine._stream is None:
                engine.begin_stream()
        begin = time.perf_counter()
        parts = self.router.split_chunk(chunk)
        self._route_s += time.perf_counter() - begin
        for shard, (sub, positions) in enumerate(parts):
            if sub.num_packets:
                self.engines[shard].ingest(
                    sub,
                    on_accumulate=on_accumulate,
                    positions=positions if self._positioned else None,
                )

    def finalize(self) -> ShardedStreamResult:
        results = [engine.finalize() for engine in self.engines]
        route_s, self._route_s = self._route_s, 0.0
        self._positioned = False
        return ShardedStreamResult(
            packets=sum(result.packets for result in results),
            insertions=sum(result.insertions for result in results),
            elapsed_seconds=sum(result.elapsed_seconds for result in results),
            shard_packets=[result.packets for result in results],
            shard_insertions=[result.insertions for result in results],
            stage_seconds={
                "route_s": route_s,
                "ipc_s": 0.0,
                "ingest_s": max(
                    (result.elapsed_seconds for result in results), default=0.0
                ),
            },
        )

    def estimates(self, flow_keys=None) -> "dict[int, tuple[float, float]]":
        """Union of the shards' estimates (key sets are disjoint)."""
        merged: "dict[int, tuple[float, float]]" = {}
        for engine in self.engines:
            merged.update(engine.estimates(flow_keys=flow_keys))
        return merged

    def rotate(self, now: float, wsaf_timeout: "float | None" = None):
        """Rotate every shard; returns the union of their pre-expiry
        snapshots (the per-epoch archive the driver stores)."""
        merged: "dict[int, tuple[float, float]]" = {}
        for engine in self.engines:
            merged.update(engine.rotate(now, wsaf_timeout=wsaf_timeout))
        return merged

    @property
    def wsaf_size(self) -> int:
        """Total live WSAF records across shards (occupancy metric)."""
        return sum(len(engine.wsaf) for engine in self.engines)

    def snapshot_shards(self) -> "list[MeasurementSnapshot]":
        """One mid-flight snapshot per shard, tagged with its key range."""
        return [
            engine.snapshot(key_range=self.router.key_range(shard))
            for shard, engine in enumerate(self.engines)
        ]

    def merged_snapshot(self) -> MeasurementSnapshot:
        """The shards folded into one state — valid between streams only
        (``merge`` refuses in-progress stream cursors)."""
        return merge(self.snapshot_shards())


class _PoolShardMeasurer:
    """The forked form of a sharded run, fed by the pipeline driver.

    Routes each chunk in the parent and ships every shard's packets to
    its :class:`ShardWorkerPool` worker as one packed frame, carrying
    only the flows that worker has not seen yet.  The shard states live
    in the workers until :meth:`finalize` collects their snapshots, so
    this is the ``ingest`` / ``finalize`` half of the streaming-measurer
    protocol — all :class:`~repro.pipeline.driver.Pipeline` calls.
    """

    def __init__(self, config, pool: ShardWorkerPool, total: "int | None") -> None:
        self.router = ShardRouter.for_config(config, pool.num_shards)
        self.pool = pool
        self.total = total
        self._syncs = [_ShardFlowSync() for _ in range(pool.num_shards)]
        self._route_s = self._ipc_s = 0.0
        self._payloads: "list[bytes]" = []

    def ingest(self, chunk) -> None:
        begin = time.perf_counter()
        parts = self.router.split_chunk(chunk)
        self._route_s += time.perf_counter() - begin
        for shard, (sub, positions) in enumerate(parts):
            if not sub.num_packets:
                continue
            begin = time.perf_counter()
            local_ids, fresh, new_table = self._syncs[shard].localize(
                sub.flows, sub.flow_ids
            )
            key64, tuple_lo, tuple_hi = _fresh_flow_columns(sub.flows, fresh)
            columns = {
                "timestamps": sub.timestamps,
                "flow_ids": local_ids,
                "sizes": sub.sizes,
                "new_key64": key64,
                "new_tuple_lo": tuple_lo,
                "new_tuple_hi": tuple_hi,
            }
            if self.total is not None:
                columns["positions"] = positions
            meta = {"type": "chunk"}
            if new_table:
                meta["new_table"] = True
            self.pool.send(shard, pack_frame(meta, columns))
            self._ipc_s += time.perf_counter() - begin

    def finalize(self) -> ShardedStreamResult:
        """Finalize every worker and keep their snapshot payloads."""
        begin = time.perf_counter()
        replies = self.pool.finalize()
        self._ipc_s += time.perf_counter() - begin
        self._payloads = [payload for _meta, payload in replies]
        stats = [meta for meta, _payload in replies]
        return ShardedStreamResult(
            packets=sum(meta["packets"] for meta in stats),
            insertions=sum(meta["insertions"] for meta in stats),
            elapsed_seconds=sum(meta["elapsed"] for meta in stats),
            shard_packets=[meta["packets"] for meta in stats],
            shard_insertions=[meta["insertions"] for meta in stats],
            stage_seconds={
                "route_s": self._route_s,
                "ipc_s": self._ipc_s,
                "ingest_s": max(
                    (meta.get("ingest_s", 0.0) for meta in stats), default=0.0
                ),
            },
        )

    def merged_snapshot(self) -> MeasurementSnapshot:
        """The finalized shard states, decoded and folded into one."""
        return merge([from_bytes(payload) for payload in self._payloads])
