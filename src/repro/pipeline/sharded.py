"""Process-sharded ingestion — N streaming workers, one exact merged state.

A :class:`ShardedPipeline` consumes any
:class:`~repro.pipeline.source.ChunkSource` and routes each chunk as it
arrives: every packet goes to the shard owning its flow's L1 word
(:class:`repro.state.ShardRouter`), so memory stays bounded by the chunk
size — a :class:`~repro.pipeline.source.FileChunkSource` streams straight
into sharded workers without the whole trace ever being routed at once.

The merged state's ``estimates()`` are **exactly equal** to a
single-process run of the same stream, because the sharding is exact on
every axis:

* *Regulator*: flows sharing an L1 word land in the same shard, so each
  shard's full-size, same-seed regulator evolves its words precisely as
  the single run; disjoint word ranges OR together losslessly.
* *Randomness*: the router draws the run's bits once — the single run's
  known-length draw — and hands each shard its packets' bits with the
  packets (``InstaMeasure.ingest(chunk, bits=...)``), so every packet
  consumes exactly the bits the single run would hand it.
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
workers.  The pool's parent writes each chunk once into a ring of two
packet slots in shared memory, tagging every packet with its shard and
worker-local flow id, and sends each worker a small descriptor frame;
each worker selects its own packets from the slot, releases it, and
ingests them into an engine kept resident between chunks, then ships one
IMSNAP payload back at finalize — fork and import cost is paid once per
run, not once per chunk.  Both forms are bit-identical; in-process
execution is the fallback wherever fork is unavailable (with a
:class:`RuntimeWarning`, since the caller asked for parallelism it will
not get).

Unknown-length sources (``total_packets is None`` — the always-on
service's inputs) shard too: the regulator/WSAF disjointness argument is
unchanged, but with no stream total there is no global draw to hand out,
so each shard consumes its own unknown-length block-drawn stream.  The
merged state is then a well-defined sharded measurement — deterministic
for a given routing, exact merges, per-shard checkpoints — but not a
bit-replica of a single-process unbounded run.
"""

from __future__ import annotations

import mmap
import multiprocessing
import time
import traceback
import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, ShardWorkerError, SnapshotError
from repro.pipeline.driver import Pipeline
from repro.pipeline.source import as_chunk_source
from repro.state import MeasurementSnapshot, ShardRouter, from_bytes, merge, to_bytes
from repro.state.codec import pack_frame, unpack_frame
from repro.state.shard import l1_sketch, select_shard
from repro.traffic.packet import Trace

#: Mask extracting the low 64 bits of a packed 104-bit 5-tuple.
_LOW64 = (1 << 64) - 1


@dataclass
class ShardedResult:
    """Outcome of a sharded run: the merged state plus per-shard stats.

    ``stage_seconds`` breaks the run into its serial and parallel parts:
    ``route_s`` (parent-side routing: per-shard splits in-process; the
    per-table shard and local-id arrays and the per-packet lookups into
    them on the fork path), ``ipc_s`` (fork path only, else 0: ring
    writes, table and descriptor frames, waits for a free slot, and the
    final snapshot collection), ``ingest_s`` (the slowest shard's time —
    engine time in-process; selecting its packets from the ring plus
    engine time in a forked worker), and ``merge_s`` (snapshot capture
    or decode + fold).  The stages overlap with each other in a
    fork-parallel run, so they need not sum to ``elapsed_seconds``
    (end-to-end wall clock).
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
    """A worker's flow table, shipped by the parent once per flow table.

    Duck-types the slice of :class:`~repro.traffic.packet.FlowTable` the
    engines consume — ``key64``, ``packed_tuples()``, ``len()`` — so a
    worker-side :class:`Trace` can reference it directly.  The parent
    ships the worker's own flows' precomputed ``key64`` and packed-5-tuple
    halves in one table frame whenever the stream's flow table changes,
    so the ring slots carry only worker-local flow ids.
    """

    def __init__(
        self, key64: np.ndarray, tuple_lo: np.ndarray, tuple_hi: np.ndarray
    ) -> None:
        self.key64 = key64
        self._tuples = _PackedTuples(tuple_hi, tuple_lo)

    def __len__(self) -> int:
        return int(self.key64.size)

    def packed_tuples(self) -> "_PackedTuples":
        return self._tuples


class _PackedTuples:
    """A directory's packed 5-tuples, joined one lookup at a time.

    Engines read a flow's packed tuple only when the WSAF accumulates it
    (about 1 % of packets), so joining the halves per lookup beats a
    Python list of every flow in the table, built before the first chunk
    can be ingested.
    """

    __slots__ = ("_hi", "_lo")

    def __init__(self, tuple_hi: np.ndarray, tuple_lo: np.ndarray) -> None:
        self._hi = tuple_hi
        self._lo = tuple_lo

    def __getitem__(self, flow: int) -> int:
        return (int(self._hi[flow]) << 64) | int(self._lo[flow])


class _ShardFlowSync:
    """Parent-side map from a worker's flows on one table to its dense
    local ids.

    :meth:`_PoolShardMeasurer._send_tables` hands :meth:`localize` the
    output of :func:`~repro.state.shard.select_shard` — the sorted,
    distinct ids of the worker's flows on a table it has not seen — so
    the map holds no state: local id ``i`` is the ``i``-th of those ids.
    The method stays a method of its own as the boundary perfbench's
    ``sharded.localize`` span wraps.
    """

    def localize(self, flows, flow_ids: np.ndarray):
        """``(local_ids, fresh)`` for the sorted, distinct ``flow_ids`` of
        a new table ``flows``: ``arange(len(flow_ids))`` and the ids
        themselves, every one fresh to the worker."""
        return np.arange(flow_ids.size, dtype=np.int64), flow_ids


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


# -- the shared packet ring ---------------------------------------------------

#: Packet slots in the ring: the parent fills one while workers read the other.
RING_SLOTS = 2


class _PacketRing:
    """Two packet slots in one anonymous shared mapping.

    Mapped before the fork, so every worker sees what the parent writes
    and there is nothing to name or unlink.  A slot holds one chunk, or a
    slot-sized piece of a longer one: its packets' timestamps and sizes,
    each packet's owning shard and worker-local flow id, and — for a
    known-length stream — the packets' slice of the run's one bit draw.
    The parent writes with plain byte copies and never exports the
    mapping, so :meth:`close` always unmaps it; a worker reads through
    NumPy views that live only while it selects its packets.
    """

    def __init__(self, slot_packets: int, num_shards: int, with_bits: bool) -> None:
        self.slot_packets = slot_packets
        self.shard_dtype = np.min_scalar_type(num_shards - 1)
        columns = [
            ("timestamps", np.float64),
            ("sizes", np.int64),
            ("flow_ids", np.int64),
            ("shards", self.shard_dtype),
        ]
        if with_bits:
            columns += [("bits1", np.uint8), ("bits2", np.uint8)]
        self._layout: "list[tuple[str, np.dtype, int]]" = []
        offset = 0
        for name, dtype in columns:
            dtype = np.dtype(dtype)
            self._layout.append((name, dtype, offset))
            # Round every column up to 8 bytes so the next one stays aligned.
            offset += -(-slot_packets * dtype.itemsize // 8) * 8
        self._slot_bytes = offset
        self._map = mmap.mmap(-1, RING_SLOTS * offset)

    @property
    def closed(self) -> bool:
        return self._map.closed

    def write(self, slot: int, columns: "dict[str, np.ndarray]") -> None:
        """Copy one piece's columns (at most ``slot_packets`` long) into ``slot``."""
        base = slot * self._slot_bytes
        for name, dtype, offset in self._layout:
            data = np.ascontiguousarray(columns[name], dtype=dtype)
            start = base + offset
            self._map[start : start + data.nbytes] = data

    def select(self, slot: int, count: int, shard: int) -> "dict[str, np.ndarray]":
        """Copies of ``shard``'s packets among the first ``count`` of ``slot``."""
        base = slot * self._slot_bytes
        views = {
            name: np.frombuffer(self._map, dtype=dtype, count=count, offset=base + offset)
            for name, dtype, offset in self._layout
        }
        index = select_shard(views.pop("shards"), shard)
        return {name: view[index] for name, view in views.items()}

    def close(self) -> None:
        self._map.close()


# -- the persistent worker pool ----------------------------------------------


def _worker_main(conn, inherited, config, key_range, total, ring, shard) -> None:
    """Child-process loop: ingest this shard's packets until finalize.

    Protocol (every message is a :func:`repro.state.codec.pack_frame`
    payload over ``conn``):

    * ``{"type": "table"}`` with columns ``key64`` / ``tuple_lo`` /
      ``tuple_hi``: this worker's flows of a new flow table, in local-id
      order.  The worker replaces its flow directory.
    * ``{"type": "slot", "slot": s, "count": n}``: ring slot ``s`` holds
      ``n`` packets.  The worker selects its own, replies with a
      ``{"type": "release"}`` frame once it holds copies, and ingests
      them — with their bits, when the slot carries the run's draw.
    * ``{"type": "finalize"}``: finalize the stream and reply with one
      ``{"type": "done"}`` frame carrying per-shard counters and the
      shard's IMSNAP snapshot payload, then exit.

    Any failure is reported back as a ``{"type": "error"}`` frame with
    the full traceback; the parent raises it as a
    :class:`~repro.errors.ShardWorkerError`.
    """
    # Pipe ends this process inherited but does not use: the parent's end
    # of its own pipe and of every earlier worker's.
    for other in inherited:
        other.close()
    try:
        from repro.core.instameasure import InstaMeasure

        engine = InstaMeasure(config)
        if total is None:
            engine.begin_stream()
        # Otherwise the first chunk opens a stream handed its bits: they
        # arrive with the packets, so the worker draws nothing.
        empty = np.empty(0, dtype=np.uint64)
        directory = _ShardFlowDirectory(empty, empty, empty)
        release = pack_frame({"type": "release"}, {})
        ingest_s = 0.0
        while True:
            meta, columns = unpack_frame(conn.recv_bytes())
            kind = meta.get("type")
            if kind == "slot":
                begin = time.perf_counter()
                own = ring.select(meta["slot"], meta["count"], shard)
                conn.send_bytes(release)
                sub = Trace(
                    timestamps=own["timestamps"],
                    flow_ids=own["flow_ids"],
                    sizes=own["sizes"],
                    flows=directory,
                )
                if sub.num_packets:
                    bits = (own["bits1"], own["bits2"]) if "bits1" in own else None
                    engine.ingest(sub, bits=bits)
                ingest_s += time.perf_counter() - begin
            elif kind == "table":
                directory = _ShardFlowDirectory(
                    columns["key64"], columns["tuple_lo"], columns["tuple_hi"]
                )
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
    """Long-lived forked shard workers fed through a shared packet ring.

    One worker process per shard, forked once at construction; each
    holds a live engine and accumulates state across every chunk, so
    per-run cost is one fork + one snapshot ship per worker no matter how
    many chunks stream through.  Before forking, the pool maps the
    :class:`_PacketRing` (``slot_packets`` packets a slot, by default the
    config's ``chunk_size``, capped at ``total``) and builds the kernel's
    FSM tables, so workers inherit both.  :meth:`dispatch` writes a
    chunk into the next free slot — waiting, if both are taken, for every
    worker to release the older one — and sends each worker a descriptor.

    Worker failures surface promptly as
    :class:`~repro.errors.ShardWorkerError` (never a hang): a worker that
    raises ships its traceback back as an error frame, and a worker that
    dies outright closes its pipe; either is raised by the next
    :meth:`send`, slot wait or :meth:`finalize`.
    """

    def __init__(
        self,
        config,
        key_ranges,
        total: "int | None",
        slot_packets: "int | None" = None,
    ) -> None:
        from repro.kernels import geometry_tables, runs_kernel

        # Only a forked worker inherits the ring's mapping.
        context = multiprocessing.get_context("fork")
        # Every forked worker inherits the batch-probed WSAF's module
        # instead of importing it while it builds its engine (the engine
        # imports it lazily), and under the kernel its FSM tables,
        # copy-on-write, instead of rebuilding them.
        import repro.kernels.wsaf_batched  # noqa: F401

        if runs_kernel(config):
            l1 = l1_sketch(config)
            geometry_tables(l1.vector_bits, l1.saturation_bits)
        if slot_packets is None:
            slot_packets = config.chunk_size
        if total is not None:
            slot_packets = min(slot_packets, total)
        self.num_shards = len(key_ranges)
        self.ring = _PacketRing(
            max(1, slot_packets), self.num_shards, with_bits=total is not None
        )
        self._conns = []
        self._procs = []
        self._closed = False
        #: Descriptors sent so far, and each worker's releases received.
        self._dispatched = 0
        self._released = [0] * self.num_shards
        try:
            for shard, key_range in enumerate(key_ranges):
                parent_conn, child_conn = context.Pipe(duplex=True)
                process = context.Process(
                    target=_worker_main,
                    args=(
                        child_conn,
                        [parent_conn, *self._conns],
                        config,
                        key_range,
                        total,
                        self.ring,
                        shard,
                    ),
                    name=f"shard-worker-{shard}",
                    daemon=True,
                )
                self._conns.append(parent_conn)
                process.start()
                child_conn.close()
                self._procs.append(process)
        except BaseException:
            self.close()
            raise

    def _raise_worker_failure(self, shard: int, cause=None):
        """Turn a dead or failed worker into a ShardWorkerError, carrying
        its traceback when it sent one before its pipe closed."""
        detail = ""
        conn = self._conns[shard]
        try:
            while conn.poll(1.0):
                meta, _columns = unpack_frame(conn.recv_bytes())
                if meta.get("type") == "error":
                    detail = meta.get("traceback") or meta.get("message", "")
                    break
        except (EOFError, OSError, SnapshotError):
            pass
        if detail:
            message = f"shard worker {shard} failed:\n{detail}"
        else:
            message = f"shard worker {shard} died without reporting an error"
        raise ShardWorkerError(message) from cause

    def _receive(self, shard: int) -> "tuple[dict, dict]":
        """The next frame from ``shard``'s worker; a release is counted,
        an error frame or a closed pipe raises."""
        try:
            meta, columns = unpack_frame(self._conns[shard].recv_bytes())
        except (EOFError, OSError) as exc:
            self._raise_worker_failure(shard, exc)
        kind = meta.get("type")
        if kind == "release":
            self._released[shard] += 1
        elif kind == "error":
            detail = meta.get("traceback") or meta.get("message", "")
            raise ShardWorkerError(f"shard worker {shard} failed:\n{detail}")
        return meta, columns

    def send(self, shard: int, frame: bytes) -> None:
        """Ship one packed frame to ``shard``'s worker."""
        try:
            self._conns[shard].send_bytes(frame)
        except (BrokenPipeError, OSError) as exc:
            self._raise_worker_failure(shard, exc)

    def dispatch(self, columns: "dict[str, np.ndarray]") -> None:
        """Write one piece of a chunk into the next free slot and send
        every worker its descriptor.

        ``columns`` are the ring's columns (:class:`_PacketRing`), at most
        ``ring.slot_packets`` long.  Every worker must have released the
        slot's previous contents first, so with both slots taken this
        waits for the slower worker.
        """
        needed = self._dispatched - RING_SLOTS + 1
        for shard in range(self.num_shards):
            while self._released[shard] < needed:
                self._receive(shard)
        slot = self._dispatched % RING_SLOTS
        self.ring.write(slot, columns)
        self._dispatched += 1
        count = len(columns["timestamps"])
        frame = pack_frame({"type": "slot", "slot": slot, "count": count}, {})
        for shard in range(self.num_shards):
            self.send(shard, frame)

    def finalize(self) -> "list[tuple[dict, bytes]]":
        """Ask every worker to finalize; collect ``(stats, snapshot_bytes)``."""
        frame = pack_frame({"type": "finalize"}, {})
        for shard in range(self.num_shards):
            self.send(shard, frame)
        replies: "list[tuple[dict, bytes]]" = []
        for shard in range(self.num_shards):
            meta, columns = self._receive(shard)
            while meta.get("type") == "release":
                meta, columns = self._receive(shard)
            if meta.get("type") != "done":
                raise ShardWorkerError(
                    f"shard worker {shard} sent {meta.get('type')!r}, not its snapshot"
                )
            replies.append((meta, columns["snapshot"].tobytes()))
        return replies

    def close(self) -> None:
        """Close every pipe, reap the worker processes, unmap the ring."""
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
        self.ring.close()

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
        self.controller = controller
        self.router = ShardRouter.for_config(self.config, num_shards)

    def run(self, source, parallel: "bool | None" = None) -> ShardedResult:
        """Drive every chunk through the pipeline into the shards; merge.

        ``source`` is a chunk source, or a bare trace cut into chunks of
        the config's ``chunk_size``.  With an unknown ``total_packets``
        each shard draws its own randomness (see the module docstring).
        """
        source = as_chunk_source(source, self.config.chunk_size)
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
            pool = ShardWorkerPool(
                self.config,
                key_ranges,
                total,
                slot_packets=getattr(source, "chunk_size", self.config.chunk_size),
            )
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
    the measurer draws the single-process run's bits once and hands each
    shard its packets' bits with every chunk; otherwise each shard
    consumes its own unknown-length (block-drawn, chunking-invariant)
    stream.

    Checkpointing goes through :meth:`snapshot_shards` (one mid-flight
    snapshot per shard — ``merge`` refuses in-progress streams, and the
    per-shard cursors must survive individually anyway) and
    :meth:`from_snapshots` to resume.
    """

    def __init__(
        self, config=None, num_shards: int = 1, accountant=None, *, engines=None
    ) -> None:
        from repro.core.instameasure import InstaMeasure, InstaMeasureConfig

        if num_shards < 1:
            raise ConfigurationError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        self.config = config or InstaMeasureConfig()
        self.num_shards = num_shards
        self.router = ShardRouter.for_config(self.config, num_shards)
        #: One engine per shard: fresh ones, or the restored ``engines``.
        self.engines = engines or [
            InstaMeasure(self.config, accountant) for _ in range(num_shards)
        ]
        #: The run's one known-length draw, handed out per chunk.
        self._bits: "_BitStream | None" = None
        self._route_s = 0.0

    @classmethod
    def from_snapshots(cls, snapshots, accountant=None) -> "ShardedStreamingMeasurer":
        """Rebuild from per-shard snapshots (a service checkpoint),
        resuming every shard's stream cursor bit-identically."""
        from repro.core.instameasure import InstaMeasure
        from repro.state.snapshot import snapshot_config

        if not snapshots:
            raise ConfigurationError("cannot restore from zero shard snapshots")
        engines = [
            InstaMeasure.from_snapshot(snapshot, accountant=accountant)
            for snapshot in snapshots
        ]
        return cls(
            snapshot_config(snapshots[0]),
            num_shards=len(engines),
            accountant=accountant,
            engines=engines,
        )

    def begin_stream(self, total: "int | None" = None) -> None:
        """Open every shard's stream before the first chunk.

        ``total`` is the whole stream's length, never a shard's share: a
        known total makes the measurer draw the run's bits once, here, and
        hand each routed sub-chunk its packets' bits, so no shard engine
        draws.  ``None`` opens unknown-length streams, as :meth:`ingest`
        does when no stream is open.
        """
        from repro.core.instameasure import _BitStream

        if total is None:
            for engine in self.engines:
                engine.begin_stream()
        else:
            self._bits = _BitStream(self.config, total)

    def ingest(self, chunk, on_accumulate=None) -> None:
        """Route one chunk's packets into their owning shard engines.

        With no stream open, every engine opens an unknown-length stream
        (the service never knows how many packets are coming) here rather
        than lazily inside the engine, so no shard infers a finite total
        from its first sub-chunk's metadata.
        """
        bits = None
        if self._bits is not None:
            bits = self._bits.take(chunk.trace.num_packets)
        else:
            for engine in self.engines:
                if engine._stream is None:
                    engine.begin_stream()
        begin = time.perf_counter()
        parts = self.router.split_chunk(chunk)
        self._route_s += time.perf_counter() - begin
        for shard, (sub, index) in enumerate(parts):
            if sub.num_packets:
                self.engines[shard].ingest(
                    sub,
                    on_accumulate=on_accumulate,
                    bits=None if bits is None else (bits[0][index], bits[1][index]),
                )

    def finalize(self) -> ShardedStreamResult:
        """End every shard's stream; their totals, summed."""
        results = [engine.finalize() for engine in self.engines]
        route_s, self._route_s = self._route_s, 0.0
        self._bits = None
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

    Writes each chunk once into the :class:`ShardWorkerPool`'s packet
    ring: timestamps and sizes, every packet's shard and worker-local
    flow id (looked up from per-table arrays), and — for a known-length
    stream — the chunk's slice of the run's one bit draw, which this
    measurer makes.  When the flow table changes, each worker first gets
    one table frame holding only its own flows.  The shard states live
    in the workers until :meth:`finalize` collects their snapshots, so
    this is the ``ingest`` / ``finalize`` half of the streaming-measurer
    protocol — all :class:`~repro.pipeline.driver.Pipeline` calls.
    """

    def __init__(self, config, pool: ShardWorkerPool, total: "int | None") -> None:
        from repro.core.instameasure import _BitStream

        self.router = ShardRouter.for_config(config, pool.num_shards)
        self.pool = pool
        self._bits = None if total is None else _BitStream(config, total)
        self._sync = _ShardFlowSync()
        #: The current flow table, each flow's shard and worker-local id.
        self._flows = None
        self._flow_shards: "np.ndarray | None" = None
        self._flow_local: "np.ndarray | None" = None
        self._route_s = self._ipc_s = 0.0
        self._payloads: "list[bytes]" = []

    def _send_tables(self, flows) -> None:
        """Map a new flow table to shards and local ids; send each worker
        its own flows."""
        begin = time.perf_counter()
        flow_shards = self.router.flow_shards(flows)
        local = np.empty(len(flows), dtype=np.int64)
        frames = []
        for shard in range(self.pool.num_shards):
            members = select_shard(flow_shards, shard)
            local[members], fresh = self._sync.localize(flows, members)
            key64, tuple_lo, tuple_hi = _fresh_flow_columns(flows, fresh)
            frames.append(
                pack_frame(
                    {"type": "table"},
                    {"key64": key64, "tuple_lo": tuple_lo, "tuple_hi": tuple_hi},
                )
            )
        self._flows = flows
        self._flow_shards = flow_shards.astype(self.pool.ring.shard_dtype)
        self._flow_local = local
        sent = time.perf_counter()
        self._route_s += sent - begin
        for shard, frame in enumerate(frames):
            self.pool.send(shard, frame)
        self._ipc_s += time.perf_counter() - sent

    def ingest(self, chunk) -> None:
        trace = chunk.trace
        count = trace.num_packets
        if not count:
            return
        if trace.flows is not self._flows:
            self._send_tables(trace.flows)
        step = self.pool.ring.slot_packets
        # A chunk longer than a slot goes through in slot-sized pieces:
        # bit-identical under the chunking contract.
        for lo in range(0, count, step):
            hi = min(lo + step, count)
            begin = time.perf_counter()
            flow_ids = trace.flow_ids[lo:hi]
            columns = {
                "timestamps": trace.timestamps[lo:hi],
                "sizes": trace.sizes[lo:hi],
                "flow_ids": self._flow_local[flow_ids],
                "shards": self._flow_shards[flow_ids],
            }
            if self._bits is not None:
                columns["bits1"], columns["bits2"] = self._bits.take(hi - lo)
            routed = time.perf_counter()
            self._route_s += routed - begin
            self.pool.dispatch(columns)
            self._ipc_s += time.perf_counter() - routed

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
