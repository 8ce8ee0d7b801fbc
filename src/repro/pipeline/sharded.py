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
behind one router, the bit-identity oracle — or, with ``parallel=True``,
a :class:`ShardWorkerPool` of long-lived forked workers.  The pool's
parent writes each chunk once into a ring of two packet slots in shared
memory, tagging every packet with its shard and worker-local flow id,
and sends each worker a small descriptor frame; each worker selects its
own packets from the slot, releases it, and ingests them into an engine
kept resident between chunks, then ships one IMSNAP payload back at
finalize — fork and import cost is paid once per run, not once per
chunk.  Both forms are bit-identical; in-process execution is the
fallback wherever fork is unavailable (with a :class:`RuntimeWarning`,
since the caller asked for parallelism it will not get).

The service daemon serves on the same pool-backed measurer
(:func:`_serving_measurer`): it forks at the daemon's first chunk, and
the daemon's reads — queries, ``top``, rotations, WSAF sizes and
checkpoint captures — are requests each worker answers in frame order.

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
import os
import queue
import signal
import threading
import time
import traceback
import warnings
from collections import deque
from collections.abc import Mapping, Sequence
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
    writes, slot frames (the first after a new flow table carries it),
    waits for a free slot, and the final snapshot collection),
    ``ingest_s`` (the slowest shard's time —
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
    halves in the first slot frame after the stream's flow table changes,
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

    :meth:`_PoolShardMeasurer._map_table` hands :meth:`localize` the
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


def _open_descriptors() -> "set[int]":
    """Every file descriptor this process holds (empty where the platform
    cannot list them)."""
    for listing in ("/proc/self/fd", "/dev/fd"):
        try:
            return {int(name) for name in os.listdir(listing)}
        except (OSError, ValueError):
            continue
    return set()


def _detach(conn, inherited: "set[int]") -> None:
    """Let go of what a forked worker must not keep of its parent.

    ``inherited`` lists the descriptors the parent held just before the
    fork.  The worker closes all of them but stdio and its own pipe end,
    so a socket the parent closes (the control server's, a client's)
    really closes, and no worker holds another's pipe open.  The parent's
    signal handlers go too: Ctrl-C reaches the whole process group and
    the parent alone decides how the run ends, while SIGTERM
    (``terminate()``) always ends a worker.
    """
    for descriptor in inherited - {0, 1, 2, conn.fileno()}:
        try:
            os.close(descriptor)
        except OSError:
            pass
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _frames(conn) -> "queue.SimpleQueue":
    """The parent's frames, read off the pipe as they arrive.

    A reader thread keeps the pipe drained, so the parent's sends never
    wait on a worker blocked sending a long reply (a rotation's
    estimates, a capture) the parent has not read yet.  ``None`` marks
    the end of the pipe.
    """
    frames: "queue.SimpleQueue" = queue.SimpleQueue()

    def pump() -> None:
        try:
            while True:
                frames.put(conn.recv_bytes())
        except (EOFError, OSError):
            frames.put(None)

    threading.Thread(target=pump, name="shard-frames", daemon=True).start()
    return frames


def _largest(table: "dict", k: int) -> list:
    """The ``k`` largest ``(key64, (packets, bytes))`` items of ``table``
    by packets, descending; equal ones keep the table's order."""
    return sorted(table.items(), key=lambda item: item[1][0], reverse=True)[:k]


def _estimate_frame(table: "dict") -> bytes:
    """``{key64: (packets, bytes)}`` as one frame of key, packets and bytes
    columns."""
    values = np.array(list(table.values()), dtype=np.float64).reshape(-1, 2)
    return pack_frame(
        {"type": "estimates"},
        {
            "key": np.fromiter(table, dtype=np.uint64, count=len(table)),
            "packets": values[:, 0],
            "bytes": values[:, 1],
        },
    )


def _answer(engine, meta: "dict", columns: "dict", key_range) -> bytes:
    """A worker's reply to one of the requests a pool-served measurer
    makes (see :func:`_worker_main`)."""
    kind = meta.get("type")
    if kind == "query":
        return _estimate_frame(engine.estimates(flow_keys=columns.get("keys")))
    if kind == "top":
        return _estimate_frame(dict(_largest(engine.estimates(), meta["k"])))
    if kind == "rotate":
        return _estimate_frame(
            engine.rotate(meta["now"], wsaf_timeout=meta.get("wsaf_timeout"))
        )
    if kind == "size":
        return pack_frame({"type": "size", "wsaf_size": len(engine.wsaf)}, {})
    if kind == "capture":
        payload = to_bytes(engine.snapshot(key_range=key_range))
        return pack_frame(
            {"type": "capture"}, {"snapshot": np.frombuffer(payload, dtype=np.uint8)}
        )
    raise ShardWorkerError(f"unknown frame type {kind!r}")


def _worker_main(conn, inherited, config, key_range, total, ring, shard, engine) -> None:
    """Child-process loop: serve this shard until finalize or pipe EOF.

    The worker runs ``engine`` (adopted from the parent, copy-on-write)
    or, when that is ``None``, an engine of its own.  Protocol (every
    message is a :func:`repro.state.codec.pack_frame` payload over
    ``conn``; the worker answers frames in the order they arrive, after
    a first ``{"type": "ready"}`` frame that says it serves):

    * ``{"type": "slot", "slot": s, "count": n}``: ring slot ``s`` holds
      ``n`` packets.  When the frame also carries ``key64`` /
      ``tuple_lo`` / ``tuple_hi`` columns — this worker's flows of a new
      flow table, in local-id order — the worker first replaces its flow
      directory.  It selects its own packets, replies with a
      ``{"type": "release"}`` frame once it holds copies, and ingests
      them — with their bits, when the slot carries the run's draw.
    * ``query`` (an optional ``keys`` column; none means every flow),
      ``top`` (``k``) and ``rotate`` (``now``, ``wsaf_timeout``): one
      ``estimates`` frame of ``key`` / ``packets`` / ``bytes`` columns —
      a rotation's are the pre-expiry estimates.
    * ``size``: the WSAF's live record count.  ``capture``: the shard's
      mid-stream IMSNAP snapshot payload.
    * ``{"type": "finalize"}``: finalize the stream and reply with one
      ``{"type": "done"}`` frame carrying per-shard counters and the
      shard's IMSNAP snapshot payload, then exit.

    Any failure is reported back as a ``{"type": "error"}`` frame with
    the full traceback; the parent raises it as a
    :class:`~repro.errors.ShardWorkerError`.  The worker leaves through
    ``os._exit``: nothing a parent thread held at the fork (a stream's
    buffer lock, say) can keep it from ending.
    """
    code = 1
    try:
        _detach(conn, inherited)
        if engine is None:
            from repro.core.instameasure import InstaMeasure

            engine = InstaMeasure(config)
        if total is None and engine._stream is None:
            engine.begin_stream()
        # Otherwise the engine resumes its own stream, or the first chunk
        # opens one handed its bits: they arrive with the packets.
        empty = np.empty(0, dtype=np.uint64)
        directory = _ShardFlowDirectory(empty, empty, empty)
        release = pack_frame({"type": "release"}, {})
        ingest_s = 0.0
        frames = _frames(conn)
        conn.send_bytes(pack_frame({"type": "ready"}, {}))
        while True:
            data = frames.get()
            if data is None:
                return  # the parent is gone
            meta, columns = unpack_frame(data)
            kind = meta.get("type")
            if kind == "slot":
                if "key64" in columns:
                    directory = _ShardFlowDirectory(
                        columns["key64"], columns["tuple_lo"], columns["tuple_hi"]
                    )
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
                code = 0
                return
            else:
                conn.send_bytes(_answer(engine, meta, columns, key_range))
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
        os._exit(code)


class _Reply:
    """A frame a worker owes: its ``meta`` and ``columns`` once read."""

    __slots__ = ("_channel", "meta", "columns")

    def __init__(self, channel: "_Channel") -> None:
        self._channel = channel
        self.meta: "dict | None" = None
        self.columns: "dict | None" = None

    def fill(self, meta: "dict", columns: "dict") -> None:
        self.columns = columns
        self.meta = meta

    def result(self) -> "tuple[dict, dict]":
        """The reply, read off the pipe first if no thread has yet."""
        if self.meta is None:
            self._channel.wait(lambda: self.meta is not None)
        return self.meta, self.columns


class _Channel:
    """One worker's pipe: the replies it owes, in frame order, and the
    slot releases it sent.

    Any thread may wait on a channel.  One at a time reads the pipe and
    files every frame it reads — a release, the next owed reply, or an
    error — waking the others, so a thread that waits behind another's
    reply still returns as soon as its own frame is in.
    """

    def __init__(self, conn, shard: int) -> None:
        self.conn = conn
        self.shard = shard
        #: Slot releases received so far.
        self.released = 0
        self._owed: "deque[_Reply]" = deque()
        self._failure: "tuple[str, BaseException | None] | None" = None
        self._cond = threading.Condition()
        self._reading = False
        self._sending = threading.Lock()

    def expect(self) -> "_Reply":
        """The frame the worker sends after every reply already owed."""
        reply = _Reply(self)
        with self._cond:
            self._owed.append(reply)
        return reply

    def send(self, frame: bytes, answered: bool = False) -> "_Reply | None":
        """Ship one frame; with ``answered``, return the reply it gets."""
        with self._sending:
            reply = self.expect() if answered else None
            try:
                self.conn.send_bytes(frame)
            except OSError as exc:
                # The worker is gone: raise the error frame it sent before
                # its pipe closed, when it sent one.
                self.wait(lambda: False, cause=exc)
        return reply

    def wait(self, done, cause: "BaseException | None" = None) -> None:
        """Read frames until ``done()`` holds; raise
        :class:`~repro.errors.ShardWorkerError` once the worker failed."""
        with self._cond:
            while not done():
                if self._failure is not None:
                    message, failure = self._failure
                    raise ShardWorkerError(message) from (cause or failure)
                if self._reading:
                    self._cond.wait()
                    continue
                self._reading = True
                self._cond.release()
                try:
                    data = self.conn.recv_bytes()
                except (EOFError, OSError) as exc:
                    data = exc
                finally:
                    self._cond.acquire()
                    self._reading = False
                    self._cond.notify_all()
                self._file(data)

    def _file(self, data) -> None:
        """Account for one frame read off the pipe (under the lock)."""
        if isinstance(data, BaseException):
            self._failure = (
                f"shard worker {self.shard} died without reporting an error",
                data,
            )
            return
        try:
            meta, columns = unpack_frame(data)
        except SnapshotError as exc:
            self._failure = (f"shard worker {self.shard} sent a bad frame: {exc}", exc)
            return
        kind = meta.get("type")
        if kind == "release":
            self.released += 1
        elif kind == "error":
            detail = meta.get("traceback") or meta.get("message", "")
            self._failure = (f"shard worker {self.shard} failed:\n{detail}", None)
        elif self._owed:
            self._owed.popleft().fill(meta, columns)
        else:
            self._failure = (f"shard worker {self.shard} sent {kind!r} unasked", None)

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass


class ShardWorkerPool:
    """Long-lived forked shard workers fed through a shared packet ring.

    One worker process per shard, forked once at construction; each
    holds a live engine — its own, or the one ``engines`` hands it,
    adopted copy-on-write — and accumulates state across every chunk, so
    per-run cost is one fork + one snapshot ship per worker no matter how
    many chunks stream through.  Before forking, the pool maps the
    :class:`_PacketRing` (``slot_packets`` packets a slot, by default the
    config's ``chunk_size``, capped at ``total``) and builds the kernel's
    FSM tables, so workers inherit both.  :meth:`dispatch` writes a
    chunk into the next free slot — waiting, if both are taken, for every
    worker to release the older one — and sends each worker a descriptor,
    with its flows of a new table when the chunk brings one.
    :meth:`request` asks one worker for a reply, which arrives in frame
    order (after every slot sent before it) and is read when wanted.

    Worker failures surface promptly as
    :class:`~repro.errors.ShardWorkerError` (never a hang): a worker that
    raises ships its traceback back as an error frame, and a worker that
    dies outright closes its pipe; either is raised by the next
    :meth:`send`, slot wait or reply read.  A worker exits on pipe EOF,
    so one whose parent died leaves with it.
    """

    def __init__(
        self,
        config,
        key_ranges,
        total: "int | None",
        slot_packets: "int | None" = None,
        engines=None,
    ) -> None:
        from repro.kernels import geometry_tables, runs_kernel

        # Only a forked worker inherits the ring's mapping.
        context = multiprocessing.get_context("fork")
        # Every forked worker inherits the batch-probed WSAF's module and
        # NumPy's generators instead of importing them while it builds its
        # engine and opens its stream (both are imported lazily), and under
        # the kernel its FSM tables, copy-on-write, instead of rebuilding
        # them.
        import numpy.random  # noqa: F401

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
        self._channels: "list[_Channel]" = []
        #: Each worker's first frame, which says it serves.
        self._ready: "list[_Reply]" = []
        self._procs = []
        self._closed = False
        #: Descriptors sent so far.
        self._dispatched = 0
        try:
            for shard, key_range in enumerate(key_ranges):
                parent_conn, child_conn = context.Pipe(duplex=True)
                channel = _Channel(parent_conn, shard)
                self._channels.append(channel)
                self._ready.append(channel.expect())
                process = context.Process(
                    target=_worker_main,
                    args=(
                        child_conn,
                        # The parent's pipe ends, even where none are listed.
                        _open_descriptors()
                        | {channel.conn.fileno() for channel in self._channels},
                        config,
                        key_range,
                        total,
                        self.ring,
                        shard,
                        None if engines is None else engines[shard],
                    ),
                    name=f"shard-worker-{shard}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._procs.append(process)
        except BaseException:
            self.close()
            raise

    def send(self, shard: int, frame: bytes, answered: bool = False) -> "_Reply | None":
        """Ship one packed frame to ``shard``'s worker; with ``answered``,
        return the reply the worker will send for it."""
        return self._channels[shard].send(frame, answered)

    def request(self, shard: int, meta: "dict", columns=None) -> _Reply:
        """Ask ``shard``'s worker one of :func:`_worker_main`'s questions;
        its answer comes after every frame sent before this one."""
        return self.send(shard, pack_frame(meta, columns or {}), answered=True)

    def wait_ready(self) -> None:
        """Return once every worker serves (its first frame is in)."""
        for reply in self._ready:
            reply.result()

    def dispatch(
        self,
        columns: "dict[str, np.ndarray]",
        tables: "list[dict[str, np.ndarray]] | None" = None,
    ) -> None:
        """Write one piece of a chunk into the next free slot and send
        every worker its descriptor.

        ``columns`` are the ring's columns (:class:`_PacketRing`), at most
        ``ring.slot_packets`` long.  ``tables``, when the piece's flow
        table is new to the workers, holds each worker's ``key64`` /
        ``tuple_lo`` / ``tuple_hi`` columns, which its descriptor carries.
        Every worker must have released the slot's previous contents
        first, so with both slots taken this waits for the slower worker.
        """
        needed = self._dispatched - RING_SLOTS + 1
        for channel in self._channels:
            channel.wait(lambda: channel.released >= needed)
        slot = self._dispatched % RING_SLOTS
        self.ring.write(slot, columns)
        self._dispatched += 1
        meta = {"type": "slot", "slot": slot, "count": len(columns["timestamps"])}
        if tables is None:
            frame = pack_frame(meta, {})
            for shard in range(self.num_shards):
                self.send(shard, frame)
        else:
            for shard, table in enumerate(tables):
                self.send(shard, pack_frame(meta, table))

    def finalize(self) -> "list[tuple[dict, bytes]]":
        """Ask every worker to finalize; collect ``(stats, snapshot_bytes)``."""
        replies = [
            self.request(shard, {"type": "finalize"}) for shard in range(self.num_shards)
        ]
        collected: "list[tuple[dict, bytes]]" = []
        for shard, reply in enumerate(replies):
            meta, columns = reply.result()
            if meta.get("type") != "done":
                raise ShardWorkerError(
                    f"shard worker {shard} sent {meta.get('type')!r}, not its snapshot"
                )
            collected.append((meta, columns["snapshot"].tobytes()))
        return collected

    def close(self) -> None:
        """Close every pipe, reap the worker processes, unmap the ring."""
        if self._closed:
            return
        self._closed = True
        for channel in self._channels:
            channel.close()
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
        controller: optional
            :class:`~repro.pipeline.control.ShedController`, applied by
            the :class:`~repro.pipeline.driver.Pipeline` driver exactly
            as in a single-process run: one decision per chunk, before
            routing, applied to the whole chunk — so every shard sheds
            the same packets and a sharded shed run stays
            decision-identical to a single-process shed run with the
            same target, seed, and schedule.
    """

    def __init__(self, config=None, num_shards: int = 1, controller=None) -> None:
        from repro.core.instameasure import InstaMeasureConfig

        if num_shards < 1:
            raise ConfigurationError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        self.config = config or InstaMeasureConfig()
        self.num_shards = num_shards
        self.controller = controller
        self.router = ShardRouter.for_config(self.config, num_shards)

    def run(self, source, parallel: bool = False) -> ShardedResult:
        """Drive every chunk through the pipeline into the shards; merge.

        ``source`` is a chunk source, or a bare trace cut into chunks of
        the config's ``chunk_size``.  With an unknown ``total_packets``
        each shard draws its own randomness (see the module docstring).
        ``parallel`` runs the shards as a forked :class:`ShardWorkerPool`
        (falling back to in-process execution, with a
        :class:`RuntimeWarning`, where the platform cannot fork; both
        modes are bit-identical).
        """
        source = as_chunk_source(source, self.config.chunk_size)
        total = source.total_packets
        if total is not None:
            total = int(total)
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

    def top(self, k: int) -> "dict[int, tuple[float, float]]":
        """Each shard's ``k`` largest flows by packet estimate, shard by
        shard: the candidates the ``k`` largest of the union come from."""
        candidates: "dict[int, tuple[float, float]]" = {}
        for engine in self.engines:
            candidates.update(_largest(engine.estimates(), k))
        return candidates

    @property
    def wsaf_size(self) -> int:
        """Total live WSAF records across shards (occupancy metric)."""
        return sum(self.wsaf_sizes())

    def wsaf_sizes(self) -> "list[int]":
        """Each shard's live WSAF record count."""
        return [len(engine.wsaf) for engine in self.engines]

    def snapshot_shards(self) -> "list[MeasurementSnapshot]":
        """One mid-flight snapshot per shard, tagged with its key range."""
        return [
            engine.snapshot(key_range=self.router.key_range(shard))
            for shard, engine in enumerate(self.engines)
        ]

    def shard_payloads(self) -> "list[bytes]":
        """Each shard's mid-flight snapshot as IMSNAP bytes (what a
        service checkpoint writes)."""
        return [to_bytes(snapshot) for snapshot in self.snapshot_shards()]

    def merged_snapshot(self) -> MeasurementSnapshot:
        """The shards folded into one state — valid between streams only
        (``merge`` refuses in-progress stream cursors)."""
        return merge(self.snapshot_shards())

    def open(self) -> None:
        """Nothing to start: the shards live in this process."""

    def close(self) -> None:
        """Nothing to release: the shards live in this process."""


class _Estimates(Mapping):
    """``{key64: (packets, bytes)}`` the workers owe for one request,
    read and joined in shard order on first use — so a rotation hands
    the driver its epoch archive without waiting for it."""

    def __init__(self, replies: "list[_Reply]") -> None:
        self._replies = replies
        self._table: "dict | None" = None

    def _resolved(self) -> "dict":
        replies = self._replies
        if self._table is None:
            table: "dict[int, tuple[float, float]]" = {}
            for reply in replies:
                _meta, columns = reply.result()
                table.update(
                    zip(
                        columns["key"].tolist(),
                        zip(columns["packets"].tolist(), columns["bytes"].tolist()),
                    )
                )
            self._table = table
            self._replies = None
        return self._table

    def __getitem__(self, key):
        return self._resolved()[key]

    def __iter__(self):
        return iter(self._resolved())

    def __len__(self) -> int:
        return len(self._resolved())

    def __repr__(self) -> str:
        return repr(self._resolved())


class _Owed(Sequence):
    """One value per worker, each read off its reply when first indexed."""

    def __init__(self, replies: "list[_Reply]", read) -> None:
        self._replies = replies
        self._read = read

    def __getitem__(self, index):
        return self._read(*self._replies[index].result())

    def __len__(self) -> int:
        return len(self._replies)


class _PoolShardMeasurer:
    """The pool form of a sharded run: every shard engine in a forked worker.

    :class:`ShardedPipeline` hands it a :class:`ShardWorkerPool` whose
    workers built their own engines; the service daemon
    (:func:`_serving_measurer`) hands it the shards a checkpoint restored,
    or none, and the first chunk forks the pool (:meth:`open`): each
    worker adopts its shard's restored engine copy-on-write, and this
    process drops its copies, or builds a fresh engine of its own.

    :meth:`ingest` writes each chunk once into the pool's packet ring:
    timestamps and sizes, every packet's shard and worker-local flow id
    (looked up from per-table arrays), and — for a known-length stream —
    the chunk's slice of the run's one bit draw, which this measurer
    makes.  When the flow table changes, the next slot frame each worker
    gets carries its own flows of the new table, and chunks that share a
    table send nothing more.  The daemon's verbs are requests
    the workers answer in frame order: :meth:`rotate`, :meth:`estimates`
    (a keyed query goes only to the keys' owners), :meth:`top`,
    :meth:`wsaf_sizes` and :meth:`shard_payloads` return at once, and
    the values they hand back read the replies when first used.

    While no pool runs — before the first chunk, and after
    :meth:`finalize` or :meth:`close` ended it — every read goes to
    in-process shards (:attr:`local`): the engines still to be adopted,
    or the workers' last snapshots restored.  Before a fresh stream's
    first chunk there are none: :meth:`estimates`, :meth:`top`,
    :meth:`rotate` and :meth:`wsaf_sizes` answer as fresh engines would,
    and only a capture, :meth:`finalize` or :attr:`engines` builds them.
    """

    def __init__(
        self,
        config,
        pool: "ShardWorkerPool | None" = None,
        total: "int | None" = None,
        local: "ShardedStreamingMeasurer | None" = None,
        slot_packets: "int | None" = None,
        num_shards: "int | None" = None,
    ) -> None:
        from repro.core.instameasure import _BitStream

        self.config = config
        self.pool = pool
        self._local = local
        if pool is not None:
            num_shards = pool.num_shards
        elif local is not None:
            num_shards = local.num_shards
        self.num_shards = num_shards
        self.router = (
            local.router
            if local is not None
            else ShardRouter.for_config(config, self.num_shards)
        )
        self._total = total
        self._slot_packets = slot_packets
        self._bits = None if total is None else _BitStream(config, total)
        self._sync = _ShardFlowSync()
        #: The current flow table, each flow's shard and worker-local id.
        self._flows = None
        self._flow_shards: "np.ndarray | None" = None
        self._flow_local: "np.ndarray | None" = None
        self._route_s = self._ipc_s = 0.0
        #: The workers' last snapshots, once the pool ended.
        self._payloads: "list[bytes]" = []
        self._failure: "str | None" = None

    @property
    def local(self) -> ShardedStreamingMeasurer:
        """The in-process shards while no pool runs."""
        if self.pool is not None:
            raise ConfigurationError("the shard engines live in the pool's workers")
        if self._local is None:
            if self._failure is not None:
                raise ShardWorkerError(self._failure)
            if self._payloads:
                self._local = ShardedStreamingMeasurer.from_snapshots(
                    [from_bytes(payload) for payload in self._payloads]
                )
            else:
                self._local = ShardedStreamingMeasurer(self.config, self.num_shards)
        return self._local

    @property
    def _unstarted(self) -> bool:
        """No pool has run, and no state waits to be handed to one."""
        return (
            self.pool is None
            and self._local is None
            and not self._payloads
            and self._failure is None
        )

    @property
    def engines(self) -> list:
        """The shard engines, read while no pool runs (:attr:`local`)."""
        return self.local.engines

    def open(self) -> None:
        """Fork the pool, unless one runs, and wait until every worker
        serves.  The workers adopt the in-process shards' engines, when
        there are any, and this process drops its copies; an
        unknown-length stream opens here, before the fork, on every
        adopted engine that has none (a restored engine resumes its
        own).  With none, each worker builds a fresh engine: this
        process never holds, nor touches, the tables."""
        if self.pool is not None:
            return
        engines = None
        if not self._unstarted:
            # State to hand over (or a failure to raise).
            engines = self.local.engines
            if self._total is None:
                for engine in engines:
                    if engine._stream is None:
                        engine.begin_stream()
        key_ranges = [self.router.key_range(shard) for shard in range(self.num_shards)]
        self.pool = ShardWorkerPool(
            self.config,
            key_ranges,
            self._total,
            slot_packets=self._slot_packets,
            engines=engines,
        )
        self._local = None
        self._flows = None
        # Start-up is set-up: the first chunks do not wait out the forks.
        self.pool.wait_ready()

    def _end(self, payloads: "list[bytes]") -> None:
        """Close the pool; later reads restore ``payloads``."""
        pool, self.pool = self.pool, None
        self._payloads, self._local = payloads, None
        pool.close()

    def _map_table(self, flows) -> "list[dict[str, np.ndarray]]":
        """Map a new flow table to shards and local ids; each worker's
        own flows' columns, for the next slot frame to carry."""
        begin = time.perf_counter()
        flow_shards = self.router.flow_shards(flows)
        local = np.empty(len(flows), dtype=np.int64)
        tables = []
        for shard in range(self.pool.num_shards):
            members = select_shard(flow_shards, shard)
            local[members], fresh = self._sync.localize(flows, members)
            key64, tuple_lo, tuple_hi = _fresh_flow_columns(flows, fresh)
            tables.append({"key64": key64, "tuple_lo": tuple_lo, "tuple_hi": tuple_hi})
        self._flows = flows
        self._flow_shards = flow_shards.astype(self.pool.ring.shard_dtype)
        self._flow_local = local
        self._route_s += time.perf_counter() - begin
        return tables

    def ingest(self, chunk) -> None:
        trace = chunk.trace
        count = trace.num_packets
        if not count:
            return
        self.open()
        tables = None
        if trace.flows is not self._flows:
            tables = self._map_table(trace.flows)
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
            self.pool.dispatch(columns, tables)
            tables = None
            self._ipc_s += time.perf_counter() - routed

    def finalize(self) -> ShardedStreamResult:
        """Finalize every worker, keep their snapshot payloads, and close
        the pool (a stream that never forked finalizes in-process)."""
        if self.pool is None:
            return self.local.finalize()
        begin = time.perf_counter()
        replies = self.pool.finalize()
        self._ipc_s += time.perf_counter() - begin
        self._end([payload for _meta, payload in replies])
        stats = [meta for meta, _payload in replies]
        route_s, ipc_s = self._route_s, self._ipc_s
        self._route_s = self._ipc_s = 0.0
        return ShardedStreamResult(
            packets=sum(meta["packets"] for meta in stats),
            insertions=sum(meta["insertions"] for meta in stats),
            elapsed_seconds=sum(meta["elapsed"] for meta in stats),
            shard_packets=[meta["packets"] for meta in stats],
            shard_insertions=[meta["insertions"] for meta in stats],
            stage_seconds={
                "route_s": route_s,
                "ipc_s": ipc_s,
                "ingest_s": max(
                    (meta.get("ingest_s", 0.0) for meta in stats), default=0.0
                ),
            },
        )

    def close(self) -> None:
        """End a running pool, keeping what its workers reached: their
        states are captured first and read afterwards as a finished run's
        are.  When a worker cannot answer, reads raise its
        :class:`~repro.errors.ShardWorkerError` instead."""
        if self.pool is None:
            return
        try:
            payloads = list(self.shard_payloads())
        except ShardWorkerError as exc:
            self._failure, payloads = str(exc), []
        self._end(payloads)

    def _ask(self, meta: "dict") -> "list[_Reply]":
        """Ask every worker ``meta``; their replies, in shard order."""
        return [self.pool.request(shard, meta) for shard in range(self.num_shards)]

    def estimates(self, flow_keys=None) -> "Mapping[int, tuple[float, float]]":
        """Union of the shards' estimates; a keyed query asks only the
        workers that own the keys."""
        if self._unstarted:
            return {}
        if self.pool is None:
            return self.local.estimates(flow_keys=flow_keys)
        if flow_keys is None:
            return _Estimates(self._ask({"type": "query"}))
        keys = np.asarray(
            flow_keys if isinstance(flow_keys, np.ndarray) else list(flow_keys),
            dtype=np.uint64,
        )
        owners = self.router.shard_of_keys(keys)
        return _Estimates(
            [
                self.pool.request(shard, {"type": "query"}, {"keys": keys[owners == shard]})
                for shard in np.unique(owners).tolist()
            ]
        )

    def top(self, k: int) -> "Mapping[int, tuple[float, float]]":
        """Each shard's ``k`` largest flows, shard by shard."""
        if self._unstarted:
            return {}
        if self.pool is None:
            return self.local.top(k)
        return _Estimates(self._ask({"type": "top", "k": int(k)}))

    def rotate(self, now: float, wsaf_timeout: "float | None" = None):
        """Rotate every shard; the union of their pre-expiry estimates,
        read when first used."""
        if self._unstarted:
            return {}  # fresh engines hold nothing to archive or expire
        if self.pool is None:
            return self.local.rotate(now, wsaf_timeout=wsaf_timeout)
        return _Estimates(
            self._ask({"type": "rotate", "now": now, "wsaf_timeout": wsaf_timeout})
        )

    @property
    def wsaf_size(self) -> int:
        """Total live WSAF records across shards."""
        return sum(self.wsaf_sizes())

    def wsaf_sizes(self) -> "Sequence[int]":
        """Each shard's live WSAF record count."""
        if self._unstarted:
            return [0] * self.num_shards
        if self.pool is None:
            return self.local.wsaf_sizes()
        return _Owed(self._ask({"type": "size"}), lambda meta, _columns: meta["wsaf_size"])

    def shard_payloads(self) -> "Sequence[bytes]":
        """Each shard's mid-flight snapshot as IMSNAP bytes: the workers'
        own, never decoded here."""
        if self.pool is None:
            return self.local.shard_payloads()
        return _Owed(
            self._ask({"type": "capture"}),
            lambda _meta, columns: columns["snapshot"].tobytes(),
        )

    def snapshot_shards(self) -> "list[MeasurementSnapshot]":
        """One snapshot per shard, read while no pool runs (:attr:`local`)."""
        return self.local.snapshot_shards()

    def merged_snapshot(self) -> MeasurementSnapshot:
        """The finalized shard states, decoded and folded into one."""
        return merge([from_bytes(payload) for payload in self._payloads])


def _serving_measurer(
    config,
    num_shards: int,
    restored: "ShardedStreamingMeasurer | None" = None,
    slot_packets: "int | None" = None,
):
    """The measurer the service daemon serves on: ``num_shards`` shards
    of ``config`` — or the shards a checkpoint ``restored``, whose config
    and count win — in a fork pool forked at the first chunk (ring slots
    of ``slot_packets`` packets).  Where the platform cannot fork, the
    in-process shards themselves."""
    if not _fork_available():
        return restored or ShardedStreamingMeasurer(config, num_shards)
    if restored is not None:
        config, num_shards = restored.config, restored.num_shards
    return _PoolShardMeasurer(
        config, local=restored, slot_packets=slot_packets, num_shards=num_shards
    )
