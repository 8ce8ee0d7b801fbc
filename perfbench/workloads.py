"""The benchmark's workloads, each driven through a public entry point.

A workload generates its inputs from the seed once per run
(:meth:`Workload.prepare` — the load generator, never timed), then runs
*passes*: each pass builds a fresh :class:`~repro.traffic.packet.Trace`
and chunk source from those inputs, so every kernel cache pinned on a
trace starts empty and every number is a single pass over packets the
engine has never seen.  The oracle each pass is checked against is
computed once per run, untimed, in a child process before the passes.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import shutil
import socket
import tempfile
import threading
import time

import numpy as np

from measure import estimate_mismatches, in_child
from repro.core import InstaMeasure, InstaMeasureConfig
from repro.pipeline import (
    PacketRecordChunkSource,
    Pipeline,
    ShardedPipeline,
    ShardedStreamingMeasurer,
    ShardWorkerPool,
    TraceChunkSource,
)
from repro.service import ControlServer, MeasurementDaemon
from repro.traffic import CaidaLikeConfig, build_caida_like_trace
from repro.traffic.campus import CampusConfig, build_campus_trace
from repro.traffic.packet import FlowTable, Trace
from repro.traffic.pcaplite import RECORD_DTYPE, PacketRecordWriter

#: Flows queried per pass (the true top flows by packet count).
QUERY_KEYS = 64


@dataclasses.dataclass
class PassResult:
    """What one timed pass measured; ``begin``/``end`` bound its clock."""

    packets: int
    begin: float
    end: float
    chunks: int
    estimates: "dict | None"
    setup_s: "float | None" = None
    #: Flows (and regulator words) that differ from the oracle's.
    mismatched: int = 0
    words: "bytes | None" = None
    parallel: bool = True
    query_latencies: list = dataclasses.field(default_factory=list)
    query_failures: int = 0
    #: Open-loop queries sent while the daemon ingests, and how late each
    #: went out (``campus-serve`` only).
    live_latencies: list = dataclasses.field(default_factory=list)
    lateness: list = dataclasses.field(default_factory=list)
    chunk_intervals: list = dataclasses.field(default_factory=list)
    insertions: int = 0
    l1_saturations: int = 0
    wsaf_occupancy: int = 0
    wsaf_evictions: int = 0
    epochs: int = 0
    stage_seconds: dict = dataclasses.field(default_factory=dict)
    load_share_max: float = 1.0
    #: Per-flow estimates the accuracy metrics read, when they differ
    #: from the final WSAF (the daemon's GC expires finished flows).
    archive: "dict | None" = None

    @property
    def pps(self) -> float:
        return self.packets / (self.end - self.begin)


class _Stamped:
    """Chunk-source mixin recording when the consumer asks for each chunk.

    ``requests[0]`` starts a pass's clock; consecutive requests bracket
    the consumer's work on one chunk (source wait + step + whatever the
    consumer does before asking again).
    """

    def __iter__(self):
        self.requests = []
        inner = super().__iter__()
        while True:
            self.requests.append(time.perf_counter())
            chunk = next(inner, None)
            if chunk is None:
                return
            yield chunk


class StampedTraceSource(_Stamped, TraceChunkSource):
    pass


class StampedRecordSource(_Stamped, PacketRecordChunkSource):
    pass


def fresh_trace(base: Trace) -> Trace:
    """A new trace object over copies of ``base``'s columns: same packets,
    no caches pinned on it or on its flow table."""
    flows = base.flows
    return Trace(
        timestamps=base.timestamps.copy(),
        flow_ids=base.flow_ids.copy(),
        sizes=base.sizes.copy(),
        flows=FlowTable(
            flows.src_ip.copy(),
            flows.dst_ip.copy(),
            flows.src_port.copy(),
            flows.dst_port.copy(),
            flows.protocol.copy(),
            hash_seed=flows.hash_seed,
        ),
    )


_FLOW_COLUMNS = ("src_ip", "dst_ip", "src_port", "dst_port", "protocol")


def generate_input(build, config, count: int, workdir: str) -> Trace:
    """The first ``count`` packets of ``build(config)``, generated in a child.

    Flow sizes are heavy-tailed, so a generator's packet total swings by
    tens of percent between seeds; a fixed prefix keeps every seed's input
    the same size, which is what memory and latency scale with.  The
    generator's temporaries are several times the trace itself, hence the
    child (:func:`measure.in_child`).
    """

    def columns():
        trace = build(config)
        return (
            trace.timestamps[:count].copy(),
            trace.flow_ids[:count].copy(),
            trace.sizes[:count].copy(),
            [getattr(trace.flows, column) for column in _FLOW_COLUMNS],
            trace.flows.hash_seed,
        )

    timestamps, flow_ids, sizes, flow_columns, hash_seed = in_child(columns, workdir)
    return Trace(
        timestamps=timestamps,
        flow_ids=flow_ids,
        sizes=sizes,
        flows=FlowTable(*flow_columns, hash_seed=hash_seed),
    )


def ground_truth(trace: Trace) -> "tuple[dict[int, int], list[int]]":
    """True packets per seen flow key, and the :data:`QUERY_KEYS` largest keys."""
    keys, inverse = np.unique(trace.flows.key64, return_inverse=True)
    counts = np.bincount(
        inverse.reshape(-1), weights=trace.ground_truth_packets(), minlength=len(keys)
    ).astype(np.int64)
    top = keys[np.argsort(-counts, kind="stable")[:QUERY_KEYS]]
    seen = counts > 0
    return dict(zip(keys[seen].tolist(), counts[seen].tolist())), top.tolist()


def regulator_words(engine) -> bytes:
    """Every regulator word of ``engine`` (L1 then each L2 bank)."""
    sketches = [engine.regulator.l1, *engine.regulator.l2]
    return b"".join(np.asarray(s.words, dtype=np.uint64).tobytes() for s in sketches)


def timed_lookups(lookup, keys, rounds: int = 4) -> "list[float]":
    """Latency of ``lookup(flow_keys=[key])`` per key, ``rounds`` times over."""
    latencies = []
    for _ in range(rounds):
        for key in keys:
            begin = time.perf_counter()
            lookup(flow_keys=[key])
            latencies.append(time.perf_counter() - begin)
    return latencies


def write_capture(trace: Trace, path: str) -> None:
    """Dump ``trace`` as pcap-lite records, vectorized."""
    flows, ids = trace.flows, trace.flow_ids
    records = np.zeros(trace.num_packets, dtype=RECORD_DTYPE)
    records["timestamp"] = trace.timestamps
    records["src_ip"] = flows.src_ip[ids]
    records["dst_ip"] = flows.dst_ip[ids]
    records["src_port"] = flows.src_port[ids]
    records["dst_port"] = flows.dst_port[ids]
    records["protocol"] = flows.protocol[ids]
    records["size"] = trace.sizes
    PacketRecordWriter(path).close()  # the header
    with open(path, "ab") as handle:
        handle.write(records.tobytes())


class Workload:
    """One named workload; subclasses fill in the entry point they drive."""

    name = ""
    why = ""
    #: Heavy-hitter threshold (true packets) of ``hh_recall``.
    hh_threshold = 0
    config = InstaMeasureConfig()

    def prepare(self, seed: int, workdir: str) -> None:
        raise NotImplementedError

    def setup_sample(self) -> float:
        """Seconds to construct what serves the workload, nothing ingested."""
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def oracle(self) -> dict:
        raise NotImplementedError

    def mismatches(self, result: PassResult, oracle: dict) -> int:
        return estimate_mismatches(result.estimates, oracle["estimates"])

    def describe(self) -> "dict[str, object]":
        words = self.config.l1_memory_bytes * 8 // self.config.word_bits
        return {
            "packets": self.packets,
            "flows": self.flows,
            "flows_per_l1_word": round(self.flows / words, 1),
        }


class PipelineWorkload(Workload):
    """Single-process ``Pipeline.run`` over a CAIDA-like trace."""

    def __init__(self, name, why, trace_config, config, hh_threshold, max_packets):
        self.name = name
        self.why = why
        self.trace_config = trace_config
        self.config = config
        self.hh_threshold = hh_threshold
        self.max_packets = max_packets

    def prepare(self, seed: int, workdir: str) -> None:
        self.base = generate_input(
            build_caida_like_trace,
            dataclasses.replace(self.trace_config, seed=seed),
            self.max_packets,
            workdir,
        )
        self.truth, self.top = ground_truth(self.base)
        self.packets = self.base.num_packets
        self.flows = len(self.truth)

    def setup_sample(self) -> float:
        begin = time.perf_counter()
        Pipeline(InstaMeasure(self.config))
        return time.perf_counter() - begin

    def run_pass(self) -> PassResult:
        source = StampedTraceSource(
            fresh_trace(self.base), chunk_size=self.config.chunk_size
        )
        begin = time.perf_counter()
        engine = InstaMeasure(self.config)
        pipeline = Pipeline(engine)
        setup_s = time.perf_counter() - begin
        result = pipeline.run(source)
        end = time.perf_counter()
        return PassResult(
            packets=result.packets,
            begin=source.requests[0],
            end=end,
            chunks=len(result.chunks),
            estimates=engine.estimates(),
            setup_s=setup_s,
            words=regulator_words(engine),
            query_latencies=timed_lookups(engine.estimates, self.top),
            insertions=result.result.insertions,
            l1_saturations=engine.regulator.l1.saturations,
            wsaf_occupancy=len(engine.wsaf),
            wsaf_evictions=engine.wsaf.evictions,
        )

    def oracle(self) -> dict:
        engine = InstaMeasure(dataclasses.replace(self.config, engine="scalar"))
        engine.process_trace(fresh_trace(self.base))
        return {"estimates": engine.estimates(), "words": regulator_words(engine)}

    def mismatches(self, result: PassResult, oracle: dict) -> int:
        return super().mismatches(result, oracle) + (result.words != oracle["words"])


class ForkWorkload(PipelineWorkload):
    """``ShardedPipeline.run(parallel=True)``: fork pool, frame IPC, merge."""

    shards = 2
    chunk_size = 1 << 18

    def setup_sample(self) -> float:
        begin = time.perf_counter()
        sharded = ShardedPipeline(self.config, num_shards=self.shards)
        ranges = [sharded.router.key_range(shard) for shard in range(self.shards)]
        pool = ShardWorkerPool(self.config, ranges, self.packets)
        elapsed = time.perf_counter() - begin
        pool.close()
        return elapsed

    def run_pass(self) -> PassResult:
        source = StampedTraceSource(fresh_trace(self.base), chunk_size=self.chunk_size)
        sharded = ShardedPipeline(self.config, num_shards=self.shards)
        result = sharded.run(source, parallel=True)
        end = time.perf_counter()
        snapshot = result.snapshot
        return PassResult(
            packets=result.packets,
            begin=source.requests[0],
            end=end,
            chunks=len(source.requests) - 1,
            estimates=result.estimates(),
            parallel=result.parallel,
            # Per-flow lookups go to the merged state materialized as a
            # live engine, as in the single-process workloads.
            query_latencies=timed_lookups(result.restore().estimates, self.top),
            insertions=result.insertions,
            l1_saturations=snapshot.regulator.l1_saturations,
            wsaf_occupancy=snapshot.wsaf.size,
            wsaf_evictions=snapshot.wsaf.evictions,
            stage_seconds=dict(result.stage_seconds),
            load_share_max=max(result.load_shares),
        )

    def oracle(self) -> dict:
        """A single-process run (the scalar engine, bit-identical to every
        other single-process engine)."""
        return {"estimates": super().oracle()["estimates"]}

    def mismatches(self, result: PassResult, oracle: dict) -> int:
        # A run that silently fell back to in-process shards is a failure.
        return Workload.mismatches(self, result, oracle) + (not result.parallel)


class QueryClient(threading.Thread):
    """Open-loop ``query <key>`` sender over one control connection.

    Query ``k`` is due at ``start + k / rate`` whether or not earlier
    replies came back; its latency runs from that due time to the reply
    line, so a stalled daemon charges the wait to every query behind it.
    ``lateness`` records how far behind schedule each send went out.
    """

    def __init__(self, address, keys, rate: float) -> None:
        super().__init__(name="perfbench-client", daemon=True)
        self.address = address
        self.keys = list(keys)
        self.interval = 1.0 / rate
        self.latencies: "list[float]" = []
        self.lateness: "list[float]" = []
        self.failures = 0
        self._halt = threading.Event()

    def run(self) -> None:
        try:
            with socket.create_connection(self.address, timeout=30.0) as conn:
                with conn.makefile("rwb") as stream:
                    start = time.perf_counter()
                    for index in itertools.count():
                        due = start + index * self.interval
                        if self._halt.wait(max(0.0, due - time.perf_counter())):
                            return
                        self.lateness.append(time.perf_counter() - due)
                        key = self.keys[index % len(self.keys)]
                        stream.write(b"query %d\n" % key)
                        stream.flush()
                        reply = stream.readline()
                        self.latencies.append(time.perf_counter() - due)
                        self.failures += not reply.startswith(b"ok ")
        except OSError:
            self.failures += 1

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=30.0)
        if self.is_alive():
            raise RuntimeError("query client did not stop")


def socket_lookups(address, keys, rounds: int = 4) -> "tuple[list[float], int]":
    """Closed-loop ``query <key>`` round trips over one control connection:
    ``(latencies, failed replies)``, ``rounds`` times over ``keys``."""
    latencies = []
    failures = 0
    with socket.create_connection(address, timeout=30.0) as conn:
        with conn.makefile("rwb") as stream:
            for _ in range(rounds):
                for key in keys:
                    begin = time.perf_counter()
                    stream.write(b"query %d\n" % key)
                    stream.flush()
                    reply = stream.readline()
                    latencies.append(time.perf_counter() - begin)
                    failures += not reply.startswith(b"ok ")
    return latencies, failures


class ServeWorkload(Workload):
    """``MeasurementDaemon`` + ``ControlServer`` over a pcap-lite capture."""

    name = "campus-serve"
    why = (
        "the always-on path: pcap-lite parse, routing, epoch rotation, "
        "checkpoints and live control-socket queries beside ingest"
    )
    hh_threshold = 5_000
    #: The ``instameasure serve`` defaults plus the campus settings.
    config = InstaMeasureConfig(
        l1_memory_bytes=8 * 1024, wsaf_entries=1 << 16, gc_timeout=30.0
    )
    chunk_size = 8192
    epoch_seconds = 10.0
    shards = 2
    checkpoint_every = 50
    query_rate = 50.0
    max_packets = 1_100_000

    def prepare(self, seed: int, workdir: str) -> None:
        trace = generate_input(
            build_campus_trace, CampusConfig(seed=seed), self.max_packets, workdir
        )
        self.truth, self.top = ground_truth(trace)
        self.packets = trace.num_packets
        self.flows = len(self.truth)
        self.workdir = workdir
        self.capture = os.path.join(workdir, "campus.impl")
        write_capture(trace, self.capture)
        self.empty_capture = os.path.join(workdir, "empty.impl")
        PacketRecordWriter(self.empty_capture).close()

    def _daemon(self, capture: str, checkpoint_dir: str):
        source = StampedRecordSource(
            capture, chunk_size=self.chunk_size, epoch_seconds=self.epoch_seconds
        )
        daemon = MeasurementDaemon(
            source,
            config=self.config,
            num_shards=self.shards,
            epoch_seconds=self.epoch_seconds,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=self.checkpoint_every,
        )
        return source, daemon

    def setup_sample(self) -> float:
        """Daemon construction to its first chunk request, on an empty capture."""
        checkpoint_dir = tempfile.mkdtemp(dir=self.workdir)
        try:
            begin = time.perf_counter()
            source, daemon = self._daemon(self.empty_capture, checkpoint_dir)
            daemon.start()
            if not daemon.wait(timeout=60.0) or daemon.error is not None:
                raise RuntimeError(f"daemon failed on an empty capture: {daemon.error!r}")
            return source.requests[0] - begin
        finally:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)

    def run_pass(self) -> PassResult:
        checkpoint_dir = tempfile.mkdtemp(dir=self.workdir)
        try:
            begin = time.perf_counter()
            source, daemon = self._daemon(self.capture, checkpoint_dir)
            daemon.start()
            with ControlServer(daemon, port=0) as server:
                client = QueryClient(server.address, self.top, self.query_rate)
                client.start()
                finished = daemon.wait(timeout=150.0)
                end = time.perf_counter()
                client.stop()
                lookups, lookup_failures = socket_lookups(server.address, self.top)
        finally:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
        if not finished:
            raise RuntimeError("the daemon did not finish its capture")
        if daemon.error is not None:
            raise RuntimeError(f"the daemon failed: {daemon.error!r}")
        measurer = daemon.measurer
        estimates = measurer.estimates()
        archive: dict = {}
        for record in daemon.result.epochs:
            archive.update(record.snapshot or {})
        archive.update(estimates)
        shard_packets = daemon.result.result.shard_packets
        return PassResult(
            packets=daemon.packets,
            begin=begin,
            end=end,
            chunks=len(source.requests) - 1,
            estimates=estimates,
            setup_s=source.requests[0] - begin,
            query_latencies=lookups,
            query_failures=client.failures + lookup_failures,
            live_latencies=client.latencies,
            lateness=client.lateness,
            chunk_intervals=np.diff(source.requests).tolist(),
            insertions=daemon.result.result.insertions,
            l1_saturations=sum(e.regulator.l1.saturations for e in measurer.engines),
            wsaf_occupancy=measurer.wsaf_size,
            wsaf_evictions=sum(e.wsaf.evictions for e in measurer.engines),
            epochs=len(daemon.result.epochs),
            load_share_max=max(shard_packets) / sum(shard_packets),
            archive=archive,
        )

    def oracle(self) -> dict:
        """An untimed ``Pipeline`` over the same capture and 2-shard measurer."""
        reference = ShardedStreamingMeasurer(self.config, num_shards=self.shards)
        source = PacketRecordChunkSource(
            self.capture, chunk_size=self.chunk_size, epoch_seconds=self.epoch_seconds
        )
        Pipeline(reference, rotate=True).run(source)
        return {"estimates": reference.estimates()}


_CAIDA = CaidaLikeConfig(num_flows=100_000, duration=60.0)

WORKLOADS = {
    "campus-serve": ServeWorkload,
    "caida-fork2": lambda: ForkWorkload(
        "caida-fork2",
        "a single pass over a CAIDA-like trace through the 2-worker fork pool: "
        "the only workload that runs frame IPC and the snapshot merge",
        _CAIDA,
        InstaMeasureConfig(),
        hh_threshold=5_000,
        max_packets=2_000_000,
    ),
}
