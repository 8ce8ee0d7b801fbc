"""``instameasure`` command-line interface.

Subcommands::

    instameasure gen-trace caida --flows 20000 --out trace.npz
    instameasure gen-trace campus --hours 24 --out campus.npz
    instameasure summarize trace.npz
    instameasure run trace.npz --l1-kb 8
    instameasure run trace.npz --shards 4 --parallel
    instameasure hh trace.npz --threshold-packets 1000
    instameasure snapshot save trace.npz --out state.snap
    instameasure snapshot load state.snap
    instameasure serve capture.impl --follow --checkpoint-dir state/ \
        --control-port 0 --epoch-seconds 1
    instameasure control 127.0.0.1:PORT stats

``run`` and ``snapshot save`` measure a trace file through one path, a
:class:`~repro.pipeline.ShardedPipeline` at every ``--shards`` count (one
shard is one engine).  The throughput harness runs from the source
checkout: ``python benchmarks/bench_throughput.py``.

Traces are the NPZ files of :mod:`repro.traffic.trace_io`; snapshots are
the versioned wire format of :mod:`repro.state.codec`.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis import print_table
from repro.analysis.metrics import standard_error
from repro.core import InstaMeasure, InstaMeasureConfig
from repro.detection import (
    HeavyHitterDetector,
    classify_detections,
    ground_truth_heavy_hitters,
    keys_to_flow_indices,
)
from repro.errors import ReproError
from repro.pipeline import ShedController, run_pipeline
from repro.traffic import (
    CaidaLikeConfig,
    CampusConfig,
    build_caida_like_trace,
    build_campus_trace,
    load_trace,
    save_trace,
    summarize_trace,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="instameasure",
        description="InstaMeasure (ICDCS 2019) reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    # Flags several subcommands share, declared once as parent parsers.
    trace = argparse.ArgumentParser(add_help=False)
    trace.add_argument("trace", help="trace NPZ path")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    sketch = argparse.ArgumentParser(add_help=False)
    sketch.add_argument("--l1-kb", type=float, default=8.0, help="L1 sketch size (KB)")
    sketch.add_argument("--wsaf-bits", type=int, default=16, help="WSAF size = 2^bits")
    shards = argparse.ArgumentParser(add_help=False)
    shards.add_argument(
        "--shards",
        type=int,
        default=1,
        help="shard ingestion across N flow-key shards (exact merge)",
    )
    parallel = argparse.ArgumentParser(add_help=False)
    parallel.add_argument(
        "--parallel", action="store_true", help="run shards as forked processes"
    )
    ingest = argparse.ArgumentParser(add_help=False)
    ingest.add_argument(
        "--wsaf-backend",
        choices=["flat", "tiered", "icebuckets"],
        default="flat",
        help="WSAF storage backend (tiered: hot SRAM cache; icebuckets: "
        "compressed counters)",
    )
    ingest.add_argument(
        "--target-pps",
        type=float,
        default=None,
        help="shed load down to this stream-clock rate (packets per "
        "second): overloaded chunks are deterministically sampled; unset, "
        "every packet is measured",
    )

    gen = commands.add_parser(
        "gen-trace", help="generate a synthetic trace", parents=[seed]
    )
    gen.add_argument("kind", choices=["caida", "campus"])
    gen.add_argument("--out", required=True, help="output NPZ path")
    gen.add_argument("--flows", type=int, default=20_000)
    gen.add_argument("--duration", type=float, default=30.0, help="caida: seconds")
    gen.add_argument("--hours", type=int, default=24, help="campus: modelled hours")
    gen.add_argument(
        "--pcaplite",
        default=None,
        metavar="PATH",
        help="also write the trace as a streaming pcap-lite capture "
        "(the `serve` input format)",
    )

    commands.add_parser(
        "summarize", help="print trace statistics", parents=[trace]
    )

    commands.add_parser(
        "run",
        help="measure a trace with InstaMeasure",
        parents=[trace, sketch, seed, shards, parallel, ingest],
    )

    snap = commands.add_parser(
        "snapshot", help="save/load serializable measurement state"
    )
    snap_sub = snap.add_subparsers(dest="snapshot_command", required=True)
    snap_save = snap_sub.add_parser(
        "save",
        help="measure a trace and save the final state",
        parents=[trace, sketch, seed, shards, parallel],
    )
    snap_save.add_argument("--out", required=True, help="snapshot output path")
    snap_load = snap_sub.add_parser("load", help="inspect a saved snapshot")
    snap_load.add_argument("snapshot", help="snapshot path")
    snap_load.add_argument(
        "--trace",
        default=None,
        help="score the snapshot's estimates against this trace NPZ",
    )

    hh = commands.add_parser(
        "hh", help="heavy-hitter detection on a trace", parents=[trace, sketch]
    )
    hh.add_argument("--threshold-packets", type=float, default=None)
    hh.add_argument("--threshold-bytes", type=float, default=None)

    topk = commands.add_parser(
        "topk", help="Top-K flows by packets and bytes", parents=[trace, sketch]
    )
    topk.add_argument("-k", type=int, default=10)

    spread = commands.add_parser(
        "spreaders",
        help="superspreader sources from the WSAF",
        parents=[trace, sketch],
    )
    spread.add_argument("--min-destinations", type=int, default=10)

    serve = commands.add_parser(
        "serve",
        help="run the always-on measurement service",
        parents=[sketch, seed, shards, ingest],
    )
    serve.add_argument(
        "input",
        help="pcap-lite capture path, or tcp://HOST:PORT for a live feed",
    )
    serve.add_argument(
        "--follow",
        action="store_true",
        help="tail a growing capture instead of stopping at EOF",
    )
    serve.add_argument("--chunk-size", type=int, default=8192)
    serve.add_argument(
        "--epoch-seconds",
        type=float,
        default=None,
        help="rotate epochs this often on the stream clock",
    )
    serve.add_argument(
        "--checkpoint-dir",
        default=None,
        help="persist crash-recovery checkpoints here (and recover from "
        "the newest one on start)",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=50,
        metavar="CHUNKS",
        help="checkpoint after this many ingested chunks",
    )
    serve.add_argument("--keep-checkpoints", type=int, default=3)
    serve.add_argument(
        "--control-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve the line-protocol control socket on 127.0.0.1:PORT "
        "(0 picks an ephemeral port; the chosen address is printed)",
    )
    serve.add_argument(
        "--max-packets",
        type=int,
        default=None,
        help="stop after measuring this many packets (smoke-test hook)",
    )

    control = commands.add_parser(
        "control", help="send one command to a running service"
    )
    control.add_argument("address", help="HOST:PORT of the control socket")
    control.add_argument(
        "words", nargs="+", help="command, e.g.: stats | query KEY | top 5"
    )
    control.add_argument("--timeout", type=float, default=10.0)
    return parser


def _cmd_gen_trace(args: argparse.Namespace) -> int:
    if args.kind == "caida":
        trace = build_caida_like_trace(
            CaidaLikeConfig(
                num_flows=args.flows, duration=args.duration, seed=args.seed
            )
        )
    else:
        trace = build_campus_trace(
            CampusConfig(hours=args.hours, num_flows=args.flows, seed=args.seed)
        )
    save_trace(trace, args.out)
    print(
        f"wrote {args.out}: {trace.num_packets:,} packets, "
        f"{trace.num_flows:,} flows, {trace.duration:.1f}s"
    )
    if args.pcaplite is not None:
        from repro.traffic.pcaplite import write_pcaplite

        records = write_pcaplite(trace, args.pcaplite)
        print(f"wrote {args.pcaplite}: {records:,} pcap-lite records")
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace)
    print_table(["statistic", "value"], summarize_trace(trace).rows(), args.trace)
    return 0


def _config_from_args(args: argparse.Namespace) -> InstaMeasureConfig:
    """The engine configuration a subcommand's flags describe (flags the
    subcommand does not declare take the config defaults)."""
    return InstaMeasureConfig(
        l1_memory_bytes=int(args.l1_kb * 1024),
        wsaf_entries=1 << args.wsaf_bits,
        seed=getattr(args, "seed", 0),
        wsaf_backend=getattr(args, "wsaf_backend", "flat"),
    )


def _measure(args: argparse.Namespace):
    """Measure ``args.trace`` through the sharded pipeline.

    The one measurement path of ``run`` and ``snapshot save``: one shard
    is one engine, and every shard count merges exactly equal to it.
    Returns ``(ShardedResult, trace)``.
    """
    from repro.pipeline import FileChunkSource, ShardedPipeline

    config = _config_from_args(args)
    source = FileChunkSource(args.trace, chunk_size=config.chunk_size)
    # ``snapshot save`` takes no --target-pps: it measures every packet.
    target_pps = getattr(args, "target_pps", None)
    controller = (
        None if target_pps is None else ShedController(target_pps, seed=config.seed)
    )
    result = ShardedPipeline(
        config, num_shards=args.shards, controller=controller
    ).run(source, parallel=args.parallel)
    return result, source.trace


def _controller_rows(stats: "dict | None") -> "list[list[str]]":
    if not stats:
        return []
    return [
        ["load keep rate",
         f"{stats['keep_rate']:.2%} ({stats['kept_packets']:,} of "
         f"{stats['offered_packets']:,} offered)"],
        ["load actions (thin/drop chunks)",
         f"{stats['thinned_chunks']:,}/{stats['dropped_chunks']:,}"],
    ]


def _cmd_run(args: argparse.Namespace) -> int:
    result, trace = _measure(args)
    snapshot = result.snapshot
    est_packets, _est_bytes = result.estimates_for(trace)
    truth = trace.ground_truth_packets().astype(float)
    shares = ", ".join(f"{share:.1%}" for share in result.load_shares)
    stages = result.stage_seconds
    rows = [
        ["packets", f"{result.packets:,}"],
        ["shards", f"{result.num_shards:,}"],
        ["shard load shares", shares],
        ["WSAF insertions", f"{result.insertions:,}"],
        ["regulation rate",
         f"{result.insertions / result.packets:.2%}" if result.packets else "n/a"],
        ["WSAF flows", f"{snapshot.wsaf.num_records:,}"],
        ["WSAF evictions", f"{snapshot.wsaf.evictions:,}"],
        ["stage seconds (route/ipc/ingest/merge)",
         f"{stages['route_s']:.3f}/{stages['ipc_s']:.3f}/"
         f"{stages['ingest_s']:.3f}/{stages['merge_s']:.3f}"],
    ]
    rows.extend(_controller_rows(result.controller_stats))
    big = truth >= 1000
    if big.any():
        rows.append(
            ["std error (1K+ pkt flows)",
             f"{standard_error(est_packets[big], truth[big]):.2%}"]
        )
    plural = "" if result.num_shards == 1 else "s"
    print_table(
        ["metric", "value"],
        rows,
        f"InstaMeasure run ({result.num_shards} shard{plural})",
    )
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.state import load as load_snapshot
    from repro.state import save as save_snapshot

    if args.snapshot_command == "save":
        snapshot = _measure(args)[0].snapshot
        save_snapshot(snapshot, args.out)
        print(
            f"wrote {args.out}: {snapshot.wsaf.num_records:,} WSAF records, "
            f"{snapshot.regulator.packets:,} regulated packets"
        )
        return 0

    snapshot = load_snapshot(args.snapshot)
    rows = [
        ["kind", snapshot.kind],
        ["shards merged", f"{snapshot.shards_merged:,}"],
        ["regulated packets", f"{snapshot.regulator.packets:,}"],
        ["regulator insertions", f"{snapshot.regulator.insertions:,}"],
        ["regulator sketches", f"{len(snapshot.regulator.sketches):,}"],
        ["WSAF records", f"{snapshot.wsaf.num_records:,}"],
        ["WSAF entries", f"{snapshot.wsaf.num_entries:,}"],
        ["WSAF evictions", f"{snapshot.wsaf.evictions:,}"],
        ["mid-stream", "yes" if snapshot.stream is not None else "no"],
        ["seed", f"{snapshot.config.get('seed', 0)}"],
    ]
    if snapshot.key_range is not None:
        rows.append(["key range", f"[{snapshot.key_range[0]}, {snapshot.key_range[1]})"])
    print_table(["field", "value"], rows, args.snapshot)
    if args.trace is not None:
        trace = load_trace(args.trace)
        table = snapshot.estimates()
        est_packets = np.zeros(trace.num_flows)
        for flow_index, key in enumerate(trace.flows.key64.tolist()):
            record = table.get(key)
            if record is not None:
                est_packets[flow_index] = record[0]
        truth = trace.ground_truth_packets().astype(float)
        big = truth >= 1000
        if big.any():
            print(
                "std error (1K+ pkt flows): "
                f"{standard_error(est_packets[big], truth[big]):.2%}"
            )
    return 0


def _cmd_hh(args: argparse.Namespace) -> int:
    if args.threshold_packets is None and args.threshold_bytes is None:
        print("error: provide --threshold-packets and/or --threshold-bytes",
              file=sys.stderr)
        return 2
    trace = load_trace(args.trace)
    detector = HeavyHitterDetector(
        threshold_packets=args.threshold_packets,
        threshold_bytes=args.threshold_bytes,
    )
    engine = InstaMeasure(_config_from_args(args))
    run_pipeline(engine, trace, on_accumulate=detector.on_accumulate)

    rows = []
    for label, detections, threshold_kw in (
        ("packets", detector.packet_detections,
         {"threshold_packets": args.threshold_packets}),
        ("bytes", detector.byte_detections,
         {"threshold_bytes": args.threshold_bytes}),
    ):
        if next(iter(threshold_kw.values())) is None:
            continue
        truth_pkt, truth_byte = ground_truth_heavy_hitters(trace, **threshold_kw)
        truth_set = truth_pkt if label == "packets" else truth_byte
        detected = keys_to_flow_indices(trace, set(detections))
        outcome = classify_detections(detected, truth_set, trace.num_flows)
        rows.append(
            [
                label,
                len(truth_set),
                len(detected),
                f"{outcome.false_positive_rate:.3%}",
                f"{outcome.false_negative_rate:.3%}",
            ]
        )
    print_table(
        ["metric", "true HH", "detected", "FPR", "FNR"],
        rows,
        "Heavy-hitter detection",
    )
    return 0


def _cmd_topk(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace)
    engine = InstaMeasure(_config_from_args(args))
    run_pipeline(engine, trace)
    est_packets, est_bytes = engine.estimates_for(trace)
    truth_packets = trace.ground_truth_packets()
    order = np.argsort(-est_packets)[: args.k]
    rows = []
    for rank, flow in enumerate(order, start=1):
        five_tuple = trace.flows.five_tuple(int(flow))
        rows.append(
            [
                rank,
                f"{five_tuple.src_ip:#010x}:{five_tuple.src_port}",
                f"{five_tuple.dst_ip:#010x}:{five_tuple.dst_port}",
                f"{est_packets[flow]:,.0f}",
                f"{truth_packets[flow]:,}",
                f"{est_bytes[flow] / 1e6:.2f}",
            ]
        )
    print_table(
        ["rank", "source", "destination", "est pkts", "true pkts", "est MB"],
        rows,
        f"Top-{args.k} flows (by estimated packets)",
    )
    return 0


def _cmd_spreaders(args: argparse.Namespace) -> int:
    from repro.detection import detect_superspreaders, ground_truth_fanout

    trace = load_trace(args.trace)
    engine = InstaMeasure(_config_from_args(args))
    run_pipeline(engine, trace)
    spreaders = detect_superspreaders(engine.wsaf, args.min_destinations)
    truth = ground_truth_fanout(trace)
    rows = [
        [f"{src:#010x}", fanout, truth.get(src, 0)]
        for src, fanout in sorted(spreaders.items(), key=lambda kv: -kv[1])
    ]
    print_table(
        ["source", "observed fan-out", "true fan-out"],
        rows,
        f"Superspreaders (>= {args.min_destinations} destinations)",
    )
    return 0


def _serve_source(args: argparse.Namespace):
    from repro.pipeline import PacketRecordChunkSource, SocketChunkSource

    if args.input.startswith("tcp://"):
        host, _, port = args.input[len("tcp://") :].partition(":")
        if not host or not port:
            raise ReproError(f"bad feed address {args.input!r}: want tcp://HOST:PORT")
        return SocketChunkSource(
            host,
            int(port),
            chunk_size=args.chunk_size,
            epoch_seconds=args.epoch_seconds,
        )
    return PacketRecordChunkSource(
        args.input,
        chunk_size=args.chunk_size,
        epoch_seconds=args.epoch_seconds,
        follow=args.follow,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: the always-on daemon with optional control socket."""
    import signal

    from repro.service import ControlServer, MeasurementDaemon

    daemon = MeasurementDaemon(
        _serve_source(args),
        config=_config_from_args(args),
        num_shards=args.shards,
        epoch_seconds=args.epoch_seconds,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        keep_checkpoints=args.keep_checkpoints,
        max_packets=args.max_packets,
        target_pps=args.target_pps,
    )
    control = None
    try:
        daemon.start()
        if args.control_port is not None:
            control = ControlServer(daemon, port=args.control_port)
            # Parseable by wrappers (the CI smoke job reads this line).
            print(f"control {control.address[0]}:{control.address[1]}", flush=True)
        if daemon.recovered_from is not None:
            print(
                f"recovered from checkpoint {daemon.recovered_from} "
                f"at packet {daemon.packets:,}",
                flush=True,
            )

        def _stop(_signum, _frame):
            daemon.stop()

        signal.signal(signal.SIGINT, _stop)
        signal.signal(signal.SIGTERM, _stop)
        while not daemon.wait(timeout=0.5):
            pass
    finally:
        if control is not None:
            control.close()
    stats = daemon.stats()
    if daemon.error is not None:
        print(f"error: ingest failed: {daemon.error}", file=sys.stderr)
        return 1
    print(
        f"served {stats['packets']:,} packets in {stats['chunks']:,} chunks "
        f"({stats['pps_total']:,.0f} pps, {stats['wsaf_entries']:,} WSAF flows)"
    )
    if stats["target_pps"] is not None:
        print(
            f"shed to {stats['target_pps']:,.0f} pps: measured "
            f"{stats['measured_packets']:,} of {stats['packets']:,} offered "
            "packets"
        )
    return 0


def _cmd_control(args: argparse.Namespace) -> int:
    """``control``: one-shot client for a running service."""
    import json

    from repro.service import send_command

    host, _, port = args.address.partition(":")
    if not host or not port:
        raise ReproError(f"bad address {args.address!r}: want HOST:PORT")
    ok, payload = send_command(
        (host, int(port)), " ".join(args.words), timeout=args.timeout
    )
    if not ok:
        print(f"error: {payload}", file=sys.stderr)
        return 1
    if args.words and args.words[0] == "metrics" and isinstance(payload, str):
        # The exposition text prints raw so it can be piped straight
        # into a scraper; everything else stays JSON.
        print(payload.rstrip("\n"))
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def main(argv: "list[str] | None" = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "gen-trace": _cmd_gen_trace,
        "summarize": _cmd_summarize,
        "run": _cmd_run,
        "snapshot": _cmd_snapshot,
        "hh": _cmd_hh,
        "topk": _cmd_topk,
        "spreaders": _cmd_spreaders,
        "serve": _cmd_serve,
        "control": _cmd_control,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
