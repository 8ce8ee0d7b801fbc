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
    instameasure bench --quick
    instameasure serve capture.impl --follow --checkpoint-dir state/ \
        --control-port 0 --epoch-seconds 1
    instameasure control 127.0.0.1:PORT stats

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
from repro.pipeline import LOAD_POLICY_CHOICES, build_load_controller, run_pipeline
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

    gen = commands.add_parser("gen-trace", help="generate a synthetic trace")
    gen.add_argument("kind", choices=["caida", "campus"])
    gen.add_argument("--out", required=True, help="output NPZ path")
    gen.add_argument("--flows", type=int, default=20_000)
    gen.add_argument("--duration", type=float, default=30.0, help="caida: seconds")
    gen.add_argument("--hours", type=int, default=24, help="campus: modelled hours")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--pcaplite",
        default=None,
        metavar="PATH",
        help="also write the trace as a streaming pcap-lite capture "
        "(the `serve` input format)",
    )

    summarize = commands.add_parser("summarize", help="print trace statistics")
    summarize.add_argument("trace", help="trace NPZ path")

    run = commands.add_parser("run", help="measure a trace with InstaMeasure")
    run.add_argument("trace", help="trace NPZ path")
    run.add_argument("--l1-kb", type=float, default=8.0, help="L1 sketch size (KB)")
    run.add_argument("--wsaf-bits", type=int, default=16, help="WSAF size = 2^bits")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--shards",
        type=int,
        default=1,
        help="shard ingestion across N worker pipelines (exact merge)",
    )
    run.add_argument(
        "--parallel",
        action="store_true",
        help="run shards as forked processes (with --shards > 1)",
    )
    run.add_argument(
        "--snapshot-out",
        default=None,
        help="write the final measurement state snapshot to this path",
    )
    run.add_argument(
        "--wsaf-backend",
        choices=["flat", "tiered", "icebuckets"],
        default="flat",
        help="WSAF storage backend (tiered: hot SRAM cache; icebuckets: "
        "compressed counters)",
    )
    run.add_argument(
        "--load-policy",
        choices=list(LOAD_POLICY_CHOICES),
        default="none",
        help="closed-loop overload policy: none (ingest everything), shed "
        "(deterministically sample overloaded chunks down to --target-pps)",
    )
    run.add_argument(
        "--target-pps",
        type=float,
        default=None,
        help="sustainable ingest rate for --load-policy shed "
        "(stream-clock packets per second)",
    )

    snap = commands.add_parser(
        "snapshot", help="save/load serializable measurement state"
    )
    snap_sub = snap.add_subparsers(dest="snapshot_command", required=True)
    snap_save = snap_sub.add_parser(
        "save", help="measure a trace and save the final state"
    )
    snap_save.add_argument("trace", help="trace NPZ path")
    snap_save.add_argument("--out", required=True, help="snapshot output path")
    snap_save.add_argument("--l1-kb", type=float, default=8.0)
    snap_save.add_argument("--wsaf-bits", type=int, default=16)
    snap_save.add_argument("--seed", type=int, default=0)
    snap_save.add_argument("--shards", type=int, default=1)
    snap_save.add_argument("--parallel", action="store_true")
    snap_load = snap_sub.add_parser("load", help="inspect a saved snapshot")
    snap_load.add_argument("snapshot", help="snapshot path")
    snap_load.add_argument(
        "--trace",
        default=None,
        help="score the snapshot's estimates against this trace NPZ",
    )

    hh = commands.add_parser("hh", help="heavy-hitter detection on a trace")
    hh.add_argument("trace", help="trace NPZ path")
    hh.add_argument("--threshold-packets", type=float, default=None)
    hh.add_argument("--threshold-bytes", type=float, default=None)
    hh.add_argument("--l1-kb", type=float, default=8.0)
    hh.add_argument("--wsaf-bits", type=int, default=16)

    topk = commands.add_parser("topk", help="Top-K flows by packets and bytes")
    topk.add_argument("trace", help="trace NPZ path")
    topk.add_argument("-k", type=int, default=10)
    topk.add_argument("--l1-kb", type=float, default=8.0)
    topk.add_argument("--wsaf-bits", type=int, default=16)

    spread = commands.add_parser(
        "spreaders", help="superspreader sources from the WSAF"
    )
    spread.add_argument("trace", help="trace NPZ path")
    spread.add_argument("--min-destinations", type=int, default=10)
    spread.add_argument("--l1-kb", type=float, default=8.0)
    spread.add_argument("--wsaf-bits", type=int, default=16)

    bench = commands.add_parser(
        "bench", help="run the throughput regression harness"
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="smoke mode: small trace, one round, history file untouched",
    )
    bench.add_argument(
        "--rounds", type=int, default=None, help="timed rounds per variant"
    )
    bench.add_argument(
        "--no-record",
        action="store_true",
        help="skip writing BENCH_throughput.json (quick implies this)",
    )
    bench.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="run the sharded scaling benchmark instead (with --quick: "
        "a smoke pass at 1 and N shards)",
    )

    serve = commands.add_parser(
        "serve", help="run the always-on measurement service"
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
    serve.add_argument("--shards", type=int, default=1)
    serve.add_argument("--l1-kb", type=float, default=8.0)
    serve.add_argument("--wsaf-bits", type=int, default=16)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--wsaf-backend",
        choices=["flat", "tiered", "icebuckets"],
        default="flat",
    )
    serve.add_argument(
        "--max-packets",
        type=int,
        default=None,
        help="stop after measuring this many packets (smoke-test hook)",
    )
    serve.add_argument(
        "--load-policy",
        choices=list(LOAD_POLICY_CHOICES),
        default="none",
        help="closed-loop overload policy for the ingest loop "
        "(none | shed)",
    )
    serve.add_argument(
        "--target-pps",
        type=float,
        default=None,
        help="sustainable ingest rate for --load-policy shed",
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


def _engine_from_args(args: argparse.Namespace) -> InstaMeasure:
    return InstaMeasure(
        InstaMeasureConfig(
            l1_memory_bytes=int(args.l1_kb * 1024),
            wsaf_entries=1 << args.wsaf_bits,
            seed=getattr(args, "seed", 0),
            wsaf_backend=getattr(args, "wsaf_backend", "flat"),
        )
    )


def _controller_from_args(args: argparse.Namespace):
    return build_load_controller(
        getattr(args, "load_policy", "none"),
        target_pps=getattr(args, "target_pps", None),
        seed=getattr(args, "seed", 0),
    )


def _controller_rows(stats: "dict | None") -> "list[list[str]]":
    if not stats:
        return []
    return [
        ["load policy", stats["policy"]],
        ["load keep rate",
         f"{stats['keep_rate']:.2%} ({stats['kept_packets']:,} of "
         f"{stats['offered_packets']:,} offered)"],
        ["load actions (thin/drop chunks)",
         f"{stats['thinned_chunks']:,}/{stats['dropped_chunks']:,}"],
    ]


def _run_sharded(args: argparse.Namespace, source) -> int:
    """``run --shards N``: stream chunks through shards, merge exactly."""
    from repro.pipeline import ShardedPipeline
    from repro.state import save as save_snapshot

    config = InstaMeasureConfig(
        l1_memory_bytes=int(args.l1_kb * 1024),
        wsaf_entries=1 << args.wsaf_bits,
        seed=getattr(args, "seed", 0),
        wsaf_backend=getattr(args, "wsaf_backend", "flat"),
    )
    # Chunks stream straight off the file source into per-shard routing.
    sharded = ShardedPipeline(
        config,
        num_shards=args.shards,
        parallel=args.parallel,
        controller=_controller_from_args(args),
    ).run(source)
    snapshot = sharded.snapshot
    trace = source.trace
    est_packets, _est_bytes = sharded.estimates_for(trace)
    truth = trace.ground_truth_packets().astype(float)
    shares = ", ".join(f"{share:.1%}" for share in sharded.load_shares)
    rows = [
        ["packets", f"{sharded.packets:,}"],
        ["shards", f"{sharded.num_shards:,}"],
        ["shard load shares", shares],
        ["WSAF insertions", f"{sharded.insertions:,}"],
        ["regulation rate",
         f"{sharded.insertions / sharded.packets:.2%}" if sharded.packets else "n/a"],
        ["WSAF flows", f"{snapshot.wsaf.num_records:,}"],
        ["WSAF evictions", f"{snapshot.wsaf.evictions:,}"],
    ]
    stages = sharded.stage_seconds
    if stages:
        rows.append(
            ["stage seconds (route/ipc/ingest/merge)",
             f"{stages['route_s']:.3f}/{stages['ipc_s']:.3f}/"
             f"{stages['ingest_s']:.3f}/{stages['merge_s']:.3f}"]
        )
    rows.extend(_controller_rows(sharded.controller_stats))
    big = truth >= 1000
    if big.any():
        rows.append(
            ["std error (1K+ pkt flows)",
             f"{standard_error(est_packets[big], truth[big]):.2%}"]
        )
    print_table(
        ["metric", "value"], rows, f"InstaMeasure run ({args.shards} shards)"
    )
    if args.snapshot_out is not None:
        save_snapshot(snapshot, args.snapshot_out)
        print(f"wrote snapshot to {args.snapshot_out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.pipeline import FileChunkSource

    engine = _engine_from_args(args)
    source = FileChunkSource(args.trace, chunk_size=engine.config.chunk_size)
    if args.shards > 1:
        return _run_sharded(args, source)
    trace = source.trace
    pipeline_result = run_pipeline(
        engine, source, controller=_controller_from_args(args)
    )
    result = pipeline_result.result
    est_packets, _est_bytes = engine.estimates_for(trace)
    truth = trace.ground_truth_packets().astype(float)
    rows = [
        ["packets", f"{result.packets:,}"],
        ["chunks", f"{len(pipeline_result.chunks):,}"],
        ["WSAF insertions", f"{result.insertions:,}"],
        ["regulation rate", f"{result.regulation_rate:.2%}"],
        ["L1 saturation rate", f"{result.regulator_stats.l1_saturation_rate:.2%}"],
        ["python throughput", f"{result.python_pps / 1e6:.2f} Mpps"],
        ["WSAF flows", f"{len(engine.wsaf):,}"],
        ["WSAF load factor", f"{engine.wsaf.load_factor:.2%}"],
        ["WSAF evictions", f"{engine.wsaf.evictions:,}"],
    ]
    rows.extend(_controller_rows(pipeline_result.controller_stats))
    big = truth >= 1000
    if big.any():
        rows.append(
            ["std error (1K+ pkt flows)",
             f"{standard_error(est_packets[big], truth[big]):.2%}"]
        )
    print_table(["metric", "value"], rows, "InstaMeasure run")
    if args.snapshot_out is not None:
        from repro.state import save as save_snapshot

        save_snapshot(engine.snapshot(), args.snapshot_out)
        print(f"wrote snapshot to {args.snapshot_out}")
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.state import load as load_snapshot
    from repro.state import save as save_snapshot

    if args.snapshot_command == "save":
        if args.shards > 1:
            from repro.pipeline import FileChunkSource, ShardedPipeline

            config = InstaMeasureConfig(
                l1_memory_bytes=int(args.l1_kb * 1024),
                wsaf_entries=1 << args.wsaf_bits,
                seed=args.seed,
            )
            source = FileChunkSource(args.trace, chunk_size=config.chunk_size)
            snapshot = ShardedPipeline(
                config, num_shards=args.shards, parallel=args.parallel
            ).run(source).snapshot
        else:
            engine = _engine_from_args(args)
            run_pipeline(engine, load_trace(args.trace))
            snapshot = engine.snapshot()
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
    engine = _engine_from_args(args)
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
    engine = _engine_from_args(args)
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
    engine = _engine_from_args(args)
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


def _load_bench_module():
    """The throughput harness, loaded from the repo's benchmarks/ tree.

    The harness stays outside the installed package (it writes repo-level
    report files), so it is located relative to this source checkout.
    """
    import importlib.util
    import pathlib

    bench_path = (
        pathlib.Path(__file__).resolve().parents[2]
        / "benchmarks"
        / "bench_throughput.py"
    )
    if not bench_path.exists():
        raise ReproError(
            f"benchmark harness not found at {bench_path} — the bench "
            "subcommand needs a source checkout with benchmarks/"
        )
    spec = importlib.util.spec_from_file_location("bench_throughput", bench_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _print_shard_stage_table(rows: "list[dict]") -> None:
    """Route/ipc/ingest/merge breakdown per shard count (best round)."""
    table_rows = [
        [
            f"{row['shards']:,}",
            f"{row['seconds'] * 1e3:.1f}",
            f"{row['stages']['route_s'] * 1e3:.1f}",
            f"{row['stages']['ipc_s'] * 1e3:.1f}",
            f"{row['stages']['ingest_s'] * 1e3:.1f}",
            f"{row['stages']['merge_s'] * 1e3:.1f}",
        ]
        for row in rows
    ]
    print_table(
        ["shards", "total ms", "route ms", "ipc ms", "ingest ms", "merge ms"],
        table_rows,
        "Sharded stage breakdown (best round)",
    )


def _cmd_bench(args: argparse.Namespace) -> int:
    bench = _load_bench_module()
    if args.shards is not None:
        if args.quick:
            trace = build_caida_like_trace(
                CaidaLikeConfig(num_flows=4_000, duration=10.0, seed=1)
            )
            result = bench.run_sharded_benchmark(
                trace,
                rounds=args.rounds or 1,
                shard_counts=(1, args.shards),
                record=False,
            )
            print(result["report"])
            _print_shard_stage_table(result["rows"])
            smoke = result["scaling"][args.shards]
            if smoke < bench.MIN_SHARD_SMOKE_FLOOR:
                print(
                    f"error: {args.shards}-shard run collapsed to "
                    f"{smoke:.2f}x 1-shard",
                    file=sys.stderr,
                )
                return 1
            return 0
        trace = build_caida_like_trace(
            CaidaLikeConfig(num_flows=30_000, duration=60.0, seed=1)
        )
        # Forward the requested count: measure the 1-shard baseline plus
        # every default count up to N (previously --shards N was parsed
        # and then ignored here, always running the default ladder).
        shard_counts = tuple(
            sorted(
                {1, args.shards}
                | {n for n in bench.SHARD_COUNTS if n <= args.shards}
            )
        )
        result = bench.run_sharded_benchmark(
            trace,
            rounds=args.rounds or bench.SHARD_ROUNDS,
            shard_counts=shard_counts,
            record=not args.no_record,
        )
        print(result["report"])
        _print_shard_stage_table(result["rows"])
        bench._assert_sharded_bars(result)
        return 0
    if args.quick:
        trace = build_caida_like_trace(
            CaidaLikeConfig(num_flows=4_000, duration=10.0, seed=1)
        )
        rounds = args.rounds or 1
        result = bench.run_benchmark(
            trace, rounds=rounds, stage_rounds=2, record=False
        )
    else:
        trace = build_caida_like_trace(
            CaidaLikeConfig(num_flows=30_000, duration=60.0, seed=1)
        )
        rounds = args.rounds or bench.ROUNDS
        result = bench.run_benchmark(
            trace,
            rounds=rounds,
            stage_rounds=bench.STAGE_ROUNDS,
            record=not args.no_record,
        )
    print(result["report"])
    if args.quick:
        ratio = result["speedups"]["kernel_vs_scalar"]
        if ratio < bench.MIN_SPEEDUP_SMOKE:
            print(
                f"error: kernel regressed to {ratio:.2f}x the scalar loop",
                file=sys.stderr,
            )
            return 1
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

    config = InstaMeasureConfig(
        l1_memory_bytes=int(args.l1_kb * 1024),
        wsaf_entries=1 << args.wsaf_bits,
        seed=args.seed,
        wsaf_backend=args.wsaf_backend,
    )
    daemon = MeasurementDaemon(
        _serve_source(args),
        config=config,
        num_shards=args.shards,
        epoch_seconds=args.epoch_seconds,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        keep_checkpoints=args.keep_checkpoints,
        max_packets=args.max_packets,
        load_policy=args.load_policy,
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
    if stats.get("load_policy", "none") != "none":
        print(
            f"load policy {stats['load_policy']}: measured "
            f"{stats['measured_packets']:,} of {stats['packets']:,} offered "
            f"packets (target {stats['target_pps']:,.0f} pps)"
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
        "bench": _cmd_bench,
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
