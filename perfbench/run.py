"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload caida-fork2 --seed 1 --seconds 45 --trace 0

The run generates the workload's inputs from ``--seed``, measures timed
passes for about ``--seconds`` seconds (at least two), checks every pass
against the workload's oracle, and prints a human-readable report
followed, as the last line, by one JSON object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace
1`` alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (see ``perfbench/README.md``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

from measure import (
    ARE_MIN_PACKETS,
    END_TO_END,
    PER_LAYER,
    accuracy,
    environment,
    in_child,
    percentile,
)
from spans import Tracer, coverage, totals_by_name

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Fewest timed passes in a run, whatever ``--seconds`` says.
MIN_PASSES = 2

#: Setup-only constructions per run, besides the one inside each pass.
SETUP_SAMPLES = 15

#: Traced self times must account for this share of wall time, give or take.
COVERAGE_TOLERANCE = 0.10

#: Threads that serve queries beside the ingest path, not on it.
SIDE_THREADS = ("control-", "perfbench-client")


def _percentile_ms(samples, q: float) -> float:
    value = percentile(samples, q)
    if value is None:
        raise RuntimeError(
            f"{len(samples)} samples cannot support p{q:g}; the workload is mis-sized"
        )
    return value * 1e3


def run_passes(workload, seconds: float, traced: bool, oracle):
    """One untimed warm-up pass, then timed passes until the budget is
    spent: ``([(result, tracer or None)], peak RSS in MiB)``.

    With ``traced`` the timed passes alternate untraced, traced, untraced,
    ...  Wrappers are installed only around a traced pass.  Each pass is
    checked against ``oracle`` as soon as it ends, then drops its per-flow
    state, except the first pass (untraced), whose estimates the accuracy
    metrics read.  Peak memory is read after :data:`MIN_PASSES` timed
    passes, a fixed amount of work: the allocator's heap still creeps up
    from pass to pass, and the number of passes a run fits depends on how
    fast the host runs it.
    """
    workload.run_pass()  # process-wide lookup tables, allocator arenas
    passes = []
    durations = []
    began = time.perf_counter()
    while True:
        tracer = None
        if traced and len(passes) % 2 == 1:
            tracer = Tracer()
        gc.collect()
        started = time.perf_counter()
        if tracer is not None:
            tracer.install_layers()
        try:
            result = workload.run_pass()
        finally:
            restored = tracer.uninstall() if tracer is not None else True
        if not restored:
            raise RuntimeError("tracing wrappers were not uninstalled")
        durations.append(time.perf_counter() - started)
        result.mismatched = workload.mismatches(result, oracle)
        if passes:
            result.estimates = result.words = result.archive = None
        passes.append((result, tracer))
        if len(passes) == MIN_PASSES:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        spent = time.perf_counter() - began
        if len(passes) >= MIN_PASSES and spent + statistics.median(durations) > seconds:
            return passes, peak_rss_mb


def layer_values(result, tracer) -> "dict[str, float]":
    """One traced pass's per-layer metrics (see ``measure.PER_LAYER``)."""
    totals = totals_by_name(tracer.spans)

    def own(span: str) -> float:
        return totals[span]["self"] if span in totals else 0.0

    def calls(span: str) -> int:
        return totals[span]["calls"] if span in totals else 0

    def inclusive(span: str) -> float:
        return totals[span]["total"] if span in totals else 0.0

    stages = result.stage_seconds
    return {
        "hashing.place_s": own("hashing.place"),
        "hashing.place_calls": calls("hashing.place"),
        "core.ingest_s": inclusive("core.ingest"),
        "core.ingest_calls": calls("core.ingest"),
        "core.regulation_rate": result.insertions / result.packets,
        "core.l1_saturations": result.l1_saturations,
        # Ingest's self time is what its WSAF and placement children
        # leave: the regulator kernels.
        "kernels.regulator_s": own("core.ingest"),
        "wsaf.accumulate_s": own("wsaf.accumulate"),
        "wsaf.accumulate_calls": calls("wsaf.accumulate"),
        "wsaf.events": result.insertions,
        "wsaf.occupancy": result.wsaf_occupancy,
        "wsaf.evictions": result.wsaf_evictions,
        "source.wait_s": own("source.wait"),
        "source.wait_calls": calls("source.wait"),
        "traffic.read_s": own("traffic.read"),
        "traffic.read_calls": calls("traffic.read"),
        "driver.step_s": own("driver.step"),
        "driver.step_calls": calls("driver.step"),
        "driver.epochs": result.epochs,
        "sharded.route_s": own("sharded.route"),
        "sharded.route_calls": calls("sharded.route"),
        "sharded.localize_s": own("sharded.localize"),
        "sharded.send_s": own("sharded.send"),
        "sharded.ipc_s": stages.get("ipc_s", 0.0),
        "sharded.worker_ingest_s": stages.get("ingest_s", 0.0),
        "sharded.merge_s": stages.get("merge_s", 0.0),
        "sharded.load_share_max": result.load_share_max,
        "sharded.pool_spawn_s": own("sharded.pool_spawn"),
        "state.capture_s": own("state.capture"),
        "state.capture_calls": calls("state.capture"),
        "checkpoint.save_s": own("checkpoint.save"),
        "checkpoint.saves": calls("checkpoint.save"),
        "checkpoint.bytes": tracer.counters.get("checkpoint.bytes", 0),
        "daemon.query_s": inclusive("daemon.query"),
        "daemon.query_calls": calls("daemon.query"),
        # The query's self time is what its estimates child leaves:
        # mostly waiting for the daemon lock the ingest thread holds.
        "daemon.query_lock_wait_s": own("daemon.query"),
        "daemon.rotate_s": own("daemon.rotate"),
        "daemon.rotate_calls": calls("daemon.rotate"),
        "setup.engine_s": own("setup.engine"),
        "trace.coverage": coverage(tracer.spans, result.begin, result.end, SIDE_THREADS),
    }


def measure_workload(workload, seed: int, seconds: float, traced: bool, workdir: str):
    """Run the workload; returns ``(report lines, correct, attempted, failed, metrics)``."""
    workload.prepare(seed, workdir)
    oracle = in_child(workload.oracle, workdir)
    setup = [workload.setup_sample() for _ in range(SETUP_SAMPLES)]
    passes, peak_rss_mb = run_passes(workload, seconds, traced, oracle)

    plain = [result for result, tracer in passes if tracer is None]
    traced_passes = [(result, tracer) for result, tracer in passes if tracer is not None]
    attempted = failed = 0
    gate_failures = []
    for result, _tracer in passes:
        attempted += (
            result.chunks + len(result.query_latencies) + len(result.live_latencies) + 1
        )
        failed += result.query_failures + (result.mismatched > 0)
        gate_failures.append(result.mismatched)

    first = plain[0]
    are_hh, hh_recall = accuracy(
        workload.truth,
        first.archive if first.archive is not None else first.estimates,
        ARE_MIN_PACKETS,
        workload.hh_threshold,
    )
    # Each pass's own percentile, then the median over passes: a minority
    # of passes slowed by the host cannot move it.
    lookup = {
        f"lookup.p{q}_ms": statistics.median(_percentile_ms(r.query_latencies, q) for r in plain)
        for q in (50, 90)
    }
    queries = sum(len(result.query_latencies) for result in plain)
    live = [q for result in plain for q in result.live_latencies]
    intervals = [i for result in plain for i in result.chunk_intervals]
    lateness = [q for result in plain for q in result.lateness]
    setup += [result.setup_s for result in plain if result.setup_s is not None]
    pps = statistics.median(result.pps for result in plain)

    env = environment(ROOT)
    shape = workload.describe()
    shape["regulation_rate"] = round(first.insertions / first.packets, 6)
    lines = [
        f"perfbench {workload.name} seed={seed} trace={int(traced)} "
        f"passes={len(passes)} ({len(plain)} untraced)",
        "environment: " + " ".join(f"{k}={v}" for k, v in env.items()),
        "workload: " + " ".join(f"{k}={v}" for k, v in shape.items()),
        f"why: {workload.why}",
    ]
    end_to_end = {
        "pps": (pps, len(plain)),
        "setup_s": (statistics.median(setup), len(setup)),
        "peak_rss_mb": (peak_rss_mb, 1),
        "are_hh": (are_hh, 1),
        "hh_recall": (hh_recall, 1),
    }
    lines.append(f"{'metric':<26}{'value':>16}  {'unit':<10}n")
    for name, unit, _better in END_TO_END:
        value, count = end_to_end[name]
        lines.append(f"{name:<26}{value:>16.6g}  {unit:<10}{count}")
    for name, value in lookup.items():
        lines.append(f"{name}: {value:.6g} ms (n={queries}, per pass, median over passes)")
    lines.append("pps per untraced pass: " + ", ".join(f"{r.pps:,.0f}" for r in plain))
    tails = dict(lookup)
    for label, samples, qs in [("live_query", live, (50, 90)), ("chunk", intervals, (50, 95))]:
        for q in qs:
            value = percentile(samples, q) if samples else None
            tails[f"daemon.{label}_p{q}_ms"] = value * 1e3 if value is not None else 0.0
            if samples:
                shown = "unsupported" if value is None else f"{value * 1e3:.3f} ms"
                lines.append(f"{label}_p{q}_ms: {shown} (n={len(samples)})")
    if lateness:
        lines.append(
            f"query generator lateness: median {statistics.median(lateness) * 1e3:.3f} ms, "
            f"max {max(lateness) * 1e3:.3f} ms (open loop, "
            f"{workload.query_rate:g} queries/s, one connection)"
        )

    if not traced:
        metrics = {
            name: {"value": end_to_end[name][0], "unit": unit}
            for name, unit, _better in END_TO_END
        }
    else:
        per_pass = [layer_values(result, tracer) for result, tracer in traced_passes]
        values = {name: statistics.mean(p[name] for p in per_pass) for name in per_pass[0]}
        values.update(tails)
        traced_pps = statistics.median(result.pps for result, _ in traced_passes)
        values["trace.overhead"] = pps / traced_pps - 1.0
        for p in per_pass:
            attempted += 1
            failed += abs(p["trace.coverage"] - 1.0) > COVERAGE_TOLERANCE
        attempted += len(traced_passes)  # each uninstall was checked
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        lines.append(
            f"tracing overhead: untraced {pps:,.0f} pps vs traced {traced_pps:,.0f} pps "
            f"({values['trace.overhead'] * 100:+.1f}% slower traced)"
        )
        lines.append(
            "self time / wall per traced pass: "
            + ", ".join(f"{p['trace.coverage']:.3f}" for p in per_pass)
            + f" (bar: within {COVERAGE_TOLERANCE:.0%})"
        )
        totals = totals_by_name(traced_passes[-1][1].spans)
        lines.append(f"{'span (last traced pass)':<26}{'self s':>12}{'total s':>12}{'calls':>9}")
        for name in sorted(totals, key=lambda n: -totals[n]["self"]):
            entry = totals[name]
            lines.append(
                f"{name:<26}{entry['self']:>12.4f}{entry['total']:>12.4f}{entry['calls']:>9}"
            )
        for name, unit in PER_LAYER:
            lines.append(f"  {name:<30}{values[name]:>16.6g}  {unit}")

    lines.append(
        f"gate: {len(passes)} passes checked against the oracle, mismatches per pass "
        f"{gate_failures}; failed_frac {failed}/{attempted} = {failed / attempted:.4g}"
    )
    return lines, failed == 0, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]()

    scratch = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        lines, correct, attempted, failed, metrics = measure_workload(
            workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    for line in lines:
        print(line)
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
