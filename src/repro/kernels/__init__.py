"""Batched (vectorized + table-driven) kernels for the measurement hot path.

The scalar engines in :mod:`repro.core` process one packet per Python
iteration; this package re-expresses the same computation in chunks —
NumPy for the gathers and saturation screening, precomputed FSM lookup
tables for the contested remainder — while staying **bit-identical** to
the scalar loop (same randomness stream, same state, same WSAF records).

* :mod:`repro.kernels.luts` — cached per-geometry transition tables
  (:func:`geometry_tables` returns the single-packet table and, for
  saturation thresholds of four bits or more, the four-packet one).
* :mod:`repro.kernels.batched` — the chunked kernel behind
  ``InstaMeasure.process_trace(engine="batched")``.
* :mod:`repro.kernels.wsaf_batched` — the batch-probed array-backed flat
  WSAF the kernel delegates its insertion events to.

See ``docs/PERFORMANCE.md`` for the design rationale and measured
speedups, and ``benchmarks/bench_throughput.py`` for the regression
harness.
"""

from repro.kernels.batched import (
    DEFAULT_CHUNK_SIZE,
    BatchCounters,
    process_trace_batched,
    runs_kernel,
)
from repro.kernels.luts import (
    SENTINEL,
    geometry_tables,
    kernel_tables,
)

__all__ = [
    "BatchCounters",
    "DEFAULT_CHUNK_SIZE",
    "SENTINEL",
    "geometry_tables",
    "kernel_tables",
    "process_trace_batched",
    "runs_kernel",
]
