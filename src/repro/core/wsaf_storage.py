"""WSAF storage backends — the seam behind the working-set table.

The engine talks to its working set through a narrow protocol
(:class:`WSAFStorage`): per-event accumulation, batch accumulation,
lookups/estimates, sweeps, and state transfer.  Everything behind that
seam is a *backend*, selected by ``InstaMeasureConfig.wsaf_backend``:

``flat``
    The paper's table as-is — the batch-probed
    :class:`~repro.kernels.wsaf_batched.BatchedWSAFTable` under every
    engine: the batched kernel hands it whole batches, the scalar loop
    one per-event ``accumulate`` at a time.  Bit-identical to the
    pre-backend behaviour by contract.

``tiered``
    A PriMe-style two-tier store (:class:`~repro.core.wsaf_tiered.
    TieredWSAFTable`): a small exact hot cache (modelled in SRAM, label
    ``"wsaf.cache"``) in front of the full DRAM table, with periodic
    promote/demote keyed on recent hit counts.  Same estimates semantics,
    different event order and memory cost profile — the point is that the
    skewed head of the flow distribution stops paying DRAM latency.

``icebuckets``
    An ICE-Buckets-style compressed-counter table
    (:class:`~repro.core.wsaf_icebuckets.IceBucketsWSAFTable`): packet
    and byte counters quantize to ``ice_counter_bits``-bit integers under
    per-bucket shared scale exponents (upscale-on-overflow), trading a
    bounded relative error for a measured counter-memory reduction.

Every backend stores its records in the one column store of
:class:`~repro.core.wsaf.WSAFTable`.  Only the flat table batch-probes;
every backend runs under the batched regulator kernel, which feeds the
tiered and ICE-Buckets tables one ``accumulate_batch`` call per chunk.
"""

from __future__ import annotations

from typing import Iterator, Protocol, runtime_checkable

from repro.memmodel import SRAM, AccessAccountant, MemoryTechnology

#: Valid ``InstaMeasureConfig.wsaf_backend`` values.
WSAF_BACKEND_CHOICES = ("flat", "tiered", "icebuckets")


@runtime_checkable
class WSAFStorage(Protocol):
    """What the engine (and the state layer) require of a working set.

    Structural protocol — backends are not required to inherit anything,
    only to provide this surface.  Counter attributes (``size``,
    ``insertions``, ``updates``, ``evictions``, ``gc_reclaimed``,
    ``rejected``) and the geometry attributes (``num_entries``,
    ``probe_limit``, ``eviction_policy``, ``gc_timeout``) are part of the
    seam as well; the extra vectorized entry points
    (``accumulate_batch_arrays`` on the batch-probed flat table,
    ``estimates_arrays`` on every :class:`~repro.core.wsaf.WSAFTable`)
    are advertised by simply having the attribute — callers
    feature-detect with ``getattr``.
    """

    def accumulate(
        self,
        key: int,
        est_packets: float,
        est_bytes: float,
        timestamp: float,
        five_tuple_packed: "int | None" = None,
    ) -> "tuple[float, float]":
        """Fold one regulated insertion into ``key``'s record; return totals."""
        ...

    def accumulate_batch(self, events, on_accumulate=None):
        """Accumulate a chunk of ``(key, pkts, bytes, ts, tuple)`` events."""
        ...

    def lookup(self, key: int):
        """The live record for ``key``, or ``None``."""
        ...

    def entries(self) -> Iterator:
        """Iterate every occupied record in a backend-deterministic order."""
        ...

    def estimates(self, flow_keys=None) -> "dict[int, tuple[float, float]]":
        """Per-flow ``(packets, bytes)`` estimates, optionally filtered."""
        ...

    def export_state(self):
        """Serializable :class:`~repro.state.snapshot.WSAFState` snapshot."""
        ...

    def load_state(self, state) -> None:
        """Restore from an :meth:`export_state` snapshot."""
        ...

    def expire_older_than(self, cutoff: float) -> int:
        """Bulk-reclaim records idle since before ``cutoff``; return count."""
        ...

    def active_entries(self, now: float, window: float) -> Iterator:
        """Records updated within ``window`` seconds of ``now``."""
        ...

    def memory_bytes(self) -> int:
        """Modelled memory footprint of the backend (capacity-based)."""
        ...


def default_technologies() -> "dict[str, MemoryTechnology]":
    """The per-label technology map the tiered backend is costed with.

    The hot cache records its accesses under ``"wsaf.cache"`` and is
    meant to live in SRAM; the backing table keeps the accountant-wide
    default (DRAM in every experiment).  Pass this as
    ``AccessAccountant(DRAM, technologies=default_technologies())`` to
    price the two tiers at their own latencies.
    """
    return {"wsaf.cache": SRAM}


def build_wsaf_storage(config, accountant: "AccessAccountant | None" = None):
    """The WSAF backend ``config`` asks for, wired to ``accountant``.

    ``wsaf_backend`` picks the storage algorithm; a flat table is
    batch-probed under every engine.
    """
    backend = getattr(config, "wsaf_backend", "flat")
    if backend == "tiered":
        from repro.core.wsaf_tiered import TieredWSAFTable

        return TieredWSAFTable(
            num_entries=config.wsaf_entries,
            probe_limit=config.probe_limit,
            gc_timeout=config.gc_timeout,
            accountant=accountant,
            eviction_policy=config.eviction_policy,
            cache_entries=config.tier_cache_entries,
            tier_interval=config.tier_interval,
        )
    if backend == "icebuckets":
        from repro.core.wsaf_icebuckets import IceBucketsWSAFTable

        return IceBucketsWSAFTable(
            num_entries=config.wsaf_entries,
            probe_limit=config.probe_limit,
            gc_timeout=config.gc_timeout,
            accountant=accountant,
            eviction_policy=config.eviction_policy,
            bucket_slots=config.ice_bucket_slots,
            counter_bits=config.ice_counter_bits,
        )
    from repro.kernels.wsaf_batched import BatchedWSAFTable

    return BatchedWSAFTable(
        num_entries=config.wsaf_entries,
        probe_limit=config.probe_limit,
        gc_timeout=config.gc_timeout,
        accountant=accountant,
        eviction_policy=config.eviction_policy,
    )
