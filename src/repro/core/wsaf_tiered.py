"""Tiered WSAF — a hot top-K SRAM cache in front of the DRAM table.

PriMe's observation applied to the working set: the regulated insertion
stream is even more skewed than the packet stream (elephants saturate the
regulator again and again), so a small exact cache of the hottest flows
absorbs most accumulations at SRAM latency while the full table stays in
DRAM.  :class:`TieredWSAFTable` keeps the two tiers **exclusive** — a
flow's record lives in exactly one tier — and re-tiers periodically:

* Every accumulate first probes the cache (one SRAM read, recorded under
  the ``"wsaf.cache"`` accountant label); a hit updates in place (one
  SRAM write) and never touches DRAM.
* A miss takes the normal DRAM path through the backing
  :class:`~repro.core.wsaf.WSAFTable` (label ``"wsaf"``), and the flow's
  recent-miss count is bumped.
* Every ``tier_interval`` accumulates, a maintenance tick ranks all
  recently-active flows by their recent hit/miss counts (count
  descending, key ascending — fully deterministic) and rebuilds the
  top-``cache_entries`` cache set: newly-hot flows are *promoted* (their
  record moves out of the table via :meth:`~repro.core.wsaf.WSAFTable.
  remove`), cooled flows are *demoted* back (:meth:`~repro.core.wsaf.
  WSAFTable.place_record` — no event counters; a full probe window falls
  back to the eviction policy).  Heat counts then reset, so the cache
  tracks the *current* head of the distribution, not all-time totals.

Costing: price the tiers separately by building the engine's accountant
as ``AccessAccountant(DRAM, technologies=default_technologies())`` (see
:mod:`repro.core.wsaf_storage`); ``modelled_seconds(labels=("wsaf",
"wsaf.cache"))`` then isolates the WSAF stage, which is what the frontier
bench's modelled-pps figures report.

Estimates/lookup/sweeps see the union of both tiers; counters
(``insertions``/``evictions``/``gc_reclaimed``/``rejected``) live on the
backing table, with cache-hit updates tracked separately and folded into
the facade's ``updates``.  Snapshots carry the cache (records, heat
counts, tick phase) in a ``tier`` section and round-trip bit-exactly —
including mid-interval heat state; loading a snapshot *without* a tier
section (a flat capture, or a merged one) starts with a cold cache.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import ConfigurationError
from repro.memmodel import AccessAccountant

from repro.core.wsaf import ENTRY_BYTES, WSAFEntry, WSAFTable

#: Bytes one cache entry occupies: the 33-byte record plus a 4-byte
#: recent-heat counter (the promote/demote bookkeeping lives with it).
CACHE_ENTRY_BYTES = ENTRY_BYTES + 4

#: Index positions inside a cache record list.
_PACKETS, _BYTES, _STAMP, _CHANCE, _TUPLE = range(5)


class TieredWSAFTable:
    """Exclusive two-tier working set: exact hot cache + backing table.

    Satisfies the :class:`~repro.core.wsaf_storage.WSAFStorage` protocol
    by composition around a list-column :class:`WSAFTable`.  The scalar
    loop feeds it one :meth:`accumulate` per event, the batched kernel one
    :meth:`accumulate_batch` per chunk.
    """

    def __init__(
        self,
        num_entries: int = 1 << 20,
        probe_limit: int = 16,
        gc_timeout: "float | None" = None,
        accountant: "AccessAccountant | None" = None,
        eviction_policy: str = "second-chance",
        cache_entries: int = 256,
        tier_interval: int = 1024,
    ) -> None:
        if cache_entries < 1:
            raise ConfigurationError(
                f"cache_entries must be >= 1, got {cache_entries}"
            )
        if tier_interval < 1:
            raise ConfigurationError(
                f"tier_interval must be >= 1, got {tier_interval}"
            )
        self.table = WSAFTable(
            num_entries=num_entries,
            probe_limit=probe_limit,
            gc_timeout=gc_timeout,
            accountant=accountant,
            eviction_policy=eviction_policy,
        )
        self.accountant = accountant
        self.cache_entries = cache_entries
        self.tier_interval = tier_interval
        #: key -> [packets, bytes, last_update, chance, packed_tuple]
        self._cache: "dict[int, list]" = {}
        #: Recent accumulates per key since the last tick; a key lives in
        #: exactly one of the two maps (cache membership decides which).
        self._hits: "dict[int, int]" = {}
        self._misses: "dict[int, int]" = {}
        self.op_count = 0
        self.cache_updates = 0
        self.promotions = 0
        self.demotions = 0

    # -- geometry / counters (facade over the backing table) ---------------

    @property
    def num_entries(self) -> int:
        return self.table.num_entries

    @property
    def probe_limit(self) -> int:
        return self.table.probe_limit

    @property
    def eviction_policy(self) -> str:
        return self.table.eviction_policy

    @property
    def gc_timeout(self) -> "float | None":
        return self.table.gc_timeout

    @property
    def size(self) -> int:
        return self.table.size + len(self._cache)

    @property
    def insertions(self) -> int:
        return self.table.insertions

    @property
    def updates(self) -> int:
        return self.table.updates + self.cache_updates

    @property
    def evictions(self) -> int:
        return self.table.evictions

    @property
    def gc_reclaimed(self) -> int:
        return self.table.gc_reclaimed

    @property
    def rejected(self) -> int:
        return self.table.rejected

    def __len__(self) -> int:
        return self.size

    @property
    def load_factor(self) -> float:
        return self.size / self.num_entries

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of accumulates served by the hot cache so far."""
        return self.cache_updates / self.op_count if self.op_count else 0.0

    def memory_bytes(self) -> int:
        """Backing-table DRAM plus the SRAM cache footprint."""
        return self.table.memory_bytes() + self.cache_memory_bytes()

    def cache_memory_bytes(self) -> int:
        """SRAM the hot tier occupies (capacity, not occupancy)."""
        return self.cache_entries * CACHE_ENTRY_BYTES

    def counter_memory_bytes(self) -> int:
        """Counter bytes of the backing table (the cache stores exact floats)."""
        return self.table.counter_memory_bytes()

    # -- hot path -----------------------------------------------------------

    def accumulate(
        self,
        key: int,
        est_packets: float,
        est_bytes: float,
        timestamp: float,
        five_tuple_packed: "int | None" = None,
    ) -> "tuple[float, float]":
        """Fold one insertion in: cache hit at SRAM cost, else the DRAM path.

        Every call first probes the hot cache (one ``"wsaf.cache"`` read);
        a hit updates in place without touching DRAM, a miss delegates to
        the backing table and bumps the flow's recent-miss count.  Every
        ``tier_interval`` calls a maintenance tick re-ranks the tiers.
        """
        self.op_count += 1
        record = self._cache.get(key)
        if record is not None:
            if self.accountant is not None:
                self.accountant.record("wsaf.cache", reads=1, writes=1)
            record[_PACKETS] += est_packets
            record[_BYTES] += est_bytes
            record[_STAMP] = timestamp
            record[_CHANCE] = True
            self.cache_updates += 1
            self._hits[key] = self._hits.get(key, 0) + 1
            totals = (record[_PACKETS], record[_BYTES])
        else:
            # The cache probe itself is one SRAM read, hit or miss.
            if self.accountant is not None:
                self.accountant.record("wsaf.cache", reads=1)
            totals = self.table.accumulate(
                key, est_packets, est_bytes, timestamp, five_tuple_packed
            )
            self._misses[key] = self._misses.get(key, 0) + 1
        if self.op_count % self.tier_interval == 0:
            self._retier(timestamp)
        return totals

    def accumulate_batch(
        self, events, on_accumulate=None
    ) -> "list[tuple[float, float]]":
        """Accumulate a chunk of events, one :meth:`accumulate` each.

        Maintenance ticks fire at their usual cadence inside the chunk, so
        chunked and per-event ingestion produce identical state.
        """
        accumulate = self.accumulate
        totals: "list[tuple[float, float]]" = []
        for key, est_packets, est_bytes, timestamp, five_tuple_packed in events:
            result = accumulate(
                key, est_packets, est_bytes, timestamp, five_tuple_packed
            )
            if on_accumulate is not None:
                on_accumulate(key, result[0], result[1], timestamp)
            totals.append(result)
        return totals

    # -- promote / demote ---------------------------------------------------

    def _retier(self, now: float) -> None:
        """Rebuild the cache as the top-K recently-hottest flows.

        Deterministic: flows rank by (recent count desc, key asc);
        resident cache flows compete with their recent hit counts, table
        flows with their recent miss counts.  Demotions run before
        promotions so the cache never overflows.
        """
        scores = {key: self._hits.get(key, 0) for key in self._cache}
        scores.update(self._misses)
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        target = {key for key, _ in ranked[: self.cache_entries]}
        for key in sorted(key for key in self._cache if key not in target):
            self._demote(key, now)
        for key in sorted(key for key in target if key not in self._cache):
            entry = self.table.remove(key)
            if entry is None:
                # Evicted or GC'd from the table since its last miss.
                continue
            if self.accountant is not None:
                self.accountant.record("wsaf.cache", writes=1)
            self._cache[key] = [
                entry.packets,
                entry.bytes,
                entry.last_update,
                True,
                entry.five_tuple_packed,
            ]
            self.promotions += 1
        self._hits.clear()
        self._misses.clear()

    def _demote(self, key: int, now: float) -> None:
        record = self._cache.pop(key)
        if self.accountant is not None:
            self.accountant.record("wsaf.cache", reads=1)
        self.table.place_record(
            key,
            record[_PACKETS],
            record[_BYTES],
            record[_STAMP],
            record[_CHANCE],
            record[_TUPLE],
            now,
        )
        self.demotions += 1

    # -- reads --------------------------------------------------------------

    def lookup(self, key: int) -> "WSAFEntry | None":
        """The live record for ``key`` from whichever tier holds it."""
        record = self._cache.get(key)
        if record is not None:
            return WSAFEntry(
                key=key,
                packets=record[_PACKETS],
                bytes=record[_BYTES],
                last_update=record[_STAMP],
                five_tuple_packed=record[_TUPLE],
            )
        return self.table.lookup(key)

    def remove(self, key: int) -> "WSAFEntry | None":
        """Drop ``key``'s record from whichever tier holds it; return it."""
        record = self._cache.pop(key, None)
        if record is not None:
            self._hits.pop(key, None)
            if self.accountant is not None:
                self.accountant.record("wsaf.cache", reads=1, writes=1)
            return WSAFEntry(
                key=key,
                packets=record[_PACKETS],
                bytes=record[_BYTES],
                last_update=record[_STAMP],
                five_tuple_packed=record[_TUPLE],
            )
        return self.table.remove(key)

    def entries(self) -> Iterator[WSAFEntry]:
        """All records of both tiers: table in slot order, then the cache
        in key order."""
        yield from self.table.entries()
        for key in sorted(self._cache):
            record = self._cache[key]
            yield WSAFEntry(
                key=key,
                packets=record[_PACKETS],
                bytes=record[_BYTES],
                last_update=record[_STAMP],
                five_tuple_packed=record[_TUPLE],
            )

    def estimates(
        self, flow_keys=None
    ) -> "dict[int, tuple[float, float]]":
        """Per-flow ``(packets, bytes)`` across both tiers, optionally filtered."""
        if flow_keys is not None:
            found: "dict[int, tuple[float, float]]" = {}
            residual = []
            for key in flow_keys:
                key = int(key)
                record = self._cache.get(key)
                if record is not None:
                    found[key] = (record[_PACKETS], record[_BYTES])
                else:
                    residual.append(key)
            found.update(self.table.estimates(flow_keys=residual))
            return found
        merged = self.table.estimates()
        for key in sorted(self._cache):
            record = self._cache[key]
            merged[key] = (record[_PACKETS], record[_BYTES])
        return merged

    def active_entries(self, now: float, window: float) -> Iterator[WSAFEntry]:
        """Records of either tier updated within ``window`` seconds of ``now``."""
        if window <= 0:
            raise ConfigurationError("window must be positive")
        for entry in self.entries():
            if now - entry.last_update <= window:
                yield entry

    # -- lifecycle -----------------------------------------------------------

    def expire_older_than(self, cutoff: float) -> int:
        """Bulk-reclaim idle records from both tiers."""
        reclaimed = self.table.expire_older_than(cutoff)
        stale = [
            key
            for key, record in self._cache.items()
            if record[_STAMP] < cutoff
        ]
        for key in sorted(stale):
            del self._cache[key]
            self._hits.pop(key, None)
        # Cache reclaims count on the shared (table-resident) counter.
        self.table.gc_reclaimed += len(stale)
        return reclaimed + len(stale)

    # -- state transfer -------------------------------------------------------

    def export_state(self):
        """Both tiers as a :class:`~repro.state.snapshot.WSAFState`.

        The main columns are the backing table's records (slot-exact);
        the cache rides in a ``tier`` section (records in key order plus
        the heat counts and tick phase), so the round trip is bit-exact
        even mid-interval.  The top-level counters are the facade's
        totals — a flat consumer that flushes the tier section sees the
        same ``size``/``updates`` it would read off this object.
        """
        import numpy as np

        from repro.state.snapshot import TierState, pack_tuple_columns

        state = self.table.export_state()
        state.size = self.size
        state.updates = self.updates

        cache_keys = sorted(self._cache)
        records = [self._cache[key] for key in cache_keys]
        lo, hi, present = pack_tuple_columns(
            [record[_TUPLE] for record in records]
        )
        heat_keys = sorted(set(self._hits) | set(self._misses))
        state.tier = TierState(
            cache_entries=self.cache_entries,
            tier_interval=self.tier_interval,
            op_count=self.op_count,
            cache_updates=self.cache_updates,
            promotions=self.promotions,
            demotions=self.demotions,
            keys=np.array(cache_keys, dtype=np.uint64),
            packets=np.array(
                [record[_PACKETS] for record in records], dtype=np.float64
            ),
            bytes=np.array(
                [record[_BYTES] for record in records], dtype=np.float64
            ),
            timestamps=np.array(
                [record[_STAMP] for record in records], dtype=np.float64
            ),
            chance=np.array(
                [record[_CHANCE] for record in records], dtype=bool
            ),
            tuple_lo=lo,
            tuple_hi=hi,
            tuple_present=present,
            heat_keys=np.array(heat_keys, dtype=np.uint64),
            heat_counts=np.array(
                [
                    self._hits.get(key, 0) + self._misses.get(key, 0)
                    for key in heat_keys
                ],
                dtype=np.int64,
            ),
        )
        return state

    def load_state(self, state) -> None:
        """Restore both tiers from an :meth:`export_state` snapshot.

        A snapshot without a ``tier`` section (flat capture, or a merged
        one — merging flattens tiers) restores with every record in the
        backing table and a cold cache; the next maintenance ticks warm
        it back up.
        """
        from dataclasses import replace

        tier = getattr(state, "tier", None)
        if tier is None:
            self.table.load_state(state)
            self._cache.clear()
            self._hits.clear()
            self._misses.clear()
            self.op_count = 0
            self.cache_updates = 0
            self.promotions = 0
            self.demotions = 0
            return
        table_state = replace(
            state,
            tier=None,
            size=state.size - tier.num_records,
            updates=state.updates - tier.cache_updates,
        )
        self.table.load_state(table_state)
        self._cache.clear()
        tuples = tier.tuples()
        for i, key in enumerate(tier.keys.tolist()):
            self._cache[key] = [
                float(tier.packets[i]),
                float(tier.bytes[i]),
                float(tier.timestamps[i]),
                bool(tier.chance[i]),
                tuples[i],
            ]
        self._hits.clear()
        self._misses.clear()
        for key, count in zip(
            tier.heat_keys.tolist(), tier.heat_counts.tolist()
        ):
            if key in self._cache:
                self._hits[key] = count
            else:
                self._misses[key] = count
        self.op_count = tier.op_count
        self.cache_updates = tier.cache_updates
        self.promotions = tier.promotions
        self.demotions = tier.demotions
