"""ICE-Buckets-style compressed counters for the WSAF.

ICE Buckets shrinks per-flow counters by grouping them into buckets that
share a scale exponent: each counter stores only a small
``counter_bits``-bit integer ``q``, and its value is ``q · 2^scale`` with
one ``scale`` per bucket (separate exponents for the packet and byte
planes, since their magnitudes differ by the mean packet size).  When an
update would overflow a counter, the whole bucket *upscales* — the
exponent increments and every resident counter halves (nearest-integer)
— so precision degrades gracefully exactly where the big flows live,
with a relative error bounded by half a quantization step
(``2^(scale-1)`` absolute, i.e. ~``2^-(counter_bits-1)`` relative for a
counter near full scale).

:class:`IceBucketsWSAFTable` keeps every :class:`~repro.core.wsaf.
WSAFTable` semantic — probe sequence, eviction policies, GC, counters —
and changes only how the packet/byte accumulators are stored.  The float
columns always hold the *dequantized* values (``q · 2^scale`` is exact in
float64), so lookups, eviction ordering, estimates, and snapshots all
read consistent quantized state with no extra translation.

The table has list columns only: its quantized add chains are
order-serial (every add re-rounds at the bucket scale, and an overflow
rescales the whole bucket), so a cohort-batched form measured slower than
per-event adds.  The batched regulator kernel still feeds it, one
``accumulate_batch`` call per chunk.

Snapshots carry the per-bucket scales in an ``ice`` section.  Restoring
with matching bucket geometry is **bit-exact**: the integer counters
recompute exactly from the dequantized floats and the saved scales.
Restoring without the section (a flat capture, a merged snapshot) or
with different bucket geometry re-quantizes from the floats — documented
*estimate-equivalence*: values change by at most one quantization step.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.memmodel import AccessAccountant

from repro.core.wsaf import ENTRY_BYTES, WSAFTable


class IceBucketsWSAFTable(WSAFTable):
    """A :class:`WSAFTable` whose counters are bucket-scaled integers.

    Args:
        bucket_slots: contiguous table slots sharing one scale exponent.
        counter_bits: stored bits per counter (2..32); the paper's 64-bit
            counter pair shrinks to two ``counter_bits``-bit integers.
    """

    def __init__(
        self,
        num_entries: int = 1 << 20,
        probe_limit: int = 16,
        gc_timeout: "float | None" = None,
        accountant: "AccessAccountant | None" = None,
        eviction_policy: str = "second-chance",
        bucket_slots: int = 64,
        counter_bits: int = 16,
    ) -> None:
        if bucket_slots < 1:
            raise ConfigurationError(
                f"bucket_slots must be >= 1, got {bucket_slots}"
            )
        if not 2 <= counter_bits <= 32:
            raise ConfigurationError(
                f"counter_bits must be in [2, 32], got {counter_bits}"
            )
        super().__init__(
            num_entries=num_entries,
            probe_limit=probe_limit,
            gc_timeout=gc_timeout,
            accountant=accountant,
            eviction_policy=eviction_policy,
        )
        self.bucket_slots = bucket_slots
        self.counter_bits = counter_bits
        self.num_buckets = (num_entries + bucket_slots - 1) // bucket_slots
        self._counter_max = (1 << counter_bits) - 1
        #: Quantized counters, parallel to the inherited float columns
        #: (which always hold the dequantized q·2^scale values).
        self._qpackets = [0] * num_entries
        self._qbytes = [0] * num_entries
        self._scale_packets = [0] * self.num_buckets
        self._scale_bytes = [0] * self.num_buckets
        self.upscales = 0

    # -- quantized stores ----------------------------------------------------

    def _upscale(self, bucket: int, plane_scales, plane_q, plane_values) -> None:
        """Increment ``bucket``'s exponent and halve its resident counters.

        Each occupied counter rounds to the nearest value representable
        at the new scale; one read+write per resident entry is charged to
        the accountant (the bucket sweep is real memory traffic).
        """
        plane_scales[bucket] += 1
        scale_value = float(1 << plane_scales[bucket])
        begin = bucket * self.bucket_slots
        end = min(begin + self.bucket_slots, self.num_entries)
        touched = 0
        for slot in range(begin, end):
            if not self._occupied[slot]:
                continue
            q = (plane_q[slot] + 1) >> 1
            plane_q[slot] = q
            plane_values[slot] = q * scale_value
            touched += 1
        self.upscales += 1
        if self.accountant is not None and touched:
            self.accountant.record("wsaf", reads=touched, writes=touched)

    def _store(self, slot: int, packets: float, bytes_: float) -> None:
        """Write absolute counter values for ``slot``, quantized.

        Upscales the slot's bucket until both planes fit; the float
        columns are left holding the exact dequantized values.
        """
        bucket = slot // self.bucket_slots
        counter_max = self._counter_max
        q = round(packets / (1 << self._scale_packets[bucket]))
        while q > counter_max:
            self._upscale(
                bucket, self._scale_packets, self._qpackets, self._packets
            )
            q = round(packets / (1 << self._scale_packets[bucket]))
        self._qpackets[slot] = q
        self._packets[slot] = q * float(1 << self._scale_packets[bucket])

        q = round(bytes_ / (1 << self._scale_bytes[bucket]))
        while q > counter_max:
            self._upscale(
                bucket, self._scale_bytes, self._qbytes, self._bytes
            )
            q = round(bytes_ / (1 << self._scale_bytes[bucket]))
        self._qbytes[slot] = q
        self._bytes[slot] = q * float(1 << self._scale_bytes[bucket])

    def _clear(self, slot: int) -> None:
        super()._clear(slot)
        self._qpackets[slot] = 0
        self._qbytes[slot] = 0

    # -- operations ----------------------------------------------------------

    def accumulate(
        self,
        key: int,
        est_packets: float,
        est_bytes: float,
        timestamp: float,
        five_tuple_packed: "int | None" = None,
    ) -> "tuple[float, float]":
        """Same walk as :meth:`WSAFTable.accumulate`; quantized commits.

        The addition happens on the dequantized values (the estimate
        arrives exact), then the sum is re-quantized into the slot — the
        one place the bounded rounding error enters.
        """
        mask = self._mask
        base = key & mask
        occupied = self._occupied
        keys = self._keys
        probes = 0
        first_free = -1
        for i in range(self.probe_limit):
            slot = (base + ((i + i * i) >> 1)) & mask
            probes += 1
            if occupied[slot]:
                if keys[slot] == key:
                    if self.accountant is not None:
                        self.accountant.record("wsaf", reads=probes, writes=1)
                    self._store(
                        slot,
                        self._packets[slot] + est_packets,
                        self._bytes[slot] + est_bytes,
                    )
                    self._timestamps[slot] = timestamp
                    self._chance[slot] = True
                    self.updates += 1
                    return self._packets[slot], self._bytes[slot]
                if first_free < 0 and self._expired(slot, timestamp):
                    self._clear(slot)
                    self.gc_reclaimed += 1
                    first_free = slot
            elif first_free < 0:
                first_free = slot

        if first_free < 0:
            first_free = self._find_victim(key, timestamp)
        if first_free < 0:
            self.rejected += 1
            if self.accountant is not None:
                self.accountant.record("wsaf", reads=probes)
            return 0.0, 0.0

        if self.accountant is not None:
            self.accountant.record("wsaf", reads=probes, writes=1)
        self._occupied[first_free] = True
        self._occupied_slots.add(first_free)
        self._keys[first_free] = key
        self._store(first_free, est_packets, est_bytes)
        self._timestamps[first_free] = timestamp
        self._chance[first_free] = True
        self._tuples[first_free] = five_tuple_packed
        self.size += 1
        self.insertions += 1
        return self._packets[first_free], self._bytes[first_free]

    def place_record(
        self,
        key: int,
        packets: float,
        bytes_: float,
        timestamp: float,
        chance: bool,
        five_tuple_packed: "int | None",
        now: float,
    ) -> bool:
        """Place a fully-formed record, committing counters through
        quantization so estimates stay representable values."""
        placed = super().place_record(
            key, packets, bytes_, timestamp, chance, five_tuple_packed, now
        )
        if placed:
            # The parent wrote raw floats; re-commit through quantization.
            for slot in self.probe_sequence(key):
                if self._occupied[slot] and self._keys[slot] == key:
                    self._store(slot, packets, bytes_)
                    break
        return placed

    # -- memory --------------------------------------------------------------

    def counter_memory_bytes(self) -> int:
        """Quantized counter planes plus one exponent byte per plane per
        bucket (versus 16 bytes/entry for the flat 64-bit counter pair)."""
        per_counter = (self.counter_bits + 7) // 8
        return self.num_entries * 2 * per_counter + self.num_buckets * 2

    def memory_bytes(self) -> int:
        """The 33-byte layout with its 16 counter bytes swapped for the
        compressed planes."""
        return (
            self.num_entries * (ENTRY_BYTES - 16) + self.counter_memory_bytes()
        )

    # -- state transfer -------------------------------------------------------

    def export_state(self):
        """Flat columns (dequantized, exact) plus an ``ice`` scale section."""
        import numpy as np

        from repro.state.snapshot import IceState

        state = super().export_state()
        state.ice = IceState(
            bucket_slots=self.bucket_slots,
            counter_bits=self.counter_bits,
            upscales=self.upscales,
            scale_packets=np.array(self._scale_packets, dtype=np.int64),
            scale_bytes=np.array(self._scale_bytes, dtype=np.int64),
        )
        return state

    def load_state(self, state) -> None:
        """Restore records, then rebuild the quantized planes.

        With a matching ``ice`` section (same bucket geometry and table
        size — so slots, and therefore bucket membership, are preserved)
        the integer counters recompute exactly from the dequantized
        floats: bit-exact restore.  Otherwise (flat or merged snapshot,
        or changed geometry) the floats re-quantize from scratch —
        estimate-equivalent within one quantization step.
        """
        super().load_state(state)
        ice = getattr(state, "ice", None)
        exact = (
            ice is not None
            and ice.bucket_slots == self.bucket_slots
            and ice.counter_bits == self.counter_bits
            and state.num_entries == self.num_entries
            and len(ice.scale_packets) == self.num_buckets
        )
        if exact:
            self._scale_packets = ice.scale_packets.astype(int).tolist()
            self._scale_bytes = ice.scale_bytes.astype(int).tolist()
            self.upscales = ice.upscales
        else:
            self._scale_packets = [0] * self.num_buckets
            self._scale_bytes = [0] * self.num_buckets
            self.upscales = 0
        self._qpackets = [0] * self.num_entries
        self._qbytes = [0] * self.num_entries
        for slot in sorted(self._occupied_slots):
            self._store(slot, self._packets[slot], self._bytes[slot])

