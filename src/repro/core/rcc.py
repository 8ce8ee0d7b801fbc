"""RCC — the Recyclable Counter with Confinement (Nyang & Shin, ToN 2016).

RCC is the probabilistic counter both FlowRegulator layers are built from.
Each flow owns a *virtual vector*: ``vector_bits`` consecutive bit positions
(cyclically) inside one machine word of a shared word array.  Confining the
vector to a single word means one memory access per packet; different flows
hashing to the same word with overlapping windows are the *noise* source the
paper's accuracy discussion revolves around.

Encoding sets one uniformly-random bit of the vector per packet.  When at
least ``ceil(saturation_fill * vector_bits)`` bits are 1, the vector is
*saturated*: the counter decodes online, recycles (clears) the vector, and
reports the *noise level* — the number of still-zero bits, which for an
8-bit vector is one of {0, 1, 2}, the paper's "three cases".

Decoding uses the coupon-collector partial sum: the expected number of
insertions needed to set ``s`` distinct bits out of ``b`` is
``Σ_{j<s} b/(b-j)``.  This estimator reproduces the paper's published
retention capacities exactly: ≈9.7 for an 8-bit vector ("can only count up
to 9 packets") and ≈76.6 for a 64-bit vector ("only 77 packets even with a
64-bit virtual vector").
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError, DecodeError
from repro.hashing import hash_u64, hash_u64_array
from repro.memmodel import AccessAccountant


def coupon_partial_sum(vector_bits: int, bits_set: int) -> float:
    """Expected insertions to set ``bits_set`` distinct bits out of ``vector_bits``.

    The coupon-collector partial sum ``Σ_{j=0}^{bits_set-1} b/(b-j)``.
    """
    if not 0 <= bits_set <= vector_bits:
        raise DecodeError(
            f"bits_set must be in [0, {vector_bits}], got {bits_set}"
        )
    return sum(vector_bits / (vector_bits - j) for j in range(bits_set))


_GEOMETRY_TABLES: "dict[tuple[int, int], tuple[tuple, tuple, tuple]]" = {}


def _geometry_tables(
    word_bits: int, vector_bits: int
) -> "tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[float, ...]]":
    """(window masks, per-offset bit masks, decode table), cached per geometry.

    Every sketch of one ``(word_bits, vector_bits)`` shares these; they
    are tuples so no reader can change another sketch's table.
    """
    tables = _GEOMETRY_TABLES.get((word_bits, vector_bits))
    if tables is None:
        bit_masks = tuple(
            tuple(1 << ((offset + i) % word_bits) for i in range(vector_bits))
            for offset in range(word_bits)
        )
        window_masks = tuple(sum(bits) for bits in bit_masks)
        decode_table = tuple(
            coupon_partial_sum(vector_bits, vector_bits - zeros)
            for zeros in range(vector_bits + 1)
        )
        tables = (window_masks, bit_masks, decode_table)
        _GEOMETRY_TABLES[(word_bits, vector_bits)] = tables
    return tables


class RCCSketch:
    """A shared-word-array RCC sketch.

    Args:
        memory_bytes: size of the word array (must hold >= 1 word).
        vector_bits: virtual-vector width ``b`` (the paper uses 8 per layer).
        word_bits: machine word size, 32 or 64 (Section III-D).
        saturation_fill: fraction of the vector that must be 1 to saturate
            (the paper's 70 %).
        seed: hash seed for flow placement.
        accountant: optional :class:`AccessAccountant` for memory-access
            costing; ``None`` keeps the hot path free of accounting.
        label: accounting label.
    """

    def __init__(
        self,
        memory_bytes: int,
        vector_bits: int = 8,
        word_bits: int = 32,
        saturation_fill: float = 0.7,
        seed: int = 0,
        accountant: "AccessAccountant | None" = None,
        label: str = "rcc",
    ) -> None:
        if word_bits not in (32, 64):
            raise ConfigurationError(f"word_bits must be 32 or 64, got {word_bits}")
        if not 2 <= vector_bits <= word_bits:
            raise ConfigurationError(
                f"vector_bits must be in [2, word_bits], got {vector_bits}"
            )
        if not 0.0 < saturation_fill <= 1.0:
            raise ConfigurationError(
                f"saturation_fill must be in (0, 1], got {saturation_fill}"
            )
        num_words = (memory_bytes * 8) // word_bits
        if num_words < 1:
            raise ConfigurationError(
                f"{memory_bytes} bytes cannot hold a single {word_bits}-bit word"
            )
        self.memory_bytes = memory_bytes
        self.vector_bits = vector_bits
        self.word_bits = word_bits
        self.saturation_fill = saturation_fill
        self.num_words = num_words
        self.seed = seed
        self.accountant = accountant
        self.label = label

        self.saturation_bits = math.ceil(saturation_fill * vector_bits)
        if self.saturation_bits < 1:
            raise ConfigurationError("saturation threshold must be >= 1 bit")
        #: Highest observable noise level (zero bits remaining at saturation).
        self.noise_max = vector_bits - self.saturation_bits

        # words are plain Python ints: single-word bitwise ops are the hot path.
        self.words: "list[int]" = [0] * num_words
        # Cyclic window masks, per-(offset, bit) set-masks and the decode
        # table (estimate per noise level, index = zeros), shared by every
        # sketch of this geometry.
        self._window_masks, self._bit_masks, self._decode_table = (
            _geometry_tables(word_bits, vector_bits)
        )
        self._place_seed_idx = hash_u64(seed, 0x51)
        self._place_seed_off = hash_u64(seed, 0x52)

        self.packets_encoded = 0
        self.saturations = 0

    # -- placement ---------------------------------------------------------

    def place(self, flow_key: int) -> "tuple[int, int]":
        """(word index, bit offset) of ``flow_key``'s virtual vector."""
        idx = hash_u64(flow_key, self._place_seed_idx) % self.num_words
        offset = hash_u64(flow_key, self._place_seed_off) % self.word_bits
        return idx, offset

    def place_array(self, flow_keys: "np.ndarray") -> "tuple[np.ndarray, np.ndarray]":
        """Vectorized :meth:`place` over a ``uint64`` key array.

        Bit-identical to the scalar path; engines hoist placement out of the
        per-packet loop with this.
        """
        idx = hash_u64_array(flow_keys, self._place_seed_idx) % np.uint64(
            self.num_words
        )
        offset = hash_u64_array(flow_keys, self._place_seed_off) % np.uint64(
            self.word_bits
        )
        return idx.astype(np.int64), offset.astype(np.int64)

    # -- encode / decode ---------------------------------------------------

    def encode_at(self, idx: int, offset: int, bit_choice: int) -> "int | None":
        """Encode one packet into the vector at (``idx``, ``offset``).

        ``bit_choice`` is the per-packet uniformly random bit index in
        ``[0, vector_bits)`` (the caller owns the randomness stream so
        experiments are reproducible).

        Returns:
            The noise level (number of zero bits) if this packet saturated
            the vector — the vector has then been recycled — else ``None``.
        """
        word = self.words[idx] | self._bit_masks[offset][bit_choice]
        self.packets_encoded += 1
        if self.accountant is not None:
            self.accountant.record(self.label, reads=1, writes=1)
        window = self._window_masks[offset]
        zeros = self.vector_bits - (word & window).bit_count()
        if zeros <= self.noise_max:
            self.words[idx] = word & ~window
            self.saturations += 1
            return zeros
        self.words[idx] = word
        return None

    def encode(self, flow_key: int, bit_choice: int) -> "int | None":
        """Hash-place ``flow_key`` and encode one packet (see :meth:`encode_at`)."""
        idx, offset = self.place(flow_key)
        return self.encode_at(idx, offset, bit_choice)

    def decode(self, noise: int) -> float:
        """Estimated packets represented by a saturation at ``noise`` zeros."""
        if not 0 <= noise <= self.noise_max:
            raise DecodeError(
                f"noise level must be in [0, {self.noise_max}], got {noise}"
            )
        return self._decode_table[noise]

    def fill_count(self, flow_key: int) -> int:
        """Bits currently set in ``flow_key``'s vector (includes noise bits)."""
        idx, offset = self.place(flow_key)
        return (self.words[idx] & self._window_masks[offset]).bit_count()

    def partial_estimate(self, flow_key: int) -> float:
        """Decode the unsaturated residual of ``flow_key``'s vector.

        Evaluation helper: attributes every set bit in the window to the
        flow, so under heavy sharing it over-estimates.  The real system
        never calls this; end-of-run accuracy harnesses may.
        """
        return coupon_partial_sum(self.vector_bits, self.fill_count(flow_key))

    # -- analytics ---------------------------------------------------------

    @property
    def retention_capacity(self) -> float:
        """Expected packets a single flow retains before one saturation."""
        return self._decode_table[self.noise_max]

    @property
    def noise_levels(self) -> int:
        """Number of distinct observable noise levels (the paper's 'cases')."""
        return self.noise_max + 1

    def saturation_rate(self) -> float:
        """Observed saturations per encoded packet (the regulation rate)."""
        if self.packets_encoded == 0:
            return 0.0
        return self.saturations / self.packets_encoded

    # -- state transfer ----------------------------------------------------

    def words_array(self) -> np.ndarray:
        """Snapshot of the word array as ``uint64``.

        Compact form for measurement snapshots (:mod:`repro.state`), which
        archive sketch state or ship it across process boundaries; restore
        with :meth:`set_words_array`.
        """
        return np.array(self.words, dtype=np.uint64)

    def set_words_array(self, array: np.ndarray) -> None:
        """Replace the word state from a :meth:`words_array` snapshot."""
        values = np.asarray(array, dtype=np.uint64).tolist()
        if len(values) != self.num_words:
            raise ConfigurationError(
                f"expected {self.num_words} words, got {len(values)}"
            )
        self.words = values

    def reset(self) -> None:
        """Clear all vectors and statistics."""
        self.words = [0] * self.num_words
        self.packets_encoded = 0
        self.saturations = 0
