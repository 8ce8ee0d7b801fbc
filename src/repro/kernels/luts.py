"""Precomputed transition tables for the batched regulator kernel.

The per-word evolution of an RCC layer is a finite-state machine over the
``2**vector_bits`` window states: each packet ORs one bit into the window,
and once ``saturation_bits`` bits are set the window recycles to zero and
reports its noise level (the count of still-zero bits).  With
``vector_bits <= 8`` the whole FSM fits a few hundred interned small
integers, so the hot loop becomes bytes-indexed list lookups instead of
shift/mask/popcount arithmetic per packet.

Saturating transitions are flagged with values ``>= SENTINEL``: the
single-packet table returns ``SENTINEL + z`` where ``z`` is the noise
level, and the four-packet table (:func:`quad_tables`) packs the
saturating packet's position and the window after the block above it.

Tables depend only on the layer geometry ``(vector_bits, saturation_bits)``
and are cached per geometry for the life of the process.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.errors import ConfigurationError

#: Transition values at or above this mark a saturation (see module doc).
SENTINEL = 256


_CACHE: "dict[tuple[int, int], list[list[int]]]" = {}


def kernel_tables(vector_bits: int, saturation_bits: int) -> "list[list[int]]":
    """Build (or fetch cached) the single-packet table of one geometry.

    ``table[state][bit]`` is the window state after ORing ``1 << bit``
    into ``state``, or ``SENTINEL + z`` if that OR reaches
    ``saturation_bits`` set bits (the window then recycles to zero) at
    noise level ``z``.  Only defined for ``vector_bits <= 8``: states must
    fit a byte and noise levels must fit 3 bits.
    """
    if not 2 <= vector_bits <= 8:
        raise ConfigurationError(
            f"kernel tables need vector_bits in [2, 8], got {vector_bits}"
        )
    if not 1 <= saturation_bits <= vector_bits:
        raise ConfigurationError(
            f"saturation_bits must be in [1, {vector_bits}], got {saturation_bits}"
        )
    key = (vector_bits, saturation_bits)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached

    single: "list[list[int]]" = []
    for state in range(1 << vector_bits):
        row = []
        for bit in range(vector_bits):
            merged = state | (1 << bit)
            set_bits = merged.bit_count()
            if set_bits >= saturation_bits:
                row.append(SENTINEL + (vector_bits - set_bits))
            else:
                row.append(merged)
        single.append(row)
    _CACHE[key] = single
    return single


_QUAD_CACHE: "dict[tuple[int, int], object]" = {}

#: Window states per block of the quad-table build: the block's
#: ``states x 4096`` intermediates stay well under 1 MiB.
_QUAD_BLOCK_STATES = 16


def quad_tables(vector_bits: int, saturation_bits: int):
    """Four-packet transition table as a flat ``array('H')``, indexed
    ``quad[(state << 12) | q]`` with ``q = b0 | b1 << 3 | b2 << 6 | b3 << 9``.

    Only defined for ``saturation_bits >= 4``: a window recycles to zero on
    saturation, and the at most three packets left in the block can set at
    most three bits, so a four-packet block saturates **at most once** from
    any starting state.  That makes a single return value sufficient —
    either the final window state (``< SENTINEL``), or

    ``SENTINEL + (((pos << 3) | z) << 8) + after``

    where ``pos`` is the saturating packet's position in the block, ``z``
    its noise level, and ``after`` the window state once the remaining
    packets replayed from empty.  Built by composing the (separately
    verified) single-packet table, vectorized over ``states x 4096``
    grids of :data:`_QUAD_BLOCK_STATES` states at a time, written straight
    into the table so the build's transient memory stays a fraction of
    the table's own.

    The flat unboxed layout matters: the table has a million entries, and
    a nested list of boxed ints scatters them across the heap — every
    lookup in the hot loop then chases cold pointers.  ``array('H')`` keeps
    the whole table in 2 MB of contiguous shorts.
    """
    if saturation_bits < 4:
        raise ConfigurationError(
            "quad tables need saturation_bits >= 4 (single-saturation "
            f"blocks), got {saturation_bits}"
        )
    key = (vector_bits, saturation_bits)
    cached = _QUAD_CACHE.get(key)
    if cached is not None:
        return cached

    num_states = 1 << vector_bits
    s1 = np.array(
        [
            row + [0] * (8 - vector_bits)
            for row in kernel_tables(vector_bits, saturation_bits)
        ],
        dtype=np.int32,
    )
    codes = np.arange(4096, dtype=np.int32)
    bits = [(codes >> (3 * p)) & 7 for p in range(4)]
    valid = np.ones(4096, dtype=bool)
    for b in bits:
        valid &= b < vector_bits
    safe_bits = [np.where(valid, b, 0)[None, :] for b in bits]
    flat = array("H", [0]) * (num_states << 12)
    grid = np.frombuffer(flat, dtype=np.uint16).reshape(num_states, 4096)
    for first in range(0, num_states, _QUAD_BLOCK_STATES):
        last = min(first + _QUAD_BLOCK_STATES, num_states)
        states = np.arange(first, last, dtype=np.int32)
        cur = np.repeat(states[:, None], 4096, axis=1)
        sat_tag = np.full(cur.shape, -1, dtype=np.int32)
        for pos, b in enumerate(safe_bits):
            nxt = s1[cur, b]
            # With saturation_bits >= 4 a second saturation inside the
            # block is impossible, so any sentinel here is its only one.
            sat_now = nxt >= SENTINEL
            sat_tag = np.where(
                sat_now, (pos << 3) | (nxt - SENTINEL), sat_tag
            )
            cur = np.where(sat_now, 0, nxt)
        block = np.where(sat_tag < 0, cur, SENTINEL + (sat_tag << 8) + cur)
        block[:, ~valid] = 0
        grid[first:last] = block
    _QUAD_CACHE[key] = flat
    return flat


def geometry_tables(vector_bits: int, saturation_bits: int):
    """``(single, quad or None)``: every table the batched kernel steps one
    layer geometry with.

    The quad table exists, and the kernel's replay takes four packets
    per lookup, exactly when ``saturation_bits >= 4``; narrower
    thresholds step every packet through the single-packet table of
    :func:`kernel_tables`.  The kernel fetches its tables here, and the
    fork pool calls it before forking so its workers inherit them built.
    """
    single = kernel_tables(vector_bits, saturation_bits)
    if saturation_bits < 4:
        return single, None
    return single, quad_tables(vector_bits, saturation_bits)
