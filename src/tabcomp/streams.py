"""Splittable deterministic randomness for order-independent column draws.

splitmix64 arithmetic only: derived substreams depend on (base, salt indices),
never on evaluation order, so column draws and sweep points can run in any
order or in parallel without changing results.

The batch form ``substream_indices`` runs the finalizer on up to ``_CHUNK``
values at once: value i sits in bits 128i..128i+63 of one Python int, and each
whole-int step is masked back to those low halves. A sum or a product of values
below 2**64 stays below 2**128, so no carry crosses a lane; a right shift only
pulls the next lane's low bits into this lane's high half, which the mask clears.
"""

from __future__ import annotations

import sys
from array import array
from typing import Sequence

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_CHUNK = 1024
# in native word order, a lane's low word comes first on little-endian hosts
_LOW = int(sys.byteorder == "big")


def _finalize(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def substream_seed(base: int, *salts: int) -> int:
    """Seed for the substream of ``base`` selected by one or more salt indices."""
    z = base & _MASK64
    for salt in salts:
        z = _finalize((z + (salt + 1) * _GAMMA) & _MASK64)
    return z


def uniform_index(seed: int, count: int) -> int:
    """Exactly uniform draw from range(count), by masked rejection on a splitmix64 stream.

    A candidate joins the stream's next words, the first lowest, one per 64 bits of count - 1.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    bits = (count - 1).bit_length()
    state = seed & _MASK64
    while True:
        candidate = 0
        for shift in range(0, bits, 64):
            state = (state + _GAMMA) & _MASK64
            candidate |= _finalize(state) << shift
        candidate &= (1 << bits) - 1
        if candidate < count:
            return candidate


def _lanes(values: Sequence[int]) -> int:
    """The values, each below 2**64, in the low halves of consecutive 128-bit lanes."""
    words = array("Q", bytes(16 * len(values)))
    words[_LOW::2] = array("Q", values)
    return int.from_bytes(words, sys.byteorder)


def _finalize_lanes(z: int, lanes: int) -> int:
    """``_finalize`` of every lane of ``z`` mod 2**64; ``lanes`` sets each lane's low half."""
    z &= lanes
    z = ((z ^ (z >> 30)) & lanes) * 0xBF58476D1CE4E5B9 & lanes
    z = ((z ^ (z >> 27)) & lanes) * 0x94D049BB133111EB & lanes
    return (z ^ (z >> 31)) & lanes


def substream_indices(
    bases: Sequence[int], salts: Sequence[int], counts: Sequence[int]
) -> list[int]:
    """``uniform_index(substream_seed(base, salt), count)`` lane by lane; bases, salts < 2**64."""
    candidates: list[int] = []
    for start in range(0, len(bases), _CHUNK):
        chunk, size = slice(start, start + _CHUNK), min(_CHUNK, len(bases) - start)
        ones = int.from_bytes((b"\x01" + bytes(15)) * size, "little")
        lanes = ones * _MASK64
        offsets = (_lanes(salts[chunk]) + ones) * _GAMMA & lanes
        seeds = _finalize_lanes(_lanes(bases[chunk]) + offsets, lanes)
        words = _finalize_lanes(seeds + ones * _GAMMA, lanes).to_bytes(16 * size, sys.byteorder)
        candidates += array("Q", words)[_LOW::2]
    result = []
    for base, salt, count, candidate in zip(bases, salts, counts, candidates):
        if not 0 < count <= 1 << 64:  # words joined into one candidate, or the scalar's error
            candidate = uniform_index(substream_seed(base, salt), count)
        elif (candidate := candidate & (1 << (count - 1).bit_length()) - 1) >= count:
            # rejected: go on from the stream's next state, as uniform_index does
            candidate = uniform_index(substream_seed(base, salt) + _GAMMA, count)
        result.append(candidate)
    return result
