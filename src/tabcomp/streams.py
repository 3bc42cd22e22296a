"""Splittable deterministic randomness for order-independent column draws.

splitmix64 arithmetic only: derived substreams depend on (base, salt indices),
never on evaluation order, so column draws and sweep points can run in any
order or in parallel without changing results. The k-th state is seed + k * gamma, so a draw
is addressed directly (SplitMix, OOPSLA 2014), here by a sweep trial's index (Salmon, SC 2011).

A draw from range(count) is Lemire's multiply-high rule (D. Lemire, "Fast Random
Integer Generation in an Interval", ACM TOMACS 29(1), 2019): a 64k-bit word W
gives the index ``W * count >> 64k`` and is redrawn only while the product's low
64k bits are below ``2**64k % count``, so every index is reached by the same number of
words and the draw is exactly uniform.

Every batch draw runs through one kernel, ``_draws``: lane i's state is
``values[i] * step + offset``, and up to ``_CHUNK`` lanes are finalized at once. Value i
sits in bits 128i..128i+63 of one Python int, and each whole-int step is masked back to
those low halves. With values, step and offset below 2**64, a lane's state stays below
2**128, so no carry crosses a lane; a right shift only pulls the next lane's low bits
into this lane's high half, which the mask clears. The batch form ``substream_indices``
(salts 0..k-1 of one base, step gamma) and the trial loop's column draw (trial indices, step
n * gamma, one count; see ``relations._count_sorted_hits``) are its two callers. One count
of at most 2**64 takes one multiply, each word's product in its lane and the index in its
high half, and one carry test: 2**64 - threshold added to every low half carries into bit
64 of each lane kept. One count a lane takes a product a lane. Either way only a rejected
lane is redrawn, by the scalar rule.
"""

from __future__ import annotations

import operator
import sys
from array import array
from itertools import compress, repeat
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
    """Exactly uniform draw from range(count), by multiply-high rejection on a splitmix64 stream.

    The stream's next k words, the first lowest, join into one 64k-bit word W,
    with k = 1 for counts up to 2**64 and one more word per 64 bits of count - 1 past it.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    width = 64 * max(1, -(-(count - 1).bit_length() // 64))
    threshold, mask = (1 << width) % count, (1 << width) - 1
    state = seed & _MASK64
    while True:
        word = 0
        for shift in range(0, width, 64):
            state = (state + _GAMMA) & _MASK64
            word |= _finalize(state) << shift
        product = word * count
        if product & mask >= threshold:
            return product >> width


def _finalize_lanes(z: int, lanes: int) -> int:
    """``_finalize`` of every lane of ``z`` mod 2**64; ``lanes`` sets each lane's low half."""
    z &= lanes
    z = ((z ^ (z >> 30)) & lanes) * 0xBF58476D1CE4E5B9 & lanes
    z = ((z ^ (z >> 27)) & lanes) * 0x94D049BB133111EB & lanes
    return (z ^ (z >> 31)) & lanes


def _draws(values: Sequence[int], step: int, offset: int, counts: int | Sequence[int]) -> Sequence[int]:
    """``uniform_index(_finalize((v * step + offset) mod 2**64), count)`` for each of at most
    ``_CHUNK`` values v, with v, step and offset below 2**64; ``counts`` is one count <= 2**64
    or one count a lane."""
    size = len(values)
    ones = int.from_bytes((b"\x01" + bytes(15)) * size, "little")
    lanes, packed = ones * _MASK64, array("Q", bytes(16 * size))
    packed[_LOW::2] = array("Q", values)
    seeds = _finalize_lanes(int.from_bytes(packed, sys.byteorder) * step + ones * offset, lanes)
    words = _finalize_lanes(seeds + ones * _GAMMA, lanes)
    if isinstance(counts, int):
        product, threshold = words * counts, (1 << 64) % counts
        halves = array("Q", product.to_bytes(16 * size, sys.byteorder))
        result = halves[1 - _LOW :: 2]
        if (product & lanes) + ones * ((1 << 64) - threshold) >> 64 & ones == ones:
            return result
        lows, thresholds, counts = halves[_LOW::2], repeat(threshold), [counts] * size
    else:
        words = array("Q", words.to_bytes(16 * size, sys.byteorder))[_LOW::2]
        products = list(map(operator.mul, words, counts))
        result = list(map(operator.rshift, products, repeat(64)))
        lows = map(operator.and_, products, repeat(_MASK64))
        # a count above 2**64 has threshold 2**64, above every low half: the scalar draw takes it
        thresholds = map(operator.mod, repeat(1 << 64), counts)
    for lane in compress(range(size), map(operator.lt, lows, thresholds)):
        # the scalar draw rejects the same first word and goes on, or joins words past 2**64
        result[lane] = uniform_index(_finalize((values[lane] * step + offset) & _MASK64), counts[lane])
    return result


def substream_indices(base: int, counts: Sequence[int]) -> list[int]:
    """``uniform_index(substream_seed(base, i), counts[i])`` for lane i of ``counts``.
    One count <= 2**64 in every lane (``--no-distinct``, equal columns) takes the kernel's
    one-count tail. Sweep trial t of base b is this draw on base ``b + t * n * gamma``."""
    if len(counts) and min(counts) < 1:
        raise ValueError(f"count must be positive, got {min(counts)}")
    same = len(counts) and counts.count(counts[0]) == len(counts) and counts[0] <= 1 << 64
    # lane i's state is base + (i + 1) * _GAMMA, as substream_seed(base, i) builds it
    multiples, result = range(1, len(counts) + 1), []
    for start in range(0, len(counts), _CHUNK):
        chunk = slice(start, start + _CHUNK)
        result += _draws(multiples[chunk], _GAMMA, base & _MASK64, counts[0] if same else counts[chunk])
    return result
