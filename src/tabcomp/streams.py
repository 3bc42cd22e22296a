"""Splittable deterministic randomness for order-independent column draws.

splitmix64 arithmetic only: derived substreams depend on (base, salt indices),
never on evaluation order, so column draws and sweep points can run in any
order or in parallel without changing results.

A draw from range(count) is Lemire's multiply-high rule (D. Lemire, "Fast Random
Integer Generation in an Interval", ACM TOMACS 29(1), 2019): a 64k-bit word W
gives the index ``W * count >> 64k`` and is redrawn only while the product's low
64k bits are below ``2**64k % count``, so every index is reached by the same number of
words and the draw is exactly uniform.

The batch form ``substream_indices`` (salts 0..k-1 of one base) and the trial loop's
column draw (many bases, one salt, one count) run the finalizer on up to ``_CHUNK``
values at once: value i sits in bits 128i..128i+63 of one Python int, and each
whole-int step is masked back to those low halves. A sum or a product of values below
2**64 stays below 2**128, so no carry crosses a lane; a right shift only pulls the
next lane's low bits into this lane's high half, which the mask clears. One multiply
by a count of at most 2**64 leaves each word's product in its lane, the index in its
high half; one carry test, 2**64 - threshold added to every low half, carries into bit
64 of each lane kept, and only a lane without it is redrawn, by the scalar rule.
"""

from __future__ import annotations

import operator
import sys
from array import array
from itertools import compress, repeat
from typing import Callable, Sequence

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


def _scaled(words: int, count: int, ones: int, lanes: int, seed: Callable[[int], int]) -> Sequence[int]:
    """Each lane's ``W * count >> 64``, count <= 2**64; a rejected lane is redrawn from ``seed(lane)``."""
    product, threshold = words * count, (1 << 64) % count
    halves = array("Q", product.to_bytes(16 * ((ones.bit_length() + 127) // 128), sys.byteorder))
    result = halves[1 - _LOW :: 2]
    if (product & lanes) + ones * ((1 << 64) - threshold) >> 64 & ones != ones:
        for lane in compress(range(len(result)), map(operator.lt, halves[_LOW::2], repeat(threshold))):
            result[lane] = uniform_index(seed(lane), count)  # rejects the same first word, goes on
    return result


def _column_indices(bases: Sequence[int], salt: int, count: int) -> Sequence[int]:
    """``uniform_index(substream_seed(base, salt), count)`` for at most ``_CHUNK`` bases; count <= 2**64."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * len(bases), "little")
    lanes, offset = ones * _MASK64, ones * ((salt + 1) * _GAMMA & _MASK64)
    seeds = _finalize_lanes(_lanes(bases) + offset, lanes)
    words = _finalize_lanes(seeds + ones * _GAMMA, lanes)
    return _scaled(words, count, ones, lanes, lambda lane: substream_seed(bases[lane], salt))


def substream_indices(base: int, counts: Sequence[int]) -> list[int]:
    """``uniform_index(substream_seed(base, i), counts[i])`` for lane i of ``counts``; base < 2**64.
    One count <= 2**64 in every lane (``--no-distinct``, equal columns) is the column draw's
    tail: one multiply, one carry test and a scalar redraw only of a rejected lane. The trial
    loop calls ``_column_indices``."""
    if len(counts) and min(counts) < 1:
        raise ValueError(f"count must be positive, got {min(counts)}")
    same = len(counts) and counts.count(counts[0]) == len(counts) and counts[0] <= 1 << 64
    result: list[int] = []
    lows: list[int] = []
    thresholds: list[int] = []
    for start in range(0, len(counts), _CHUNK):
        chunk, size = slice(start, start + _CHUNK), min(_CHUNK, len(counts) - start)
        ones = int.from_bytes((b"\x01" + bytes(15)) * size, "little")
        lanes = ones * _MASK64
        offsets = (_lanes(range(start, start + size)) + ones) * _GAMMA & lanes
        seeds = _finalize_lanes(ones * base + offsets, lanes)
        words = _finalize_lanes(seeds + ones * _GAMMA, lanes)
        if same:
            result += _scaled(words, counts[0], ones, lanes, lambda lane: substream_seed(base, start + lane))
            continue
        words = array("Q", words.to_bytes(16 * size, sys.byteorder))[_LOW::2]
        products = list(map(operator.mul, words, counts[chunk]))
        result += map(operator.rshift, products, repeat(64))
        lows += map(operator.and_, products, repeat(_MASK64))
        # a count above 2**64 has threshold 2**64, above every low half: the scalar draw takes it
        thresholds += map(operator.mod, repeat(1 << 64), counts[chunk])
    for lane in compress(range(len(lows)), map(operator.lt, lows, thresholds)):
        # the scalar draw rejects the same first word and goes on, or joins words past 2**64
        result[lane] = uniform_index(substream_seed(base, lane), counts[lane])
    return result
