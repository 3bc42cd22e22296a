"""splitmix64 substreams: the scalar draws and the lane-parallel batch form."""

from __future__ import annotations

import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from tabcomp import streams
from tabcomp.streams import substream_indices, substream_seed, uniform_index

_MASK64 = (1 << 64) - 1


def _single_word_uniform_index(seed: int, count: int) -> int:
    """``uniform_index`` as it drew before counts above 2**64 joined words."""
    if count == 1:
        return 0
    mask = (1 << (count - 1).bit_length()) - 1
    state = seed & _MASK64
    while True:
        state = (state + streams._GAMMA) & _MASK64
        candidate = streams._finalize(state) & mask
        if candidate < count:
            return candidate


@given(st.integers(0, _MASK64), st.integers(1, 1 << 64))
@example(0, 1 << 64)
@example(7, 3)
def test_uniform_index_keeps_its_values_up_to_2_64(seed, count):
    assert uniform_index(seed, count) == _single_word_uniform_index(seed, count)


@given(st.integers((1 << 64) + 1, 1 << 300))
@example((1 << 64) + 1)
@example(3 << 63)
@example(1 << 200)
def test_uniform_index_reaches_the_top_word_above_2_64(count):
    draws = [uniform_index(seed, count) for seed in range(64)]
    assert all(0 <= draw < count for draw in draws)
    # a uniform draw lands in the top quarter with probability 1/4; one word
    # alone never passes 2**64, which is below the top quarter from 4/3 * 2**64 on
    if count >= 4 * (1 << 64) // 3:
        assert max(draws) >= count - count // 4


_COUNTS = [1, 2, 3, 1 << 5, (1 << 64) - 1, 1 << 64, (1 << 64) + 1, 1 << 200]


@pytest.mark.parametrize("lanes", [0, 1, 2, streams._CHUNK, streams._CHUNK + 1])
@pytest.mark.parametrize("count", _COUNTS)
def test_batch_equals_scalar_lane_by_lane(lanes, count):
    fuzz = random.Random(lanes * 7 + count.bit_length())
    bases = [fuzz.getrandbits(64) for _ in range(lanes)]
    salts = [fuzz.getrandbits(fuzz.choice([3, 64])) for _ in range(lanes)]
    expected = [uniform_index(substream_seed(base, salt), count) for base, salt in zip(bases, salts)]
    assert substream_indices(bases, salts, [count] * lanes) == expected


def test_batch_lanes_keep_their_own_counts():
    # mixed counts in one chunk, salts as a range, as the master sequence draws
    fuzz = random.Random(3)
    counts = [fuzz.choice(_COUNTS) for _ in range(300)]
    bases = [fuzz.getrandbits(64)] * len(counts)
    expected = [uniform_index(substream_seed(bases[0], salt), count) for salt, count in enumerate(counts)]
    assert substream_indices(bases, range(len(counts)), counts) == expected


def test_batch_rejects_a_count_below_one_like_the_scalar_draw():
    with pytest.raises(ValueError):
        substream_indices([1, 2], [0, 0], [3, 0])
