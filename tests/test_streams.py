"""splitmix64 substreams: the scalar draws and the lane-parallel batch form."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from tabcomp import streams
from tabcomp.streams import substream_indices, substream_seed, uniform_index

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int):
    """The words of Vigna's reference splitmix64 generator started at ``state``."""
    while True:
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        yield z ^ (z >> 31)


def _lemire_index(seed: int, s: int) -> int:
    """Lemire's bounded draw from range(s) (arXiv:1805.10941, Algorithm 5) on L-bit words.

    L is the fewest multiple of 64 bits that holds s - 1, at least 64; an L-bit
    word is the generator's next L / 64 words, the first lowest.
    """
    words = _splitmix64(seed)
    L = 64 * max(1, math.ceil((s - 1).bit_length() / 64))

    def random_word() -> int:
        return sum(next(words) << shift for shift in range(0, L, 64))

    m = random_word() * s
    l = m % 2**L
    if l < s:
        t = (2**L - s) % s
        while l < t:
            m = random_word() * s
            l = m % 2**L
    return m >> L


@given(st.integers(0, _MASK64), st.integers(1, 1 << 200))
@example(0, 1 << 64)
@example(7, 3)
# near 2**64k / 2 about half of all W are rejected: seed 0 rejects its first
# two words, seed 1 its first two-word W
@example(0, (1 << 63) + 1)
@example(1, (1 << 127) + 1)
@example(9, (1 << 64) + 1)
def test_uniform_index_is_lemires_multiply_high_draw(seed, count):
    assert uniform_index(seed, count) == _lemire_index(seed, count)


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


# (1 << 63) + 1 rejects about half its lanes, so the batch's rejection path runs
_COUNTS = [1, 2, 3, 1 << 5, (1 << 63) + 1, (1 << 64) - 1, 1 << 64, (1 << 64) + 1, 1 << 200]


@pytest.mark.parametrize("lanes", [0, 1, 2, streams._CHUNK, streams._CHUNK + 1])
@pytest.mark.parametrize("count", _COUNTS)
def test_batch_equals_scalar_lane_by_lane(lanes, count):
    base = random.Random(lanes * 7 + count.bit_length()).getrandbits(64)
    expected = [uniform_index(substream_seed(base, salt), count) for salt in range(lanes)]
    assert substream_indices(base, [count] * lanes) == expected


def _first_word_rejected(base: int, salt: int, count: int) -> bool:
    """Whether the scalar draw rejects the first word of substream (base, salt) at ``count``."""
    word = streams._finalize((substream_seed(base, salt) + streams._GAMMA) & _MASK64)
    return word * count & _MASK64 < (1 << 64) % count


# a column draw's count is at most 2**64, the most rows a column can mark
_COLUMN_COUNTS = [count for count in _COUNTS if count <= 1 << 64]


def _column_draw(trials, base: int, n: int, column: int, count: int) -> list[int]:
    """Column ``column`` of ``trials`` as the trial loop draws it: the trial indices through
    the lane kernel, with step n * gamma and offset base + (column + 1) * gamma."""
    step, offset = n * streams._GAMMA & _MASK64, (base + (column + 1) * streams._GAMMA) & _MASK64
    return list(streams._draws(trials, step, offset, count))


def _trial_base(base: int, n: int, trial: int) -> int:
    """The base on which ``sample_function`` draws trial ``trial`` of a point with base ``base``."""
    return (base + trial * n * streams._GAMMA) & _MASK64


@pytest.mark.parametrize("lanes", [0, 1, 2, streams._CHUNK])
@pytest.mark.parametrize("count", _COLUMN_COUNTS)
def test_column_draw_equals_scalar_lane_by_lane(lanes, count):
    fuzz = random.Random(lanes * 11 + count.bit_length())
    base, n, start = fuzz.getrandbits(64), fuzz.randrange(1, 40), fuzz.randrange(10**6)
    column, trials = fuzz.randrange(n), range(start, start + lanes)
    expected = [uniform_index(substream_seed(_trial_base(base, n, t), column), count) for t in trials]
    assert _column_draw(trials, base, n, column, count) == expected
    if count == (1 << 63) + 1 and lanes == streams._CHUNK:  # the redraw path runs
        assert any(_first_word_rejected(_trial_base(base, n, t), column, count) for t in trials)


@pytest.mark.parametrize("position", [0, 1, streams._CHUNK // 2, streams._CHUNK - 1])
def test_column_draw_redraws_a_single_rejected_lane(position):
    # trials chosen by the scalar rule: every first word kept but one, so a carry
    # test that misses a single lane leaves that lane's first-word index in place
    count, base, n, column = (1 << 63) + 1, random.Random(position).getrandbits(64), 5, 4
    kept, rejected = [], []
    for trial in itertools.count():
        if len(kept) >= streams._CHUNK - 1 and rejected:
            break
        rejected_here = _first_word_rejected(_trial_base(base, n, trial), column, count)
        (rejected if rejected_here else kept).append(trial)
    trials = kept[: streams._CHUNK - 1]
    trials.insert(position, rejected[0])
    seed = substream_seed(_trial_base(base, n, rejected[0]), column)
    word = streams._finalize((seed + streams._GAMMA) & _MASK64)
    drawn = _column_draw(trials, base, n, column, count)
    assert drawn == [uniform_index(substream_seed(_trial_base(base, n, t), column), count) for t in trials]
    assert drawn[position] != word * count >> 64


@settings(deadline=None)
@given(
    st.lists(st.integers(0, _MASK64), max_size=streams._CHUNK),
    st.integers(0, _MASK64),
    st.integers(1, 1 << 20),
    st.integers(0, 1 << 20),
    st.integers(1, 1 << 64),
)
def test_column_draw_is_the_scalar_draw(trials, base, n, column, count):
    column %= n
    expected = [uniform_index(substream_seed(_trial_base(base, n, t), column), count) for t in trials]
    assert _column_draw(trials, base, n, column, count) == expected


@settings(deadline=None)
@given(
    st.integers(),
    st.one_of(
        st.tuples(st.integers(1, 1 << 64), st.integers(0, 1100)).map(lambda pair: [pair[0]] * pair[1]),
        st.lists(st.integers(1, 1 << 200), max_size=1100),
    ),
)
# about half the lanes rejected, across the chunk boundary; the largest base the mask keeps
@example(0, [(1 << 63) + 1] * 1025)
@example((1 << 64) - 1, [3, (1 << 63) + 1, 1 << 64, (1 << 64) + 1])
def test_batch_draw_is_the_scalar_draw(base, counts):
    expected = [uniform_index(substream_seed(base, i), count) for i, count in enumerate(counts)]
    assert substream_indices(base, counts) == expected


def test_batch_lanes_keep_their_own_counts():
    # mixed counts, as the distinct master sequence draws; 2,100 lanes cross two chunks
    fuzz = random.Random(3)
    for lanes in (300, 2100):
        counts, base = [fuzz.choice(_COUNTS) for _ in range(lanes)], fuzz.getrandbits(64)
        expected = [uniform_index(substream_seed(base, salt), count) for salt, count in enumerate(counts)]
        assert substream_indices(base, counts) == expected


def test_batch_rejects_a_count_below_one_like_the_scalar_draw():
    with pytest.raises(ValueError):
        substream_indices(1, [3, 0])
    for count in (0, -1):
        with pytest.raises(ValueError):
            uniform_index(1, count)


# the chi-square 0.001 upper tail at count - 1 degrees of freedom
_CHI2_TAIL = {3: 13.82, 11: 29.59}


@pytest.mark.parametrize("count", sorted(_CHI2_TAIL))
def test_batch_draws_fill_every_bucket_evenly(count):
    lanes = 1000 * count
    draws = Counter(substream_indices(12345, [count] * lanes))
    assert sorted(draws) == list(range(count))
    chi2 = sum((observed - 1000) ** 2 / 1000 for observed in draws.values())
    assert chi2 < _CHI2_TAIL[count]
