"""Shared hypothesis strategies for shapes, function tables (indices), and relations, and the
generator stub that replays the trials of ``count_hits`` and the sweep."""

from __future__ import annotations

import hypothesis.strategies as st

from tabcomp import FunctionIndex, RelationTable, TableShape


def shapes(max_n: int = 8, max_m: int = 8) -> st.SearchStrategy[TableShape]:
    return st.builds(
        TableShape,
        n=st.integers(min_value=1, max_value=max_n),
        m=st.integers(min_value=1, max_value=max_m),
    )


def indices_of(shape: TableShape) -> st.SearchStrategy[FunctionIndex]:
    digit = st.integers(min_value=0, max_value=shape.m)
    return st.lists(digit, min_size=shape.n, max_size=shape.n).map(
        lambda digits: FunctionIndex(shape, tuple(digits))
    )


def indices(max_n: int = 8, max_m: int = 8) -> st.SearchStrategy[FunctionIndex]:
    return shapes(max_n, max_m).flatmap(indices_of)


def relations_of(shape: TableShape) -> st.SearchStrategy[RelationTable]:
    column = st.sets(st.integers(min_value=1, max_value=shape.m)).map(sorted)
    return st.lists(column, min_size=shape.n, max_size=shape.n).map(
        lambda columns: RelationTable(shape, tuple(columns))
    )


def relations(max_n: int = 8, max_m: int = 8) -> st.SearchStrategy[RelationTable]:
    return shapes(max_n, max_m).flatmap(relations_of)


class TrialBases:
    """A generator stub: its t-th ``getrandbits(64)`` is ``base + t * n * gamma`` mod 2**64, so
    ``sample_function`` on it replays the trials of ``count_hits`` (or of a sweep point) from
    ``base``, and ``calls`` counts the bases taken."""

    def __init__(self, base: int, n: int) -> None:
        self.base, self.step, self.calls = base, n * 0x9E3779B97F4A7C15, 0

    def getrandbits(self, bits: int) -> int:
        assert bits == 64
        self.calls += 1
        return (self.base + (self.calls - 1) * self.step) % 2**64
