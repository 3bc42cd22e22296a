"""Shared hypothesis strategies for shapes, function tables (indices), and relations."""

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
