"""Function tables: codec with digit strings, lookup, inverse lookup."""

from __future__ import annotations

import pytest
from hypothesis import given

from tabcomp import (
    DomainError,
    FunctionIndex,
    FunctionTable,
    InvalidIndexError,
    TableShape,
    decode,
    encode,
    evaluate,
    inverse_evaluate,
)

from strategies import indices


class CountingMarks(tuple):
    """Mark tuple that counts element accesses, for operation-count probes."""

    accesses = 0

    def __getitem__(self, item):
        CountingMarks.accesses += 1
        return tuple.__getitem__(self, item)

    def __iter__(self):
        for element in tuple.__iter__(self):
            CountingMarks.accesses += 1
            yield element


def _with_counting_marks(table: FunctionTable) -> FunctionTable:
    # swap in the instrumented tuple after validation has run
    object.__setattr__(table, "marks", CountingMarks(table.marks))
    CountingMarks.accesses = 0
    return table


def test_worked_example_round_trip():
    index = FunctionIndex(TableShape(4, 7), (1, 2, 4, 7))
    table = decode(index)
    assert table.marks == (1, 2, 4, 7)
    assert encode(table) == index
    assert [evaluate(table, argument) for argument in (1, 2, 3, 4)] == [1, 2, 4, 7]
    assert inverse_evaluate(table, 7) == (4,)


def test_partial_function_round_trip():
    index = FunctionIndex(TableShape(2, 2), (2, 0))
    table = decode(index)
    assert not table.is_total
    assert evaluate(table, 1) == 2
    assert evaluate(table, 2) is None
    assert encode(table) == index


def test_empty_and_total_flags():
    assert not FunctionTable(TableShape(3, 2), (0, 0, 0)).is_total
    assert FunctionTable(TableShape(3, 2), (1, 2, 1)).is_total


def test_a_table_is_its_index():
    table = FunctionTable(TableShape(4, 7), [1, 2, 4, 7])
    assert FunctionIndex is FunctionTable
    assert table.marks == (1, 2, 4, 7)
    assert table.digits is table.marks


@given(indices())
def test_decode_inverts_encode(index):
    assert decode(index) is index
    assert encode(decode(index)) == index


@given(indices())
def test_encode_inverts_decode(table):
    assert encode(table) is table
    assert decode(encode(table)) == table


@given(indices())
def test_evaluate_reads_the_marked_row(table):
    for argument in range(1, table.shape.n + 1):
        row = table.marks[argument - 1]
        assert evaluate(table, argument) == (row if row != 0 else None)


@given(indices(max_n=6, max_m=6))
def test_inverse_evaluate_agrees_with_evaluate(table):
    for value in range(1, table.shape.m + 1):
        preimage = inverse_evaluate(table, value)
        assert list(preimage) == sorted(preimage)
        for argument in range(1, table.shape.n + 1):
            assert (argument in preimage) == (evaluate(table, argument) == value)


def test_inverse_evaluate_multiple_and_empty_preimages():
    table = FunctionTable(TableShape(4, 3), (2, 0, 2, 1))
    assert inverse_evaluate(table, 2) == (1, 3)
    assert inverse_evaluate(table, 3) == ()


def test_evaluate_inspects_exactly_one_column():
    table = _with_counting_marks(FunctionTable(TableShape(5, 5), (1, 2, 3, 4, 5)))
    assert evaluate(table, 3) == 3
    assert CountingMarks.accesses == 1


def test_inverse_evaluate_inspects_each_column_at_most_once():
    table = _with_counting_marks(FunctionTable(TableShape(5, 5), (1, 2, 3, 4, 5)))
    assert inverse_evaluate(table, 4) == (4,)
    assert CountingMarks.accesses <= table.shape.n


def test_evaluate_rejects_arguments_outside_columns():
    table = FunctionTable(TableShape(2, 2), (1, 2))
    with pytest.raises(DomainError, match=r"^argument 0 outside columns 1\.\.2$"):
        evaluate(table, 0)
    with pytest.raises(DomainError, match=r"^argument 3 outside columns 1\.\.2$"):
        evaluate(table, 3)


def test_inverse_evaluate_rejects_values_outside_rows():
    table = FunctionTable(TableShape(2, 2), (1, 2))
    with pytest.raises(DomainError, match=r"^value 0 outside rows 1\.\.2$"):
        inverse_evaluate(table, 0)
    with pytest.raises(DomainError, match=r"^value 3 outside rows 1\.\.2$"):
        inverse_evaluate(table, 3)


def test_table_validation():
    shape = TableShape(2, 3)
    with pytest.raises(InvalidIndexError):
        FunctionTable(shape, (1,))
    with pytest.raises(InvalidIndexError):
        FunctionTable(shape, (1, 4))
    with pytest.raises(InvalidIndexError):
        FunctionTable(shape, (1, -1))
    with pytest.raises(InvalidIndexError):
        FunctionTable(shape, (1, True))
