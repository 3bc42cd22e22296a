"""Diagonal shape order and global function numbering."""

from __future__ import annotations

import copy
import itertools
import pickle
import sys
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given

from tabcomp import (
    ArityError,
    DomainError,
    FunctionIndex,
    FunctionTable,
    InvalidIndexError,
    RelationTable,
    ShapeError,
    TableDocument,
    TableShape,
    anti_diagonal,
    count_functions,
    diagonal_of_table,
    function_from_number,
    function_number,
    max_fn,
    successor,
    table_number,
    table_shape,
)
from tabcomp import enumeration

from strategies import indices, shapes

# First twelve shapes of the diagonal order, worked out by hand from the
# rule that diagonal j holds (j,1), (j-1,2), ..., (1,j).
FIRST_TWELVE_SHAPES = [
    (1, 1),
    (2, 1),
    (1, 2),
    (3, 1),
    (2, 2),
    (1, 3),
    (4, 1),
    (3, 2),
    (2, 3),
    (1, 4),
    (5, 1),
    (4, 2),
]


def test_max_fn_small_values():
    assert [max_fn(j) for j in range(6)] == [0, 1, 3, 6, 10, 15]
    assert max_fn(9) == 45


def test_max_fn_matches_recursion_unfold():
    # independent oracle: accumulate the recursion max(j) = max(j-1) + j
    accumulator = 0
    for j in range(1, 2001):
        accumulator += j
        assert max_fn(j) == accumulator


def test_max_fn_rejects_negative():
    with pytest.raises(DomainError):
        max_fn(-1)


def test_diagonal_of_table_small_values():
    assert [diagonal_of_table(i) for i in range(1, 11)] == [1, 2, 2, 3, 3, 3, 4, 4, 4, 4]
    assert diagonal_of_table(52) == 10


def test_diagonal_of_table_is_the_smallest_covering_diagonal():
    j = 1
    for i in range(1, 20_001):
        while max_fn(j) < i:
            j += 1
        assert diagonal_of_table(i) == j


@given(st.integers(2, 10**15))
def test_diagonal_of_table_at_diagonal_boundaries(j):
    # table max_fn(j) ends diagonal j; the one after it starts diagonal j + 1
    assert diagonal_of_table(max_fn(j) - 1) == j
    assert diagonal_of_table(max_fn(j)) == j
    assert diagonal_of_table(max_fn(j) + 1) == j + 1


def test_diagonal_of_table_rejects_non_positive():
    with pytest.raises(DomainError):
        diagonal_of_table(0)


def test_table_shape_small_values():
    assert [(table_shape(i).n, table_shape(i).m) for i in range(1, 13)] == FIRST_TWELVE_SHAPES
    assert table_shape(52) == TableShape(4, 7)


def test_table_shape_matches_double_loop_oracle():
    # independent oracle: generate the order directly with two loops
    expected = []
    for j in range(1, 31):
        for m in range(1, j + 1):
            expected.append(TableShape(j - m + 1, m))
    assert [table_shape(i) for i in range(1, max_fn(30) + 1)] == expected


def test_table_number_small_values():
    assert table_number(TableShape(1, 1)) == 1
    assert table_number(TableShape(2, 1)) == 2
    assert table_number(TableShape(4, 7)) == 52


@given(shapes(max_n=50, max_m=50))
def test_table_number_inverts_table_shape(shape):
    assert table_shape(table_number(shape)) == shape


@given(st.integers(min_value=1, max_value=10_000))
def test_table_shape_inverts_table_number(number):
    assert table_number(table_shape(number)) == number


def test_count_functions_values():
    assert count_functions(TableShape(1, 1)) == 2
    assert count_functions(TableShape(3, 3)) == 64
    assert count_functions(TableShape(4, 7)) == 4096


def test_function_number_first_values():
    one = FunctionIndex(TableShape(1, 1), (0,))
    two = FunctionIndex(TableShape(1, 1), (1,))
    seven = FunctionIndex(TableShape(1, 2), (0,))
    assert function_number(one) == 1
    assert function_number(two) == 2
    assert function_number(seven) == 7
    assert function_from_number(1) == one
    assert function_from_number(2) == two
    assert function_from_number(7) == seven


def test_function_number_worked_example():
    # shape (4,7) sits at table 52; tables 1..51 hold 292881 functions and
    # digits (1,2,4,7) read as 679 in base 8, so the number is 293561
    index = FunctionIndex(TableShape(4, 7), (1, 2, 4, 7))
    assert function_number(index) == 293561
    assert function_from_number(293561) == index


def test_function_numbering_is_gapless_over_early_tables():
    # every function of tables 1..12, generated independently
    numbers = []
    for table in range(1, 13):
        shape = table_shape(table)
        for digits in itertools.product(range(shape.m + 1), repeat=shape.n):
            numbers.append(function_number(FunctionIndex(shape, digits)))
    total = sum(count_functions(table_shape(i)) for i in range(1, 13))
    assert total == 207
    assert sorted(numbers) == list(range(1, total + 1))


def test_function_numbering_respects_digit_order_within_table():
    # within one table the numbering counts in base m+1, first digit most significant
    shape = TableShape(2, 2)
    start = function_number(FunctionIndex(shape, (0, 0)))
    ordered = [
        function_number(FunctionIndex(shape, digits))
        for digits in itertools.product(range(3), repeat=2)
    ]
    assert ordered == list(range(start, start + 9))


def _offset_by_walk(table):
    """The functions in tables 1..table-1, summed table by table: the oracle for the closed form."""
    return sum(count_functions(table_shape(i)) for i in range(1, table))


def test_closed_form_offset_equals_the_table_walk():
    for table in range(1, 401):
        assert enumeration._offset_before(table_shape(table)) == _offset_by_walk(table), table


def test_function_number_builds_no_table_of_the_walk(monkeypatch):
    # the number of the first function of a table is one past the largest of the table before
    cases = [(TableShape(200, 3), TableShape(201, 2)), (TableShape(1, 1200), TableShape(2, 1199))]
    largest = {before: function_number(FunctionIndex(before, (before.m,) * before.n)) for _, before in cases}

    def refuse(*_):
        raise AssertionError("function_number walked the tables")

    monkeypatch.setattr(enumeration, "table_shape", refuse)
    monkeypatch.setattr(enumeration, "count_functions", refuse)
    for shape, before in cases:
        assert function_number(FunctionIndex(shape, (0,) * shape.n)) == largest[before] + 1


def test_function_number_of_a_far_diagonal_is_fast():
    # the one function of table 1x1200 with digit 0: the walk summed the 720,599 tables before it
    start = time.perf_counter()
    function_number(FunctionIndex(TableShape(1, 1200), (0,)))
    assert time.perf_counter() - start < 1.0


@given(indices())
def test_function_number_round_trip(index):
    assert function_from_number(function_number(index)) == index


@given(st.integers(min_value=1, max_value=10**6))
def test_function_from_number_round_trip(number):
    assert function_number(function_from_number(number)) == number


def test_function_from_number_rejects_non_positive():
    with pytest.raises(DomainError):
        function_from_number(0)


def test_function_number_is_refused_exactly_past_the_limit():
    # at a 640-digit limit, 338x77 is the first shape whose largest number passes it while
    # every table on the diagonal before its own fits, so only the exact check refuses it
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert function_number(FunctionIndex(TableShape(337, 77), (77,) * 337)) < 10**640
        with pytest.raises(DomainError, match=r"^the result has more than 640 decimal digits$"):
            function_number(FunctionIndex(TableShape(338, 77), (77,) * 338))
    finally:
        sys.set_int_max_str_digits(saved)


def test_function_from_number_is_refused_exactly_past_the_limit():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        largest = 10**640 - 1
        assert function_number(function_from_number(largest)) == largest
        with pytest.raises(DomainError, match=r"^the result has more than 640 decimal digits$"):
            function_from_number(10**640)
    finally:
        sys.set_int_max_str_digits(saved)


def test_numbering_past_the_limit_is_refused_before_the_walk():
    # a walk to diagonal 3000 takes minutes, and one to the table of 10**limit tens of seconds
    limit = sys.get_int_max_str_digits()
    start = time.perf_counter()
    with pytest.raises(DomainError):
        function_number(FunctionIndex(TableShape(1, 3000), (0,)))
    with pytest.raises(DomainError):
        function_from_number(10**limit)
    assert time.perf_counter() - start < 1.0


def test_successor_counts_in_base_m_plus_one():
    shape = TableShape(2, 2)
    assert successor(FunctionIndex(shape, (0, 0))) == FunctionIndex(shape, (0, 1))
    assert successor(FunctionIndex(shape, (0, 2))) == FunctionIndex(shape, (1, 0))
    assert successor(FunctionIndex(shape, (2, 2))) is None


def test_successor_enumerates_whole_table():
    shape = TableShape(3, 2)
    index = FunctionIndex(shape, (0, 0, 0))
    seen = [index]
    while (index := successor(index)) is not None:
        seen.append(index)
    assert len(seen) == count_functions(shape)
    assert len(set(seen)) == len(seen)


@given(indices(max_n=6, max_m=6))
def test_successor_advances_function_number_by_one(index):
    following = successor(index)
    if following is None:
        assert index.digits == (index.shape.m,) * index.shape.n
    else:
        assert function_number(following) == function_number(index) + 1


def test_anti_diagonal_hand_cases():
    shape = TableShape(2, 2)
    empty = FunctionIndex(shape, (0, 0))
    ones = FunctionIndex(shape, (1, 1))
    assert anti_diagonal([empty, empty]).digits == (1, 1)
    assert anti_diagonal([ones, empty]).digits == (0, 1)
    assert anti_diagonal([FunctionIndex(TableShape(1, 1), (0,))]).digits == (1,)


@given(
    shapes(max_n=6, max_m=6).flatmap(
        lambda shape: st.lists(
            st.lists(
                st.integers(min_value=0, max_value=shape.m),
                min_size=shape.n,
                max_size=shape.n,
            ).map(lambda digits: FunctionIndex(shape, tuple(digits))),
            min_size=shape.n,
            max_size=shape.n,
        )
    )
)
def test_anti_diagonal_escapes_every_input(functions):
    result = anti_diagonal(functions)
    for position, fn in enumerate(functions):
        assert result.digits[position] != fn.digits[position]
    assert result not in functions


def test_anti_diagonal_rejects_wrong_count():
    shape = TableShape(3, 2)
    fn = FunctionIndex(shape, (0, 0, 0))
    with pytest.raises(ArityError):
        anti_diagonal([fn])
    with pytest.raises(ArityError):
        anti_diagonal([])


def test_anti_diagonal_rejects_mixed_shapes():
    with pytest.raises(ShapeError):
        anti_diagonal(
            [FunctionIndex(TableShape(2, 2), (0, 0)), FunctionIndex(TableShape(2, 3), (0, 0))]
        )


def test_shape_validation():
    with pytest.raises(ShapeError):
        TableShape(0, 1)
    with pytest.raises(ShapeError):
        TableShape(1, 0)
    with pytest.raises(ShapeError):
        TableShape(2, -3)
    with pytest.raises(ShapeError):
        TableShape(True, True)
    with pytest.raises(ShapeError):
        TableShape(2, True)


def test_index_validation():
    shape = TableShape(2, 3)
    with pytest.raises(InvalidIndexError):
        FunctionIndex(shape, (0,))
    with pytest.raises(InvalidIndexError):
        FunctionIndex(shape, (0, 4))
    with pytest.raises(InvalidIndexError):
        FunctionIndex(shape, (-1, 0))
    with pytest.raises(InvalidIndexError):
        FunctionIndex(shape, (True, 0))


def test_index_reads_as_natural_number():
    # digits (1,2,4,7) in base 8: ((1*8 + 2)*8 + 4)*8 + 7 = 679
    index = FunctionIndex(TableShape(4, 7), (1, 2, 4, 7))
    assert index.as_natural() == 679


# the four records of the CLI's import path: plain frozen classes that answer as frozen dataclasses
def _records():
    shape = TableShape(2, 3)
    function = FunctionTable(shape, [1, 0])
    relation = RelationTable(shape, [[1, 3], []])
    return [
        (shape, "TableShape(n=2, m=3)", (2, 3)),
        (function, "FunctionTable(shape=TableShape(n=2, m=3), marks=(1, 0))", (shape, (1, 0))),
        (
            relation,
            "RelationTable(shape=TableShape(n=2, m=3), columns=((1, 3), ()))",
            (shape, ((1, 3), ())),
        ),
        (
            TableDocument(function),
            "TableDocument(table=FunctionTable(shape=TableShape(n=2, m=3), marks=(1, 0)))",
            (function,),
        ),
    ]


@pytest.mark.parametrize("index", range(4), ids=["TableShape", "FunctionTable", "RelationTable", "TableDocument"])
def test_records_answer_as_frozen_dataclasses(index):
    record, text, fields = _records()[index]
    twin = _records()[index][0]
    assert repr(record) == text
    assert hash(record) == hash(fields)
    assert record == twin and record is not twin and not record != twin
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record
    name = next(iter(vars(record)))
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text


def test_records_of_two_classes_are_never_equal():
    shape = TableShape(2, 2)
    function = FunctionTable(shape, (1, 2))
    relation = RelationTable(shape, function.columns)
    assert function != relation and relation != function
    assert TableDocument(function) != function
    assert shape != (2, 2) and hash(shape) == hash((2, 2))


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: TableShape(0, 1), ShapeError, "argument count n must be a positive integer, got 0"),
        (lambda: TableShape(True, 1), ShapeError, "argument count n must be a positive integer, got True"),
        (lambda: TableShape(2, -3), ShapeError, "value count m must be a positive integer, got -3"),
        (lambda: FunctionTable(TableShape(2, 3), (0,)), InvalidIndexError, "expected 2 digits for shape 2x3, got 1"),
        (lambda: FunctionTable(TableShape(2, 3), (0, 4)), InvalidIndexError, "digit 4 at position 2 outside 0..3"),
        (lambda: FunctionTable(TableShape(2, 3), ("1", 0)), InvalidIndexError, "digit '1' at position 1 outside 0..3"),
        (lambda: RelationTable(TableShape(2, 3), [[1]]), ShapeError, "expected 2 columns for shape 2x3, got 1"),
        (
            lambda: RelationTable(TableShape(2, 3), [[1], [3, 2]]),
            ShapeError,
            "column 2 rows are not strictly ascending ints in 1..3",
        ),
    ],
)
def test_record_validation_messages(build, error, message):
    with pytest.raises(error) as refused:
        build()
    assert str(refused.value) == message
