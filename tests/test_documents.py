"""Document grammar: parsing, serialization, positioned errors."""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given

from tabcomp import (
    FunctionTable,
    ParseError,
    RelationTable,
    TableDocument,
    TableShape,
    parse_table_document,
    serialize_table_document,
)

from strategies import relations, tables


def test_parse_function_document():
    document = parse_table_document("table 4 7 function\n1 2 4 7")
    assert document.kind == "function"
    assert document.shape == TableShape(4, 7)
    assert document.table.marks == (1, 2, 4, 7)


def test_parse_relation_document():
    document = parse_table_document("table 2 2 relation\ncol 1: 1 2\ncol 2: 1 2")
    assert document.kind == "relation"
    assert document.table.rows_by_column == ((1, 2), (1, 2))


def test_parse_accepts_bytes():
    document = parse_table_document(b"table 1 1 function\n0\n")
    assert document.table.marks == (0,)


def test_parse_rejects_non_utf8_bytes():
    with pytest.raises(ParseError):
        parse_table_document(b"table 1 1 function\n\xff\n")


def test_comments_and_blank_lines_are_ignored():
    text = """
    # a stored pairing
    table 2 3 function   # shape first

    2 0  # second argument undefined
    """
    document = parse_table_document(text)
    assert document.table.marks == (2, 0)


def test_empty_relation_columns_are_allowed():
    document = parse_table_document("table 3 2 relation\ncol 1:\ncol 2: 2\ncol 3:\n")
    assert document.table.mark_counts == (0, 1, 0)


def _position_of(text: str) -> tuple[int | None, int | None]:
    with pytest.raises(ParseError) as caught:
        parse_table_document(text)
    return caught.value.line, caught.value.column


def test_digit_above_value_count_is_positioned():
    assert _position_of("table 2 2 function\n3 0") == (2, 1)


def test_error_positions_report_the_offending_token():
    assert _position_of("") == (1, 1)
    assert _position_of("grid 2 2 function\n0 0") == (1, 1)
    assert _position_of("table x 2 function\n0 0") == (1, 7)
    assert _position_of("table 2 0 function\n0 0") == (1, 9)
    assert _position_of("table 2 2 matrix\n0 0") == (1, 11)
    assert _position_of("table 2 2 function extra\n0 0") == (1, 20)
    assert _position_of("table 2 2 function\n0 0 0") == (2, 5)
    assert _position_of("table 2 2 function\n0") == (2, 1)
    assert _position_of("table 2 2 function") == (2, 1)
    assert _position_of("table 2 2 function\n0 0\n1 1") == (3, 1)
    assert _position_of("table 2 2 relation\nrow 1: 1\ncol 2:") == (2, 1)
    assert _position_of("table 2 2 relation\ncol 2: 1\ncol 1:") == (2, 5)
    assert _position_of("table 2 2 relation\ncol 1: 3\ncol 2:") == (2, 8)
    assert _position_of("table 2 2 relation\ncol 1: 2 1\ncol 2:") == (2, 10)
    assert _position_of("table 2 2 relation\ncol 1: 1 1\ncol 2:") == (2, 10)
    assert _position_of("table 2 2 relation\ncol 1: 1") == (3, 1)


def test_number_past_the_int_digit_limit_is_malformed():
    # int() refuses more digits than sys.get_int_max_str_digits() (4300 by default)
    assert _position_of("table " + "1" * 5000 + " 2 relation\ncol 1:\n") == (1, 7)
    assert _position_of("table 1 2 function\n" + "0" * 5000) == (2, 1)


@given(st.text() | st.binary())
def test_arbitrary_input_raises_only_parse_error(data):
    try:
        parse_table_document(data)
    except ParseError:
        pass


# document-shaped token soup, every number at most 2 digits, to get past the header
_TOKENS = ["table", "function", "relation", "col", "1:", "2:", "#", "\n", " ", "x", "\uff11"]


@given(st.lists(st.sampled_from(_TOKENS) | st.integers(0, 99).map(str), max_size=30))
def test_document_shaped_input_raises_only_parse_error(tokens):
    try:
        parse_table_document(" ".join(tokens))
    except ParseError:
        pass


def test_error_position_is_in_the_message():
    with pytest.raises(ParseError, match="line 2, column 1"):
        parse_table_document("table 2 2 function\n3 0")


def test_serialize_function_document():
    table = FunctionTable(TableShape(4, 7), (1, 2, 4, 7))
    assert serialize_table_document(TableDocument(table)) == "table 4 7 function\n1 2 4 7\n"


def test_serialize_relation_document():
    relation = RelationTable.from_rows(TableShape(3, 2), [[1, 2], [], [2]])
    expected = "table 3 2 relation\ncol 1: 1 2\ncol 2:\ncol 3: 2\n"
    assert serialize_table_document(TableDocument(relation)) == expected


@given(tables())
def test_function_documents_round_trip(table):
    document = TableDocument(table)
    assert parse_table_document(serialize_table_document(document)) == document


@given(relations())
def test_relation_documents_round_trip(relation):
    document = TableDocument(relation)
    assert parse_table_document(serialize_table_document(document)) == document


def test_document_views():
    relation = RelationTable.empty(TableShape(2, 5))
    document = TableDocument(relation)
    assert document.kind == "relation"
    assert document.shape == TableShape(2, 5)
