"""Document grammar: parsing, serialization, positioned errors."""

from __future__ import annotations

import re
import sys
import time
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from tabcomp import (
    FunctionTable,
    ParseError,
    RelationTable,
    TableDocument,
    TableShape,
    documents,
    parse_table_document,
    serialize_table_document,
)

from strategies import indices, relations


def test_parse_function_document():
    document = parse_table_document("table 4 7 function\n1 2 4 7")
    assert document.kind == "function"
    assert document.shape == TableShape(4, 7)
    assert document.table.marks == (1, 2, 4, 7)


def test_parse_relation_document():
    document = parse_table_document("table 2 2 relation\ncol 1: 1 2\ncol 2: 1 2")
    assert document.kind == "relation"
    assert document.table.columns == ((1, 2), (1, 2))


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
    assert tuple(map(len, document.table.columns)) == (0, 1, 0)


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
    assert _position_of("table 2 2 relation\ncol\ncol 2:") == (2, 1)
    with pytest.raises(ParseError) as caught:
        parse_table_document("table 2 2 relation\ncol\ncol 2:")
    assert str(caught.value) == "line 2, column 1: expected column index '1:' after 'col'"
    assert _position_of("table 2 2 relation\ncol 2: 1\ncol 1:") == (2, 5)
    assert _position_of("table 2 2 relation\ncol 1: 3\ncol 2:") == (2, 8)
    assert _position_of("table 2 2 relation\ncol 1: 2 1\ncol 2:") == (2, 10)
    assert _position_of("table 2 2 relation\ncol 1: 1 1\ncol 2:") == (2, 10)
    assert _position_of("table 2 2 relation\ncol 1: 1") == (3, 1)


def test_number_past_the_int_digit_limit_is_malformed():
    # int() refuses more digits than sys.get_int_max_str_digits() (4300 by default)
    assert _position_of("table " + "1" * 5000 + " 2 relation\ncol 1:\n") == (1, 7)
    assert _position_of("table 1 2 function\n" + "0" * 5000) == (2, 1)


def _peak_bytes(call):
    """The tracemalloc peak while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("row", ["200000000", "999999999999"])
def test_high_rows_parse_within_1_mb(row):
    # a column holds the rows it lists, not a bit per row up to the highest
    text = f"table 1 {10**30} relation\ncol 1: {row}\n"
    parsed = []
    assert _peak_bytes(lambda: parsed.append(parse_table_document(text))) <= 1 << 20
    assert parsed[0].table.columns == ((int(row),),)


def test_highest_rows_are_not_summed_over_columns():
    half = 2**25
    text = f"table 2 {2 * half} relation\ncol 1: 1 {half}\ncol 2: 3 {half}\n"
    assert tuple(map(len, parse_table_document(text).table.columns)) == (2, 2)
    past = parse_table_document(text.replace(f"3 {half}", f"3 {half + 1}"))
    assert past.table.columns == ((1, half), (3, half + 1))
    # only the malformed row is an error, however high the rows before it
    assert _position_of(f"table 1 {10**30} relation\ncol 1: 1 {2 * half} {2 * half + 1} 0\n") == (2, 28)


def test_a_column_of_2000_high_rows_parses_and_serializes_in_linear_time():
    # 18 KB; a bit per row up to the highest took 4 s to parse and 21 s to serialize
    rows = " ".join(map(str, range(2**26 - 1999, 2**26 + 1)))
    text = f"table 1 {2**26} relation\ncol 1: {rows}\n"
    started = time.perf_counter()
    document = parse_table_document(text)
    assert serialize_table_document(document) == text
    assert time.perf_counter() - started < 2


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


def _token_by_token_relation_body(lines, shape):
    """The relation grammar checked one token at a time: the oracle for the
    per-line checks of ``documents._parse_relation_body``, which re-reads a
    refused line only to explain it, never into a value. ``lines`` hold
    (line number, [(token, 1-based column), ...]) pairs."""
    columns = []
    for index in range(1, shape.n + 1):
        if len(lines) < index + 1:
            raise ParseError(f"expected 'col {index}:' line", line=lines[-1][0] + 1, column=1)
        line_number, tokens = lines[index]
        keyword, column = tokens[0]
        if keyword != "col":
            raise ParseError(f"expected 'col', got {keyword!r}", line=line_number, column=column)
        if len(tokens) < 2:
            raise ParseError(
                f"expected column index '{index}:' after 'col'", line=line_number, column=column
            )
        label, label_column = tokens[1]
        if label != f"{index}:":
            raise ParseError(
                f"expected '{index}:', got {label!r}", line=line_number, column=label_column
            )
        rows = []
        for token, token_column in tokens[2:]:
            row = documents._parse_int(token, line_number, token_column, "row")
            if not 1 <= row <= shape.m:
                raise ParseError(
                    f"row {row} outside 1..{shape.m}", line=line_number, column=token_column
                )
            if rows and row <= rows[-1]:
                raise ParseError(
                    f"rows must be strictly ascending, got {row} after {rows[-1]}",
                    line=line_number,
                    column=token_column,
                )
            rows.append(row)
        columns.append(rows)
    if len(lines) > shape.n + 1:
        line_number, tokens = lines[shape.n + 1]
        raise ParseError("unexpected content after table", line=line_number, column=tokens[0][1])
    return RelationTable.from_rows(shape, columns)


def _token_by_token_function_body(lines, shape):
    """The function grammar checked one token at a time: the oracle for
    ``documents._parse_function_body``, where ``FunctionTable``'s own rule
    accepts the digit line and a refused line is only explained; ``lines`` as above."""
    if len(lines) < 2:
        raise ParseError(f"expected a line of {shape.n} digits", line=lines[0][0] + 1, column=1)
    line_number, tokens = lines[1]
    if len(tokens) != shape.n:
        column = tokens[shape.n][1] if len(tokens) > shape.n else tokens[0][1]
        raise ParseError(
            f"expected {shape.n} digits, got {len(tokens)}", line=line_number, column=column
        )
    marks = []
    for token, column in tokens:
        digit = documents._parse_int(token, line_number, column, "digit")
        if digit > shape.m:
            raise ParseError(
                f"digit {digit} exceeds value count {shape.m}", line=line_number, column=column
            )
        marks.append(digit)
    if len(lines) > 2:
        line_number, tokens = lines[2]
        raise ParseError("unexpected content after table", line=line_number, column=tokens[0][1])
    return FunctionTable(shape, tuple(marks))


def _token_by_token_parse(text):
    token_lines = []
    for number, raw in enumerate(text.split("\n"), start=1):
        body = raw.split("#", 1)[0]
        tokens = [(match.group(), match.start() + 1) for match in re.finditer(r"\S+", body)]
        if tokens:
            token_lines.append((number, tokens))
    shape, kind = documents._parse_header(documents._significant_lines(text))
    if kind == "function":
        return TableDocument(_token_by_token_function_body(token_lines, shape))
    return TableDocument(_token_by_token_relation_body(token_lines, shape))


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as error:
        return str(error), error.line, error.column


_SEPARATORS = st.lists(
    st.sampled_from([" ", "\t", "\r", "\x1c", "\xa0", "\u3000"]), min_size=1, max_size=2
).map("".join)
# past sys.get_int_max_str_digits(), int() refuses the token
_ODD_ROWS = ["007", "\u0661", "\u00b2", "x", "1" * (sys.get_int_max_str_digits() + 1)]
_SMALL_COUNTS = st.integers(1, 12)
# value counts about 1024, the last value in the documents' decimal table: the
# table serves m up to 1024, and rows and digits fall on both sides of it
_COUNTS_ABOUT_1024 = st.integers(1023, 1026)


def _values(m):
    """Rows 1..m; past 12, the low ones and the top few, which for m near 1024 straddle it."""
    return st.integers(1, m) if m <= 12 else st.integers(1, 12) | st.integers(m - 5, m)


def _line(draw, tokens):
    """A line of tokens with odd separators, leading blanks and a trailing comment."""
    line = draw(st.sampled_from(["", " ", "\t"]))
    for token in tokens:
        line += token + draw(_SEPARATORS)
    return line + draw(st.sampled_from(["", "# note", "#1 2"]))


@st.composite
def relation_texts(draw, value_counts=_SMALL_COUNTS):
    """Relation documents, mostly well formed, with the ways a line can go wrong:
    odd separators, comments, blank lines, bad labels, rows 0 and m + 1, Unicode
    digits, descending and repeated rows, huge tokens, missing and extra lines."""
    n, m = draw(st.integers(1, 4)), draw(value_counts)
    lines = [f"table {n} {m} relation"]
    for index in range(1, n + 1 + draw(st.sampled_from([0, 0, 0, -1, 1]))):
        rows = [str(row) for row in sorted(draw(st.sets(_values(m), max_size=6)))]
        fault = draw(st.integers(0, 9))
        if fault == 1:
            rows.insert(0, "0")
        elif fault == 2:
            rows.append(str(m + 1))
        elif fault == 3:
            rows += rows[-1:]
        elif fault == 4:
            rows.reverse()
        elif fault == 5:
            rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(_ODD_ROWS)))
        head = ["col", f"{index}:"]
        if fault == 6:
            head = draw(st.sampled_from([[], ["col"], ["row", f"{index}:"], ["col", f"{index + 1}:"]]))
        lines.append(_line(draw, head + rows))
        lines += draw(st.lists(st.sampled_from(["", "\u3000", "# comment"]), max_size=1))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@st.composite
def function_texts(draw):
    """Function documents, mostly well formed, with the ways the digit line can
    go wrong: digit m + 1, ``007``, Unicode digits, huge tokens, a digit too few
    or too many, and a line after it. Some value counts lie about 1024."""
    n, m = draw(st.integers(1, 4)), draw(_SMALL_COUNTS | _COUNTS_ABOUT_1024)
    digits = [str(digit) for digit in draw(st.lists(st.just(0) | _values(m), min_size=n, max_size=n))]
    fault = draw(st.integers(0, 7))
    if fault == 1:
        digits[draw(st.integers(0, n - 1))] = str(m + 1)
    elif fault == 2:
        digits[draw(st.integers(0, n - 1))] = draw(st.sampled_from(_ODD_ROWS))
    elif fault == 3:
        digits.pop(draw(st.integers(0, n - 1)))
    elif fault == 4:
        digits.insert(draw(st.integers(0, n)), str(draw(_values(m))))
    lines = [f"table {n} {m} function", _line(draw, digits)]
    lines += draw(st.lists(st.sampled_from(["", "\u3000", "# comment"]), max_size=1))
    if fault == 5:
        lines.append(draw(st.sampled_from(["0", "1 2", "col 1:", "1025"])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@given(relation_texts())
@example("table 1 3 relation\ncol 1: 2 2\n")
@example("table 1 3 relation\ncol 1: \u0661\n")
@example("table 2 9 relation\ncol 1: 1 5\ncol 2: 6\n")
# a row out of order on line 2 is reported before the bad label on line 3
@example("table 2 9 relation\ncol 1: 5 1\nrow 2: 6\n")
# one-line bodies, so the line's C-level check is what refuses the row or passes the column
@example("table 1 9 relation\ncol 1: 0 5\n")
@example("table 1 9 relation\ncol 1: 5 10\n")
@example("table 1 9 relation\ncol 1: 5 1\n")
@example("table 1 9 relation\ncol 1:\n")
@settings(max_examples=400)
def test_relation_parser_matches_token_by_token_parse(text):
    assert _outcome(parse_table_document, text) == _outcome(_token_by_token_parse, text)


@given(relation_texts(_COUNTS_ABOUT_1024))
# rows on both sides of the decimal table's last value, and one past m
@example("table 2 1026 relation\ncol 1: 1023 1024 1025 1026\ncol 2: 007 1024\n")
@example("table 1 1024 relation\ncol 1: 1023 1025\n")
@settings(max_examples=200)
def test_relation_parser_matches_token_by_token_parse_about_1024(text):
    assert _outcome(parse_table_document, text) == _outcome(_token_by_token_parse, text)


@given(function_texts())
@example("table 3 1100 function\n1025 0 1024\n")
@example("table 2 1024 function\n1024 1025\n")
@example("table 1 9 function\n007\n")
@example("table 1 9 function\n\u0661\n")
@example("table 2 9 function\n1 2\n0\n")
# a faulty digit line is reported before the extra line after it
@example("table 2 9 function\n1 10\n0\n")
@example("table 2 9 function\n1\n0\n")
@settings(max_examples=400)
def test_function_parser_matches_token_by_token_parse(text):
    assert _outcome(parse_table_document, text) == _outcome(_token_by_token_parse, text)


@given(st.lists(st.integers(-2000, 2000) | st.integers(), max_size=6).map(tuple), st.integers(0, 2000))
@example((-1,), 5)
@example((-1025, 3), 1024)
@example((1025, 0), 1024)
def test_decimal_line_writes_what_str_writes(values, top):
    # values outside 0..top included: the decimal table never picks wrong text
    assert documents.decimal_line(values, top) == " ".join(map(str, values))


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


@given(indices())
def test_function_documents_round_trip(table):
    document = TableDocument(table)
    assert parse_table_document(serialize_table_document(document)) == document


@given(relations())
def test_relation_documents_round_trip(relation):
    document = TableDocument(relation)
    assert parse_table_document(serialize_table_document(document)) == document


def test_document_views():
    relation = RelationTable(TableShape(2, 5), ((), ()))
    document = TableDocument(relation)
    assert document.kind == "relation"
    assert document.shape == TableShape(2, 5)
