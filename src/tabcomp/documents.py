"""Line-oriented text format for function and relation tables.

One document holds one table. The first line names shape and kind,
``table <n> <m> <function|relation>``. A function document continues with one
line of n space-separated digits, 0 for an unmarked column. A relation
document continues with one ``col <i>: <rows>`` line per column in order,
rows ascending and possibly empty. ``#`` starts a comment, blank lines are
skipped. A body is read in one pass: each line is checked once, the digit line
by ``FunctionTable``'s own rule. A line that fails is only explained: it is
re-read token by token, into no value, so that every parse error carries the
line and column of the offending token. Serialization is the exact inverse of
parsing. A relation column is held as the rows its line lists, so memory is
linear in the document's size.

A table with m up to 1024 reads and writes its numbers through one table of
the decimal texts of 0..1024; a token it lacks (``007``, a Unicode digit) takes
``decimal_value``, the rule it caches. Past 1024 int and str do all the work.
"""

from __future__ import annotations

import re
import sys
from typing import Literal

from .enumeration import FunctionTable, TableShape, _Record
from .errors import InvalidIndexError, ParseError
from .relations import RelationTable, _ascending_within, _sorted_relation

__all__ = ["TableDocument", "parse_table_document", "serialize_table_document"]

_TOKEN = re.compile(r"\S+")
_Token = tuple[str, int]
_Line = tuple[int, str]
# the canonical text of each value 0.._LARGEST, and the value of each such text
_LARGEST = 1024
_TEXTS = {value: str(value) for value in range(_LARGEST + 1)}
_VALUES = {text: value for value, text in _TEXTS.items()}


class TableDocument(_Record):
    """One parsed table, function or relation."""

    table: FunctionTable | RelationTable

    def __init__(self, table: FunctionTable | RelationTable) -> None:
        self.__dict__["table"] = table

    @property
    def shape(self) -> TableShape:
        return self.table.shape

    @property
    def kind(self) -> Literal["function", "relation"]:
        return "function" if isinstance(self.table, FunctionTable) else "relation"


def _significant_lines(text: str) -> list[_Line]:
    """(line number, body) of each line with a token, comments stripped."""
    lines: list[_Line] = []
    for number, body in enumerate(text.split("\n"), start=1):
        body = body.split("#", 1)[0] if "#" in body else body
        if body and not body.isspace():
            lines.append((number, body))
    return lines


def _tokens(body: str) -> list[_Token]:
    """The tokens of a line body with their 1-based columns."""
    return [(match.group(), match.start() + 1) for match in _TOKEN.finditer(body)]


def decimal_value(token: str) -> int:
    """The value of an ASCII decimal token: the one rule for numbers in documents and flags.

    Any other token raises ValueError; a token with more digits than int() converts
    (``sys.get_int_max_str_digits()``) raises its subclass ParseError.
    """
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"{token!r} is not a decimal integer")
    try:
        return int(token)
    except ValueError:  # worded as check_result_digits words the same limit
        raise ParseError(f"has more than {sys.get_int_max_str_digits()} decimal digits") from None


def _parse_int(token: str, line: int, column: int, what: str) -> int:
    try:
        return decimal_value(token)
    except ValueError as error:
        raise ParseError(f"{what} {error}", line=line, column=column) from None


def _reject_extra_lines(lines: list[_Line], used: int) -> None:
    if len(lines) > used:
        line_number, body = lines[used]
        raise ParseError(
            "unexpected content after table", line=line_number, column=_tokens(body)[0][1]
        )


def _parse_header(lines: list[_Line]) -> tuple[TableShape, str]:
    if not lines:
        raise ParseError(
            "empty document, expected 'table <n> <m> <function|relation>'", line=1, column=1
        )
    line_number, body = lines[0]
    tokens = _tokens(body)
    keyword, column = tokens[0]
    if keyword != "table":
        raise ParseError(f"expected 'table', got {keyword!r}", line=line_number, column=column)
    if len(tokens) < 4:
        raise ParseError(
            "expected '<n> <m> <function|relation>' after 'table'",
            line=line_number,
            column=column,
        )
    if len(tokens) > 4:
        extra, extra_column = tokens[4]
        raise ParseError(
            f"unexpected token {extra!r} after table kind", line=line_number, column=extra_column
        )
    n = _parse_int(tokens[1][0], line_number, tokens[1][1], "argument count")
    m = _parse_int(tokens[2][0], line_number, tokens[2][1], "value count")
    if n < 1:
        raise ParseError("argument count must be at least 1", line=line_number, column=tokens[1][1])
    if m < 1:
        raise ParseError("value count must be at least 1", line=line_number, column=tokens[2][1])
    kind, kind_column = tokens[3]
    if kind not in ("function", "relation"):
        raise ParseError(
            f"table kind must be 'function' or 'relation', got {kind!r}",
            line=line_number,
            column=kind_column,
        )
    return TableShape(n, m), kind


def _parse_function_body(lines: list[_Line], shape: TableShape) -> FunctionTable:
    header_line = lines[0][0]
    if len(lines) < 2:
        raise ParseError(
            f"expected a line of {shape.n} digits", line=header_line + 1, column=1
        )
    line_number, body = lines[1]
    # FunctionTable's rule, n digits each in 0..m, accepts the digit line; a line it refuses is
    # only explained: re-read token by token, it raises at its first bad token
    try:
        table = FunctionTable(shape, _decimal_values(body.split(), shape.m) or ())
    except InvalidIndexError:
        tokens = _tokens(body)
        if len(tokens) != shape.n:
            column = tokens[shape.n][1] if len(tokens) > shape.n else tokens[0][1]
            raise ParseError(
                f"expected {shape.n} digits, got {len(tokens)}", line=line_number, column=column
            ) from None
        for token, column in tokens:
            if (digit := _parse_int(token, line_number, column, "digit")) > shape.m:
                raise ParseError(
                    f"digit {digit} exceeds value count {shape.m}", line=line_number, column=column
                ) from None
    _reject_extra_lines(lines, 2)
    return table


def _explain_rows(line_number: int, body: str, index: int, m: int) -> None:
    """Raise the positioned ParseError of column ``index``'s refused line at its first bad token."""
    tokens = _tokens(body)
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
    previous = 0
    for token, token_column in tokens[2:]:
        row = _parse_int(token, line_number, token_column, "row")
        if not 1 <= row <= m:
            raise ParseError(f"row {row} outside 1..{m}", line=line_number, column=token_column)
        if row <= previous:
            raise ParseError(
                f"rows must be strictly ascending, got {row} after {previous}",
                line=line_number,
                column=token_column,
            )
        previous = row


def _decimal_values(words: list[str], m: int) -> list[int] | None:
    """Each word's ``decimal_value`` by C-level steps; None if one fails.

    The decimal table comes first where it holds every value 0..m."""
    if m <= _LARGEST:
        try:
            return list(map(_VALUES.__getitem__, words))
        except KeyError:  # a word the table lacks: the rule it caches
            pass
    digits = "".join(words)
    if digits and not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return list(map(int, words))
    except ValueError:  # more digits than int() converts
        return None


def _parse_relation_body(lines: list[_Line], shape: TableShape) -> RelationTable:
    # one pass: each line is checked once by C-level steps, and a line that fails them is only
    # explained: re-read token by token, it raises at its first bad token; extra lines come last
    columns = []
    for index in range(1, shape.n + 1):
        if len(lines) < index + 1:
            raise ParseError(f"expected 'col {index}:' line", line=lines[-1][0] + 1, column=1)
        words = lines[index][1].split()
        rows = _decimal_values(words[2:], shape.m) if words[:2] == ["col", f"{index}:"] else None
        if rows is None or not _ascending_within(rows, shape.m):
            _explain_rows(*lines[index], index, shape.m)
        columns.append(rows)
    _reject_extra_lines(lines, shape.n + 1)
    return _sorted_relation(shape, columns)


def parse_table_document(text: str | bytes) -> TableDocument:
    """Parse one document; malformed input raises a positioned ParseError."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ParseError(f"document is not UTF-8: {error}") from None
    lines = _significant_lines(text)
    shape, kind = _parse_header(lines)
    if kind == "function":
        return TableDocument(_parse_function_body(lines, shape))
    return TableDocument(_parse_relation_body(lines, shape))


def decimal_line(values: tuple[int, ...], top: int) -> str:
    """The values' texts as str writes them, space-separated: the writer of every number.

    The decimal table comes first where it holds every value 0..top, their expected range."""
    if top <= _LARGEST:
        try:
            return " ".join(map(_TEXTS.__getitem__, values))
        except KeyError:  # a value outside 0..top after all
            pass
    return " ".join(str(value) for value in values)


def serialize_table_document(document: TableDocument) -> str:
    """Canonical text for a document; parsing it back yields an equal document."""
    table = document.table
    shape = table.shape
    lines = [f"table {shape.n} {shape.m} {document.kind}"]
    if isinstance(table, FunctionTable):
        lines.append(decimal_line(table.marks, shape.m))
    else:
        for index, rows in enumerate(table.columns, start=1):
            lines.append(f"col {index}: {decimal_line(rows, shape.m)}" if rows else f"col {index}:")
    return "\n".join(lines) + "\n"
