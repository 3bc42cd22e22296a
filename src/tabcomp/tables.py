"""Inspection-based evaluation of function tables, and their identity codec.

A function table is its digit string (``enumeration.FunctionTable``): one small
integer per column, 0 = unmarked; the n×m grid is a view. Evaluation reads the
marked row of a column, inversion reads the marked columns of a row.
"""

from __future__ import annotations

from typing import Literal

from .enumeration import FunctionTable, TableShape
from .errors import DomainError

__all__ = ["encode", "decode", "evaluate", "inverse_evaluate"]


def encode(table: FunctionTable) -> FunctionTable:
    """Index of a function table: the table itself (digit i is column i's marked row, or 0)."""
    return table


def decode(index: FunctionTable) -> FunctionTable:
    """Table of a function index: the index itself; inverse of encode."""
    return index


def check_position(position: int, shape: TableShape, axis: Literal["argument", "value"]) -> None:
    """Reject an argument outside columns 1..n or a value outside rows 1..m."""
    limit, unit = (shape.n, "columns") if axis == "argument" else (shape.m, "rows")
    if type(position) is not int or not 1 <= position <= limit:
        raise DomainError(f"{axis} {position!r} outside {unit} 1..{limit}")


def evaluate(table: FunctionTable, argument: int) -> int | None:
    """Value at an argument: the marked row of its column, or None when unmarked.

    Inspects exactly one column.
    """
    check_position(argument, table.shape, "argument")
    row = table.marks[argument - 1]
    return row if row != 0 else None


def inverse_evaluate(table: FunctionTable, value: int) -> tuple[int, ...]:
    """All arguments mapping to a value: the marked columns of its row, ascending.

    Inspects each column of the row once; the preimage may be empty or contain
    several columns.
    """
    check_position(value, table.shape, "value")
    return tuple(
        column for column, row in enumerate(table.marks, start=1) if row == value
    )
