"""Extensional function tables and their inspection-based evaluation.

A function table marks at most one cell per argument column; evaluation reads
the marked row of a column, inversion reads the marked columns of a row.
Storage is one small integer per column (0 = unmarked); the n×m grid is a
view, not the representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .enumeration import FunctionIndex, TableShape, checked_digits
from .errors import DomainError

__all__ = ["FunctionTable", "encode", "decode", "evaluate", "inverse_evaluate"]


@dataclass(frozen=True)
class FunctionTable:
    """A possibly partial finite discrete function of shape (n, m).

    ``marks[i]`` is the marked row (1..m) of column i+1, or 0 when column i+1
    has no marked cell.
    """

    shape: TableShape
    marks: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "marks", checked_digits(self.shape, self.marks))

    @property
    def is_total(self) -> bool:
        return all(row != 0 for row in self.marks)

    @property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The table as a relation's columns: each column's marked row, or no row."""
        return tuple((row,) if row else () for row in self.marks)


def encode(table: FunctionTable) -> FunctionIndex:
    """Index of a function table: digit i is the marked row of column i, or 0."""
    return FunctionIndex(table.shape, table.marks)


def decode(index: FunctionIndex) -> FunctionTable:
    """Table of a function index; inverse of encode."""
    return FunctionTable(index.shape, index.digits)


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
