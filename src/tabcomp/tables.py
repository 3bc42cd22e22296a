"""Inspection-based evaluation of function tables, and their identity codec.

A function table is its digit string (``enumeration.FunctionTable``): one small
integer per column, 0 = unmarked; the n×m grid is a view. Evaluation reads the
marked row of a column; inversion is the relation lookup, since a function
table is the relation with at most one mark per column.
"""

from __future__ import annotations

from .enumeration import FunctionTable, check_position
from .relations import inverse_evaluate_relation

__all__ = ["encode", "decode", "evaluate", "inverse_evaluate"]


def encode(table: FunctionTable) -> FunctionTable:
    """Index of a function table: the table itself (digit i is column i's marked row, or 0)."""
    return table


def decode(index: FunctionTable) -> FunctionTable:
    """Table of a function index: the index itself; inverse of encode."""
    return index


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
    return inverse_evaluate_relation(table, value)
