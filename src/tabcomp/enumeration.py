"""Global enumeration of finite discrete functions over a diagonal order of shapes.

A finite discrete function maps n positional arguments to at most one of m
positional values. Each such function is identified within its n×m table by a
digit string k = k_1...k_n in base m+1: k_i = j records that argument i maps
to value j, and k_i = 0 records that the function is undefined at argument i.
That string is the function's table, ``FunctionTable`` (alias ``FunctionIndex``).
A table of shape (n, m) therefore holds exactly (m+1)^n total and partial
functions, from the empty function (all zeros) to the maximal one (all m's).

Table shapes are arranged along diagonals of constant n + m - 1: diagonal j
holds the j shapes (j,1), (j-1,2), ..., (1,j), numbered consecutively across
diagonals, so shape-to-number and number-to-shape are exact inverses
(``table_number`` / ``table_shape``). Prepending the function counts of all
earlier tables to a function's within-table position yields a gapless 1-based
numbering of every finite discrete function across all shapes
(``function_number`` / ``function_from_number``).
"""

from __future__ import annotations

import math
from itertools import count
from typing import Iterable, Literal, Sequence

from .errors import ArityError, DomainError, InvalidIndexError, ShapeError, check_result_digits

__all__ = [
    "TableShape",
    "FunctionTable",
    "FunctionIndex",
    "max_fn",
    "diagonal_of_table",
    "table_shape",
    "table_number",
    "count_functions",
    "function_number",
    "function_from_number",
    "successor",
    "anti_diagonal",
]


class _Record:
    """A frozen record: compared, hashed and shown by its ``__dict__``, filled in field order."""

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        return self.__dict__ == other.__dict__ if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"


class TableShape(_Record):
    """An n×m table shape: n argument columns by m value rows, both >= 1."""

    n: int
    m: int

    def __init__(self, n: int, m: int) -> None:
        if type(n) is not int or n < 1:
            raise ShapeError(f"argument count n must be a positive integer, got {n!r}")
        if type(m) is not int or m < 1:
            raise ShapeError(f"value count m must be a positive integer, got {m!r}")
        self.__dict__.update(n=n, m=m)

    @property
    def diagonal(self) -> int:
        """Index of the diagonal this shape lies on (n + m - 1)."""
        return self.n + self.m - 1

    def __str__(self) -> str:
        return f"{self.n}x{self.m}"


def check_position(position: int, shape: TableShape, axis: Literal["argument", "value"]) -> None:
    """Reject an argument outside columns 1..n or a value outside rows 1..m."""
    limit, unit = (shape.n, "columns") if axis == "argument" else (shape.m, "rows")
    if type(position) is not int or not 1 <= position <= limit:
        raise DomainError(f"{axis} {position!r} outside {unit} 1..{limit}")


class FunctionTable(_Record):
    """A possibly partial finite discrete function of shape (n, m), held as its digit string.

    ``marks[i]``, also ``digits[i]``, is the marked row (1..m) of column i+1, or 0
    when column i+1 has no marked cell. The first digit is the most significant.
    """

    shape: TableShape
    marks: tuple[int, ...]

    def __init__(self, shape: TableShape, marks: Iterable[int]) -> None:
        self.__dict__.update(shape=shape, marks=tuple(marks))
        self.__post_init__()

    def __post_init__(self) -> None:
        """The one validation rule for digit strings: n ints, each in 0..m."""
        shape, marks = self.shape, self.marks
        if len(marks) != shape.n:
            raise InvalidIndexError(f"expected {shape.n} digits for shape {shape}, got {len(marks)}")
        for position, digit in enumerate(marks, start=1):
            if type(digit) is not int or not 0 <= digit <= shape.m:
                raise InvalidIndexError(f"digit {digit!r} at position {position} outside 0..{shape.m}")

    @property
    def digits(self) -> tuple[int, ...]:
        return self.marks

    @property
    def is_total(self) -> bool:
        return all(row != 0 for row in self.marks)

    @property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The table as a relation's columns: each column's marked row, or no row."""
        return tuple((row,) if row else () for row in self.marks)

    def as_natural(self) -> int:
        """The digit string read as a natural number in base m+1."""
        value = 0
        for digit in self.marks:
            value = value * (self.shape.m + 1) + digit
        return value


FunctionIndex = FunctionTable


def max_fn(j: int) -> int:
    """Number of the largest table in diagonal j.

    Equals the j-th triangular number j(j+1)/2, the closed form of the
    recursion max(0) = 0, max(j) = max(j-1) + j.
    """
    if type(j) is not int or j < 0:
        raise DomainError(f"diagonal index must be a non-negative integer, got {j!r}")
    return j * (j + 1) // 2


def diagonal_of_table(i: int) -> int:
    """The diagonal j on which table i lies: the unique j with max_fn(j-1) < i <= max_fn(j)."""
    if type(i) is not int or i < 1:
        raise DomainError(f"table number must be a positive integer, got {i!r}")
    # The largest j with max_fn(j) <= i, by inverting the triangular closed form.
    j = (math.isqrt(8 * i + 1) - 1) // 2
    return j if max_fn(j) == i else j + 1


def table_shape(i: int) -> TableShape:
    """Shape (n, m) of the i-th table in the diagonal order; inverse of table_number."""
    j = diagonal_of_table(i)
    m = i - max_fn(j - 1)
    n = j - m + 1
    return TableShape(n, m)


def table_number(shape: TableShape) -> int:
    """Position of a shape in the diagonal order; inverse of table_shape."""
    return max_fn(shape.diagonal - 1) + shape.m


def count_functions(shape: TableShape) -> int:
    """Number of total and partial functions in an n×m table: (m+1)^n.

    Counts the empty function (all digits 0) through the maximal one (all m).
    """
    return (shape.m + 1) ** shape.n


def _offset_before(shape: TableShape) -> int:
    """Functions in the tables before ``shape`` in the diagonal order: the geometric series
    (m+1)^1 + ... + (m+1)^(d-m) per value count m on the diagonals before d, then d's shapes."""
    d = shape.diagonal
    earlier = sum((m + 1) * ((m + 1) ** (d - m) - 1) // m for m in range(1, d))
    return earlier + sum((m + 1) ** (d - m + 1) for m in range(1, shape.m))


def function_number(index: FunctionTable) -> int:
    """Absolute 1-based position of a function in the global enumeration.

    The functions of all earlier tables in the diagonal order come first, summed
    in closed form with O(d) powers for diagonal d; within its own table the
    function sits at its digit string read as a base-(m+1) natural, plus one.
    A number ``str`` cannot write is a ``DomainError``: refused from the table
    counts of the diagonal before d, ahead of the sum, and exactly at the end.
    """
    diagonal = index.shape.diagonal
    for m in range(1, diagonal):  # the number passes each table of the diagonal before
        check_result_digits(m + 1, diagonal - m)
    number = _offset_before(index.shape) + index.as_natural() + 1
    check_result_digits(number)
    return number


def function_from_number(number: int) -> FunctionTable:
    """Inverse of function_number: recover (shape, digits) from a global position.

    Walks the diagonal order accumulating per-table function counts until the
    table containing ``number`` is found, then expands the residual position
    in base m+1, left-padded with zeros to n digits. A number ``str`` cannot
    write is not one function_number returns: a ``DomainError``.
    """
    if type(number) is not int or number < 1:
        raise DomainError(f"global function number must be a positive integer, got {number!r}")
    check_result_digits(number)
    remaining = number - 1
    for shape in map(table_shape, count(1)):
        functions = count_functions(shape)
        if remaining < functions:
            break
        remaining -= functions
    base = shape.m + 1
    digits = [0] * shape.n
    for position in reversed(range(shape.n)):
        remaining, digits[position] = divmod(remaining, base)
    return FunctionTable(shape, tuple(digits))


def successor(index: FunctionTable) -> FunctionTable | None:
    """Next index in base-(m+1) counting order within the same shape.

    Returns None once the maximal index m_1...m_n is reached (end of table).
    """
    digits = list(index.marks)
    for position in reversed(range(len(digits))):
        if digits[position] < index.shape.m:
            digits[position] += 1
            return FunctionTable(index.shape, tuple(digits))
        digits[position] = 0
    return None


def anti_diagonal(functions: Sequence[FunctionTable] | Iterable[FunctionTable]) -> FunctionTable:
    """Build a function of shape (n, m) absent from a list of n such functions.

    The result g differs from the i-th input at argument i: digit_i(g) is the
    smallest value in 0..m different from digit_i of the i-th function, so g
    cannot equal any input. Requires exactly n inputs, all of one shape (n, m).
    """
    functions = list(functions)
    if not functions:
        raise ArityError("anti-diagonal construction needs at least one function")
    shape = functions[0].shape
    for fn in functions:
        if fn.shape != shape:
            raise ShapeError(f"all functions must share shape {shape}, got {fn.shape}")
    if len(functions) != shape.n:
        raise ArityError(
            f"shape {shape} needs exactly {shape.n} functions, got {len(functions)}"
        )
    digits = tuple(1 if fn.marks[i] == 0 else 0 for i, fn in enumerate(functions))
    return FunctionTable(shape, digits)
