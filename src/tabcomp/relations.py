"""Relation tables, computational entropy, superposition, and stochastic evaluation.

A relation table may mark any set of cells; column i carries v_i marks,
0 <= v_i <= m. A function table is the v_i <= 1 case, read through the same
``columns``: each column's marked rows, strictly ascending, what a document
lists and what sampling indexes. Memory is linear in the number of marks
whatever m is; containment is a bisection and superposition a sorted union.
A stored function's key is one int, its rows less one read as n base-m digits,
first column most significant, an empty column as 0: ``count_hits`` encodes it,
``_marks`` decodes it, and ``_count_sorted_hits`` counts hits on sorted keys.

Evaluating a relation at an argument picks one of that column's marked rows uniformly at
random, from the substream that column uses in ``sample_function``; ``count_hits``' trial t
samples on base b + t * n * gamma. The per-argument indeterminacy is summarized by the
computational entropy e = (1/n) * sum(log2(v_i)) over non-empty columns, which is 0 exactly
for (partial) functions and at most log2(m).
"""

from __future__ import annotations

import math
import operator
import random
from bisect import bisect_left
from functools import reduce
from itertools import compress, product
from typing import Iterable, Literal

from .enumeration import FunctionTable, TableShape, _Record, check_position
from .errors import DomainError, ShapeError, check_result_digits
from .streams import _CHUNK, _GAMMA, _MASK64, _draws, substream_indices, substream_seed, uniform_index

__all__ = [
    "RelationTable",
    "entropy",
    "random_evaluate",
    "sample_function",
    "count_hits",
    "superpose",
    "contains",
    "count_contained",
    "inverse_evaluate_relation",
]

CountMode = Literal["total-on-support", "including-partial"]


class RelationTable(_Record):
    """An n×m grid of boolean marks: each argument column's marked rows, ascending."""

    shape: TableShape
    columns: tuple[tuple[int, ...], ...]

    def __init__(self, shape: TableShape, columns: Iterable[Iterable[int]]) -> None:
        self.__dict__.update(shape=shape, columns=tuple(map(tuple, columns)))
        self.__post_init__()

    def __post_init__(self) -> None:
        if len(self.columns) != self.shape.n:
            raise ShapeError(
                f"expected {self.shape.n} columns for shape {self.shape}, got {len(self.columns)}"
            )
        for column, rows in enumerate(self.columns, start=1):
            if not (set(map(type, rows)) <= {int} and _ascending_within(rows, self.shape.m)):
                raise ShapeError(
                    f"column {column} rows are not strictly ascending ints in 1..{self.shape.m}"
                )

    @classmethod
    def from_rows(cls, shape: TableShape, rows_per_column: Iterable[Iterable[int]]) -> RelationTable:
        """Build from one iterable of ascending rows (1..m) per column."""
        return cls(shape, rows_per_column)


def _ascending_within(rows: tuple[int, ...] | list[int], m: int) -> bool:
    """Whether ints ``rows`` are strictly ascending within 1..m, by C-level passes."""
    return not rows or (1 <= rows[0] and rows[-1] <= m and all(map(operator.lt, rows, rows[1:])))


def _sorted_relation(shape: TableShape, columns: Iterable[Iterable[int]]) -> RelationTable:
    """The RelationTable of ``columns``, without the column rule's check.

    The caller must pass ``shape.n`` columns of strictly ascending ints in 1..m:
    the sweep's sorted sets of digits it drew, the sorted union of two validated
    tables' columns, or a document's rows, each line checked once as it is read."""
    relation = object.__new__(RelationTable)
    relation.__dict__.update(shape=shape, columns=tuple(map(tuple, columns)))
    return relation


def _check_shapes(shape: TableShape, *others: TableShape) -> None:
    for other in others:
        if other != shape:
            raise ShapeError(f"shape mismatch: {shape} vs {other}")


def _marked(rows: tuple[int, ...], row: int) -> bool:
    """Whether ``row`` is one of a column's ascending marked rows."""
    index = bisect_left(rows, row)
    return index < len(rows) and rows[index] == row


def entropy(relation: RelationTable | FunctionTable) -> float:
    """Computational entropy in bits per argument: (1/n) * sum(log2(v_i)).

    Columns with no marks contribute 0, so functions and partial functions
    have entropy exactly 0; the maximum is log2(m) when every cell is marked.
    """
    terms = [math.log2(count) for count in map(len, relation.columns) if count >= 1]
    return math.fsum(terms) / relation.shape.n


def random_evaluate(
    relation: RelationTable | FunctionTable, argument: int, randomness: random.Random
) -> int | None:
    """One marked row of the argument's column, chosen uniformly; None when empty.

    Draws exactly as column ``argument`` of ``sample_function`` does: one 64-bit
    base from ``randomness``, taken even for an empty column, then the column's
    substream.
    """
    check_position(argument, relation.shape, "argument")
    base = randomness.getrandbits(64)
    rows = relation.columns[argument - 1]
    return rows[uniform_index(substream_seed(base, argument - 1), len(rows))] if rows else None


def sample_function(
    relation: RelationTable | FunctionTable, randomness: random.Random
) -> FunctionTable:
    """Draw one function contained in the relation, each column independently uniform.

    Consumes a single 64-bit value from ``randomness`` and derives one
    substream per column, so the outcome is independent of column evaluation
    order; per-column choices use multiply-high rejection and are exactly uniform.
    """
    columns = relation.columns
    picks = substream_indices(randomness.getrandbits(64), [len(rows) or 1 for rows in columns])
    return FunctionTable(
        relation.shape, tuple(rows[pick] if rows else 0 for rows, pick in zip(columns, picks))
    )


def count_hits(
    relation: RelationTable | FunctionTable,
    stored: Iterable[FunctionTable],
    trials: int,
    randomness: random.Random,
) -> int:
    """How many of ``trials`` sample_function draws land on a stored function.

    Takes one 64-bit base b from ``randomness`` whatever ``trials`` is; trial t is
    ``sample_function`` on base ``b + t * n * gamma mod 2**64``, gamma splitmix64's increment.
    Counted column by column for a chunk of trials at once, on the keys of the stored functions
    that sampling can return, each column one batch draw. A forced column (at most one marked
    row) is never drawn: every trial picks its one row, or none. Substream draws do not depend
    on evaluation order, so neither skipping them nor the order changes an outcome.
    """
    if type(trials) is not int or trials < 0:
        raise DomainError(f"trials {trials!r} is not a non-negative integer")
    stored = tuple(stored)
    _check_shapes(relation.shape, *(table.shape for table in stored))
    keys = {  # of the functions sampling can return: each mark in its column's rows, or 0 in an empty column
        reduce(lambda key, row: key * relation.shape.m + max(row - 1, 0), table.marks, 0)
        for table in stored
        if all(_marked(rows, row) or not (rows or row) for rows, row in zip(relation.columns, table.marks))
    }
    return _count_sorted_hits(relation, sorted(keys), trials, randomness.getrandbits(64))


def _count_sorted_hits(
    relation: RelationTable | FunctionTable, keys: list[int], trials: int, base: int,
) -> int:
    """``count_hits`` from ``base`` on the sorted ``keys`` of functions sampling can return,
    unchecked. Trial t draws column c as lane t of ``_draws`` with step n * gamma and offset
    base + (c + 1) * gamma. At each column of two or more rows a trial adds its pick's offset,
    row - 1 at the column's weight plus the forced digits since the last drawn column, read off
    ``keys[0]``, and lives while a key has its prefix; the sentinel m**n ends every bisection on
    a key. Each column's offsets are built when first reached; at the first one every trial's
    prefix is the same."""
    m, n = relation.shape.m, relation.shape.n
    drawn = [(column, rows) for column, rows in enumerate(relation.columns) if len(rows) > 1]
    keys, levels, held, hits, step = [*keys, m**n], [], [], 0, n * _GAMMA & _MASK64
    for start in range(0, trials, _CHUNK):
        live = range(start, min(start + _CHUNK, trials))
        for depth, (column, rows) in enumerate(drawn):
            if depth == len(levels):  # first reached
                weight = pow(m, n - 1 - column)
                forced = keys[0] % (levels[-1][0] if levels else keys[-1]) - keys[0] % (weight * m)
                levels.append((weight, [forced + (row - 1) * weight for row in rows]))
                held = held or [keys[bisect_left(keys, key)] < key + weight for key in levels[0][1]]
            weight, offsets = levels[depth]
            offset = base + (column + 1) * _GAMMA & _MASK64
            picks = _draws([trial for trial, _ in live] if depth else live, step, offset, len(rows))
            if depth:
                live = [
                    (trial, key) for (trial, prefix), pick in zip(live, picks)
                    if keys[bisect_left(keys, key := prefix + offsets[pick])] < key + weight
                ]
            else:  # each row was tested once
                live = list(compress(zip(live, map(offsets.__getitem__, picks)), map(held.__getitem__, picks)))
            if not live:
                break
        hits += len(live) if len(keys) > 1 else 0
    return hits


def _marks(keys: list[int], shape: TableShape) -> list[list[int]]:
    """The rows of the total functions ``keys`` name, one list a column: each level halves
    every piece at ``m ** size`` (sub-quadratic in n) down to ``width`` digits, read off a table
    of at most 1024, or as itself when one digit; a key's last n of span digits are its rows."""
    n, m, width = shape.n, shape.m, 1
    while width < n and m ** (width + 1) <= 1024:
        width += 1
    span = width
    while span < n:
        span *= 2
    pieces, size = keys, span
    while size > width:
        size //= 2
        power = m**size
        pieces = [part for piece in pieces for part in divmod(piece, power)]
    if width == 1:
        digits = [piece + 1 for piece in pieces]
    else:
        table = list(product(range(1, m + 1), repeat=width))
        digits = reduce(operator.iconcat, map(table.__getitem__, pieces), [])
    return [digits[c::span] for c in range(span - n, span)]


def superpose(
    base: RelationTable | FunctionTable, addition: RelationTable | FunctionTable
) -> RelationTable:
    """Cell-wise union of two tables of one shape; commutative, associative, idempotent."""
    _check_shapes(base.shape, addition.shape)
    return _sorted_relation(
        base.shape, (sorted({*a, *b}) for a, b in zip(base.columns, addition.columns))
    )


def contains(relation: RelationTable | FunctionTable, function: FunctionTable) -> bool:
    """True iff every marked cell of the function is marked in the relation."""
    _check_shapes(relation.shape, function.shape)
    return all(row == 0 or _marked(rows, row) for rows, row in zip(relation.columns, function.marks))


def count_contained(
    relation: RelationTable | FunctionTable, mode: CountMode = "total-on-support"
) -> int:
    """Number of functions contained in the relation.

    total-on-support: one choice per non-empty column, empty columns forced
    undefined, giving the product of the non-zero v_i. including-partial:
    every column may also stay undefined, giving the product of (v_i + 1),
    which counts every contained function down to the empty one. A count past the
    digit limit is a DomainError, refused unbuilt if 2 ** sum(f.bit_length() - 1) passes it.
    """
    if mode == "total-on-support":
        factors = [count for count in map(len, relation.columns) if count >= 1]
    elif mode == "including-partial":
        factors = [count + 1 for count in map(len, relation.columns)]
    else:
        raise DomainError(f"unknown counting mode {mode!r}")
    check_result_digits(2, sum(map(int.bit_length, factors)) - len(factors))
    count = math.prod(factors)
    check_result_digits(count)
    return count


def inverse_evaluate_relation(
    relation: RelationTable | FunctionTable, value: int
) -> tuple[int, ...]:
    """All columns whose cell at the given row is marked, ascending."""
    check_position(value, relation.shape, "value")
    return tuple(
        column for column, rows in enumerate(relation.columns, start=1) if _marked(rows, value)
    )
