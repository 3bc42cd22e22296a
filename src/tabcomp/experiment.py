"""Entropy trade-off sweep: store function sets in one relation, measure recall.

Each sweep point superposes the first S functions of a master sequence into a
single relation table and records the relation's computational entropy, how
many total functions it contains, and the precision of stochastic retrieval:
the probability that one uniformly sampled contained function is one of the S
stored ones, both in closed form and as an observed frequency over repeated
trials.

All randomness is splitmix64, from the one seed in the config: the master
sequence from one substream, drawn as one batch of a sparse partial Fisher–Yates
shuffle, and each point's trials from a base b keyed by point position, trial t
being ``sample_function`` on base ``b + t * n * gamma``. No two draws are shared,
and the report depends only on the config. The master sequence stays keys (see
``relations``): a first pass decodes them to snapshot the relation at each S and
check its contained count before any trial runs, a second runs the points in
order of S on the sorted distinct keys stored so far. Trials are counted column
by column, skipping draws that cannot change the count; a saturated point, every
contained function stored, draws none.
"""

from __future__ import annotations

import json
import operator
import random  # not used here; benchmarks/tracing.py patches experiment.random until it reads counters
from dataclasses import dataclass, fields
from itertools import chain
from typing import Callable, Literal

from . import _EXPERIMENT as __all__  # one list: the package names these without loading this module
from .documents import decimal_value
from .enumeration import TableShape
from .errors import ConfigError, DomainError, ParseError, _checked_seed
from .relations import RelationTable, _count_sorted_hits, _marks, _sorted_relation, count_contained, entropy
from .streams import substream_indices, substream_seed

ReportFormat = Literal["csv", "json"]


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: which shape, which stored-set sizes, how many trials per point."""

    shape: TableShape
    stored_counts: tuple[int, ...]
    trials: int
    seed: int
    distinct: bool = True

    def __post_init__(self) -> None:
        for name, kind in (("shape", TableShape), ("distinct", bool)):
            if type(getattr(self, name)) is not kind:
                raise ConfigError(f"{name} {getattr(self, name)!r} is not a {kind.__name__}")
        object.__setattr__(self, "stored_counts", tuple(self.stored_counts))
        if not self.stored_counts:
            raise ConfigError("stored_counts must name at least one sweep point")
        for count in self.stored_counts:
            if type(count) is not int or count < 1:
                raise ConfigError(f"stored count {count!r} is not a positive integer")
        if type(self.trials) is not int or self.trials < 1:
            raise ConfigError(f"trials {self.trials!r} is not a positive integer")
        try:
            _checked_seed(self.seed)
        except DomainError as error:
            raise ConfigError(*error.args) from None
        m, n, most = self.shape.m, self.shape.n, max(self.stored_counts)
        # m**n >= 2**((m.bit_length() - 1) * n): built only where that bound does not pass max(S)
        if self.distinct and (m.bit_length() - 1) * n < most.bit_length() and most > m**n:
            raise ConfigError(
                f"cannot store {most} distinct total functions in shape {self.shape}; only {m**n} exist"
            )


@dataclass(frozen=True)
class SweepPoint:
    stored_count: int
    entropy: float
    contained_total: int
    precision_expected: float
    precision_observed: float


# the report codec's field names, in SweepPoint field order
_FIELDS = tuple(field.name for field in fields(SweepPoint))
_CSV_HEADER = ("S", *_FIELDS[1:])
_values = operator.attrgetter(*_FIELDS)


@dataclass(frozen=True)
class ExperimentReport:
    points: tuple[SweepPoint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))


def _master_sequence(config: ExperimentConfig) -> list[int]:
    """The stored functions' keys, drawn up-front; point S uses the first S.

    Draw i is ``uniform_index(substream_seed(substream_seed(seed, 0), i), count)``
    over range(N), the keys of the N = m**n total functions (see ``relations``).
    With distinct=True the count is N - i and the draws run a sparse partial
    Fisher–Yates shuffle, the dict holding only the swapped slots, so every prefix
    is a uniform sequence without repeats; with distinct=False the count is N and
    a draw is a key.
    """
    total, needed = config.shape.m**config.shape.n, max(config.stored_counts)
    counts = range(total, total - needed, -1) if config.distinct else [total] * needed
    indices = substream_indices(substream_seed(config.seed, 0), counts)
    if config.distinct:
        swapped: dict[int, int] = {}
        for slot, draw in enumerate(indices):
            indices[slot] = swapped.get(slot + draw, slot + draw)
            swapped[slot + draw] = swapped.get(slot, slot)
    return indices


def _run_point(
    config: ExperimentConfig, position: int, relation: RelationTable, contained: int,
    keys: list[int],
) -> SweepPoint:
    """One point on ``keys``, the distinct stored keys, sorted. Each is a total
    function in the relation, so no column is empty; when they number
    ``contained`` every sampled function is stored: all trials hit, none is drawn."""
    if len(keys) == contained:
        hits = config.trials
    else:
        hits = _count_sorted_hits(relation, keys, config.trials, substream_seed(config.seed, 1, position))
    return SweepPoint(
        stored_count=config.stored_counts[position],
        entropy=entropy(relation),
        contained_total=contained,
        precision_expected=len(keys) / contained,
        precision_observed=hits / config.trials,
    )


def run_sweep(config: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Compute every sweep point, one after another.

    ``workers`` is a validated hint that never changes the result. Points run
    sequentially whatever its value: the trial loop is pure Python, so a
    thread pool only adds switching under the interpreter lock.
    """
    if type(workers) is not int or workers < 1:
        raise ConfigError(f"workers {workers!r} is not a positive integer")
    master, counts = _master_sequence(config), config.stored_counts
    marks = _marks(master, config.shape)  # the prefix pass's rows, column by column, dropped before any trial
    marked, columns, prefixes, done = [set() for _ in range(config.shape.n)], [()] * config.shape.n, {}, 0
    for size in sorted(set(counts)):
        for rows, column in zip(marked, marks):
            rows.update(column[done:size])
        done = size
        columns = [old if len(old) == len(rows) else tuple(sorted(rows)) for old, rows in zip(columns, marked)]
        relation = _sorted_relation(config.shape, columns)
        try:  # before any trial runs
            contained = count_contained(relation, "total-on-support")
        except DomainError as error:  # a result too large to write
            raise ConfigError(*error.args) from None
        prefixes[size] = (relation, contained)
    del marks
    points, keys, seen, done = [None] * len(counts), [], set(), 0
    for position in sorted(range(len(counts)), key=counts.__getitem__):
        fresh = set(master[done : counts[position]]).difference(seen)
        seen.update(fresh)
        keys += fresh
        keys.sort()
        done = counts[position]
        points[position] = _run_point(config, position, *prefixes[done], keys)
    return ExperimentReport(tuple(points))


def emit_report(report: ExperimentReport, format: ReportFormat = "csv") -> bytes:
    """Serialize a report; equal reports emit equal bytes."""
    if format == "csv":  # fields are numbers, so none is quoted
        rows = chain([_CSV_HEADER], map(_values, report.points))
        return "".join(",".join(map(str, row)) + "\n" for row in rows).encode("utf-8")
    if format == "json":
        payload = [dict(zip(_FIELDS, _values(point))) for point in report.points]
        return (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    raise ConfigError(f"unknown report format {format!r}")


def _parse_point(values: list[object], integer: Callable[..., int]) -> SweepPoint:
    """A point from its field values in field order, integer fields read by ``integer``;
    a wrong field count, a rejected value or one outside a sweep's range (NaN too) is a ParseError."""
    readers = (integer, float, integer, float, float)
    if len(values) != len(readers):
        raise ParseError(f"expected {len(readers)} fields, got {len(values)}")
    try:
        point = SweepPoint(*(read(value) for read, value in zip(readers, values)))
    except (TypeError, ValueError, OverflowError) as error:
        raise ParseError(f"bad report field: {error}") from None
    if not (
        min(point.stored_count, point.contained_total) >= 1 and 0 <= point.entropy < float("inf")
        and 0 <= point.precision_expected <= 1 and 0 <= point.precision_observed <= 1
    ):
        raise ParseError(f"report field out of range: {point}")
    return point


def parse_report(data: bytes, format: ReportFormat = "csv") -> ExperimentReport:
    """Inverse of emit_report for both formats; malformed data raises ParseError."""
    if format not in ("csv", "json"):
        raise ConfigError(f"unknown report format {format!r}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as error:
        raise ParseError(f"report is not UTF-8: {error}") from None
    if format == "csv":
        # "\n" lines of comma-separated fields, no quoting, and "\r" only at a line's end
        lines = [line.rstrip("\r") for line in text.removesuffix("\n").split("\n")]
        if any("\r" in line for line in lines):
            raise ParseError("CSV report has a carriage return inside a line")
        rows = [line.split(",") for line in lines]
        if tuple(rows[0]) != _CSV_HEADER:
            raise ParseError(f"expected header {','.join(_CSV_HEADER)}")
        return ExperimentReport(tuple(_parse_point(row, decimal_value) for row in rows[1:]))
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as error:
        raise ParseError(f"invalid JSON report: {error}") from None
    if type(payload) is not list or not all(
        type(entry) is dict and entry.keys() == set(_FIELDS)
        and type(entry["stored_count"]) is type(entry["contained_total"]) is int
        and all(type(entry[name]) in (int, float) for name in _FIELDS)
        for entry in payload
    ):
        raise ParseError(
            f"JSON report must list objects keyed {', '.join(_FIELDS)} to numbers, counts as integers"
        )
    rows = [[entry[name] for name in _FIELDS] for entry in payload]
    return ExperimentReport(tuple(_parse_point(row, int) for row in rows))
