"""Acceptance gate: nine end-to-end checks at their stated tolerances.

Each test prints one ``criterion N (name): PASS`` / ``FAIL`` line; run with
``pytest tests/test_acceptance.py -s`` to see them all.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time

from tabcomp import (
    ExperimentConfig,
    FunctionIndex,
    FunctionTable,
    RelationTable,
    TableShape,
    anti_diagonal,
    contains,
    count_contained,
    count_functions,
    decode,
    emit_report,
    encode,
    entropy,
    evaluate,
    function_from_number,
    function_number,
    inverse_evaluate,
    max_fn,
    random_evaluate,
    run_sweep,
    sample_function,
    superpose,
    table_number,
    table_shape,
)


def criterion(number: int, name: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"criterion {number} ({name}): FAIL")
                raise
            print(f"criterion {number} ({name}): PASS")

        return run

    return wrap


def _random_function_table(randomness: random.Random, max_n: int, max_m: int) -> FunctionTable:
    shape = TableShape(randomness.randint(1, max_n), randomness.randint(1, max_m))
    marks = tuple(randomness.randint(0, shape.m) for _ in range(shape.n))
    return FunctionTable(shape, marks)


def _random_relation(randomness: random.Random, max_n: int, max_m: int) -> RelationTable:
    shape = TableShape(randomness.randint(1, max_n), randomness.randint(1, max_m))
    # one randrange(1 << m) a column, bit j-1 marking row j
    masks = [randomness.randrange(1 << shape.m) for _ in range(shape.n)]
    rows = range(1, shape.m + 1)
    return RelationTable(shape, [[row for row in rows if mask >> (row - 1) & 1] for mask in masks])


@criterion(1, "worked example round trip")
def test_criterion_1_worked_example():
    index = FunctionIndex(TableShape(4, 7), (1, 2, 4, 7))
    decode(index)  # warm attribute caches before timing
    started = time.perf_counter()
    table = decode(index)
    assert encode(table) == index
    assert [evaluate(table, argument) for argument in (1, 2, 3, 4)] == [1, 2, 4, 7]
    assert inverse_evaluate(table, 7) == (4,)
    elapsed = time.perf_counter() - started
    assert elapsed < 0.001, f"round trip took {elapsed * 1000:.3f} ms"


@criterion(2, "enumeration bijectivity")
def test_criterion_2_enumeration_bijectivity():
    started = time.perf_counter()
    numbers = []
    for table in range(1, 13):
        shape = table_shape(table)
        for digits in itertools.product(range(shape.m + 1), repeat=shape.n):
            index = FunctionIndex(shape, digits)
            number = function_number(index)
            assert function_from_number(number) == index
            numbers.append(number)
    total = sum(count_functions(table_shape(i)) for i in range(1, 13))
    assert sorted(numbers) == list(range(1, total + 1))
    assert time.perf_counter() - started < 10


@criterion(3, "shape codec")
def test_criterion_3_shape_codec():
    started = time.perf_counter()
    for n in range(1, 51):
        for m in range(1, 51):
            shape = TableShape(n, m)
            assert table_shape(table_number(shape)) == shape
    accumulator = 0
    for j in range(1, 10**6 + 1):
        accumulator += j
        assert max_fn(j) == accumulator
    assert time.perf_counter() - started < 5


@criterion(4, "entropy values and bounds")
def test_criterion_4_entropy():
    randomness = random.Random(404)
    for _ in range(100):
        table = _random_function_table(randomness, 8, 8)
        assert abs(entropy(table)) <= 1e-12
    shape = TableShape(4, 8)
    two_each = RelationTable.from_rows(shape, [[1, 2]] * 4)
    assert abs(entropy(two_each) - 1.0) <= 1e-12
    doubling = RelationTable.from_rows(
        shape, [[1], [1, 2], [1, 2, 3, 4], [1, 2, 3, 4, 5, 6, 7, 8]]
    )
    assert abs(entropy(doubling) - 1.5) <= 1e-12
    for _ in range(1000):
        relation = _random_relation(randomness, 8, 8)
        assert entropy(relation) <= math.log2(relation.shape.m) + 1e-12


@criterion(5, "superposition and containment counting")
def test_criterion_5_superposition():
    started = time.perf_counter()
    shape = TableShape(2, 2)
    combined = superpose(FunctionTable(shape, (1, 2)), FunctionTable(shape, (2, 1)))
    assert contains(combined, FunctionTable(shape, (1, 1)))
    randomness = random.Random(505)
    for _ in range(200):
        relation = _random_relation(randomness, 5, 4)
        on_support = 0
        for marks in itertools.product(range(relation.shape.m + 1), repeat=relation.shape.n):
            candidate = FunctionTable(relation.shape, marks)
            if contains(relation, candidate) and all(
                (mark != 0) == bool(rows) for mark, rows in zip(marks, relation.columns)
            ):
                on_support += 1
        assert count_contained(relation, "total-on-support") == on_support
    assert time.perf_counter() - started < 30


@criterion(6, "stochastic evaluation contract")
def test_criterion_6_stochastic_contract():
    relation = RelationTable.from_rows(TableShape(2, 2), [[1, 2], [1, 2]])
    randomness = random.Random(2024)
    counts: dict[tuple[int, ...], int] = {}
    for _ in range(10_000):
        marks = sample_function(relation, randomness).marks
        counts[marks] = counts.get(marks, 0) + 1
    assert set(counts) == {(1, 1), (1, 2), (2, 1), (2, 2)}
    for frequency in counts.values():
        assert abs(frequency / 10_000 - 0.25) <= 0.02

    fuzz = random.Random(99)
    relations = [_random_relation(fuzz, 6, 6) for _ in range(50)]
    evaluated = random.Random(7)
    for _ in range(1_000_000 // len(relations)):
        for fuzzed in relations:
            argument = evaluated.randint(1, fuzzed.shape.n)
            row = random_evaluate(fuzzed, argument, evaluated)
            rows = fuzzed.columns[argument - 1]
            if row is None:
                assert rows == ()
            else:
                assert row in rows


@criterion(7, "storage/precision trade-off curve")
def test_criterion_7_tradeoff_curve():
    started = time.perf_counter()
    config = ExperimentConfig(TableShape(3, 3), (1, 2, 4, 8), trials=10_000, seed=42)
    report = run_sweep(config)
    entropies = [point.entropy for point in report.points]
    assert entropies == sorted(entropies)
    assert report.points[0].precision_observed == 1.0
    for point in report.points:
        p = point.precision_expected
        bound = 3 * math.sqrt(p * (1 - p) / config.trials)
        assert abs(point.precision_observed - p) <= bound
    assert time.perf_counter() - started < 10


@criterion(8, "diagonal escape construction")
def test_criterion_8_diagonal_escape():
    randomness = random.Random(808)
    for _ in range(500):
        shape = TableShape(randomness.randint(1, 6), randomness.randint(1, 6))
        functions = [
            FunctionIndex(
                shape, tuple(randomness.randint(0, shape.m) for _ in range(shape.n))
            )
            for _ in range(shape.n)
        ]
        escaped = anti_diagonal(functions)
        for position, fn in enumerate(functions):
            assert escaped.digits[position] != fn.digits[position]
        assert escaped not in functions


@criterion(9, "parallelism-independent determinism")
def test_criterion_9_determinism():
    config = ExperimentConfig(TableShape(3, 3), (1, 2, 4, 8), trials=2_000, seed=42)
    single = emit_report(run_sweep(config, workers=1), "csv")
    threaded = emit_report(run_sweep(config, workers=3), "csv")
    assert single == threaded
