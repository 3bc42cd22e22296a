"""Relation tables: entropy, superposition, containment, stochastic retrieval."""

from __future__ import annotations

import itertools
import math
import random
import sys
import tracemalloc
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from tabcomp import (
    DomainError,
    FunctionTable,
    RelationTable,
    ShapeError,
    TableShape,
    contains,
    count_contained,
    count_hits,
    entropy,
    inverse_evaluate,
    inverse_evaluate_relation,
    random_evaluate,
    sample_function,
    superpose,
)
from tabcomp.relations import _count_sorted_hits

from strategies import TrialBases, indices, indices_of, relations, relations_of, shapes


def test_entropy_hand_cases():
    shape = TableShape(4, 8)
    two_each = RelationTable.from_rows(shape, [[1, 2]] * 4)
    assert entropy(two_each) == pytest.approx(1.0, abs=1e-12)
    doubling = RelationTable.from_rows(
        shape, [[1], [1, 2], [1, 2, 3, 4], [1, 2, 3, 4, 5, 6, 7, 8]]
    )
    assert entropy(doubling) == pytest.approx(1.5, abs=1e-12)


def test_entropy_of_functions_is_zero():
    assert entropy(FunctionTable(TableShape(3, 3), (1, 2, 3))) == 0.0
    assert entropy(FunctionTable(TableShape(3, 3), (1, 0, 3))) == 0.0
    assert entropy(RelationTable(TableShape(5, 9), ((),) * 5)) == 0.0


def test_entropy_of_full_relation_is_log2_m():
    shape = TableShape(3, 8)
    full = RelationTable.from_rows(shape, [range(1, 9)] * 3)
    assert entropy(full) == pytest.approx(3.0, abs=1e-12)


@given(relations())
def test_entropy_bounds(relation):
    value = entropy(relation)
    assert 0.0 <= value <= math.log2(relation.shape.m) + 1e-12


@given(indices())
def test_entropy_vanishes_on_any_partial_function(table):
    assert entropy(table) == 0.0


@given(relations(max_n=6, max_m=6))
def test_superpose_is_idempotent(relation):
    assert superpose(relation, relation) == relation


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.integers(min_value=1, max_value=5).flatmap(
            lambda m: st.tuples(
                relations_of(TableShape(n, m)),
                relations_of(TableShape(n, m)),
                relations_of(TableShape(n, m)),
            )
        )
    )
)
def test_superpose_is_commutative_and_associative(trio):
    first, second, third = trio
    assert superpose(first, second) == superpose(second, first)
    assert superpose(first, superpose(second, third)) == superpose(
        superpose(first, second), third
    )


@given(relations(max_n=6, max_m=6))
def test_superpose_with_empty_is_identity(relation):
    assert superpose(relation, RelationTable(relation.shape, ((),) * relation.shape.n)) == relation


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.integers(min_value=1, max_value=6).flatmap(
            lambda m: st.tuples(
                relations_of(TableShape(n, m)), indices_of(TableShape(n, m))
            )
        )
    )
)
def test_superposed_relation_contains_its_parts(pair):
    relation, table = pair
    combined = superpose(relation, table)
    assert contains(combined, table)
    for column in range(relation.shape.n):
        assert set(relation.columns[column]) <= set(combined.columns[column])


def test_contains_hand_cases():
    shape = TableShape(2, 2)
    f12 = FunctionTable(shape, (1, 2))
    f21 = FunctionTable(shape, (2, 1))
    f11 = FunctionTable(shape, (1, 1))
    combined = superpose(f12, f21)
    assert contains(combined, f11)
    assert contains(combined, f12)
    only_f12 = RelationTable(shape, ((1,), (2,)))
    assert contains(only_f12, f12)
    assert not contains(only_f12, f11)
    # partial functions are contained whenever their marks are
    assert contains(only_f12, FunctionTable(shape, (1, 0)))
    assert contains(only_f12, FunctionTable(shape, (0, 0)))


def test_contains_rejects_shape_mismatch():
    with pytest.raises(ShapeError):
        contains(RelationTable(TableShape(2, 2), ((), ())), FunctionTable(TableShape(2, 3), (0, 0)))
    with pytest.raises(ShapeError):
        superpose(RelationTable(TableShape(2, 2), ((), ())), RelationTable(TableShape(3, 2), ((), (), ())))


def _brute_force_counts(relation: RelationTable) -> tuple[int, int]:
    """Containment counts by enumerating all (m+1)^n candidate functions."""
    shape = relation.shape
    on_support = 0
    with_partial = 0
    for marks in itertools.product(range(shape.m + 1), repeat=shape.n):
        candidate = FunctionTable(shape, marks)
        if not contains(relation, candidate):
            continue
        with_partial += 1
        if all(
            (mark != 0) == bool(rows) for mark, rows in zip(marks, relation.columns)
        ):
            on_support += 1
    return on_support, with_partial


@settings(max_examples=60)
@given(relations(max_n=5, max_m=4))
def test_count_contained_matches_brute_force(relation):
    on_support, with_partial = _brute_force_counts(relation)
    assert count_contained(relation, "total-on-support") == on_support
    assert count_contained(relation, "including-partial") == with_partial


def test_count_contained_refuses_a_count_past_the_digit_limit():
    relation = RelationTable(TableShape(20000, 1), [[1]] * 20000)
    assert count_contained(relation) == 1
    with pytest.raises(DomainError, match=f"the result has more than {sys.get_int_max_str_digits()} decimal"):
        count_contained(relation, "including-partial")


def test_count_contained_hand_case():
    relation = RelationTable.from_rows(
        TableShape(4, 8), [[1], [1, 2], [1, 2, 3, 4], [1, 2, 3, 4, 5, 6, 7, 8]]
    )
    assert count_contained(relation) == 1 * 2 * 4 * 8
    assert count_contained(relation, "including-partial") == 2 * 3 * 5 * 9
    with pytest.raises(DomainError):
        count_contained(relation, "per-column")


def test_inverse_evaluate_relation_reads_one_row():
    relation = RelationTable.from_rows(TableShape(3, 3), [[1, 3], [], [3]])
    assert inverse_evaluate_relation(relation, 3) == (1, 3)
    assert inverse_evaluate_relation(relation, 1) == (1,)
    assert inverse_evaluate_relation(relation, 2) == ()
    with pytest.raises(DomainError, match=r"^value 4 outside rows 1\.\.3$"):
        inverse_evaluate_relation(relation, 4)


def test_relation_construction_and_views():
    relation = RelationTable.from_rows(TableShape(3, 4), [[2, 4], [], [1]])
    assert tuple(map(len, relation.columns)) == (2, 0, 1)
    assert relation.columns == ((2, 4), (), (1,))
    lone = RelationTable.from_rows(TableShape(3, 4), [[2], [], [1]])
    assert lone == RelationTable(TableShape(3, 4), FunctionTable(TableShape(3, 4), (2, 0, 1)).columns)
    with pytest.raises(ShapeError):
        RelationTable.from_rows(TableShape(2, 2), [[3], []])
    with pytest.raises(ShapeError):
        RelationTable(TableShape(2, 2), ((1,),))
    with pytest.raises(ShapeError):
        RelationTable(TableShape(2, 2), ((3,), ()))
    with pytest.raises(ShapeError):
        RelationTable(TableShape(2, 2), ((True,), ()))


def test_mark_validation_never_builds_a_row_mask():
    # a (1 << m) - 1 mask for m = 10**30 cannot be built; reading the marks can
    huge = RelationTable(TableShape(1, 10**30), ((1, 10**30),))
    assert tuple(map(len, huge.columns)) == (2,)
    assert entropy(huge) == 1.0
    assert inverse_evaluate_relation(huge, 10**30) == (1,)
    assert tuple(map(len, RelationTable(TableShape(2, 3), ((1, 2, 3), ())).columns)) == (3, 0)
    for rows in [(4,), (0,), (-1,), (2, 2), (3, 1), (1.0,), ("1",)]:
        with pytest.raises(ShapeError):
            RelationTable(TableShape(2, 3), (rows, ()))


@given(indices())
def test_function_relation_round_trip(table):
    relation = RelationTable(table.shape, table.columns)
    assert max(map(len, relation.columns)) <= 1
    assert tuple(rows[0] if rows else 0 for rows in relation.columns) == table.marks
    assert contains(relation, table)


@st.composite
def functions_with_probes(draw):
    """A function table, a relation and a second function of its shape, a value and an argument."""
    function = draw(indices(max_n=6, max_m=6))
    shape = function.shape
    return (
        function,
        draw(relations_of(shape)),
        draw(indices_of(shape)),
        draw(st.integers(min_value=1, max_value=shape.m)),
        draw(st.integers(min_value=1, max_value=shape.n)),
    )


@given(functions_with_probes(), st.integers(0, 2**64 - 1))
def test_function_table_reads_as_its_relation(case, seed):
    function, other, probe, value, argument = case
    relation = RelationTable(function.shape, function.columns)
    assert function.columns == relation.columns

    def results(table):
        return (
            entropy(table),
            count_contained(table, "total-on-support"),
            count_contained(table, "including-partial"),
            superpose(table, other),
            superpose(other, table),
            contains(table, probe),
            inverse_evaluate_relation(table, value),
            count_hits(table, [probe, function], 40, random.Random(seed)),
            sample_function(table, random.Random(seed)),
            random_evaluate(table, argument, random.Random(seed)),
        )

    assert results(function) == results(relation)
    assert inverse_evaluate_relation(function, value) == inverse_evaluate(function, value)


def test_random_evaluate_frequencies():
    relation = RelationTable.from_rows(TableShape(1, 6), [[2, 5]])
    randomness = random.Random(5)
    counts = Counter(random_evaluate(relation, 1, randomness) for _ in range(10_000))
    assert set(counts) == {2, 5}
    assert abs(counts[2] / 10_000 - 0.5) <= 0.02
    assert abs(counts[5] / 10_000 - 0.5) <= 0.02


def test_random_evaluate_on_empty_column_is_none():
    relation = RelationTable.from_rows(TableShape(2, 3), [[], [1]])
    randomness = random.Random(0)
    assert random_evaluate(relation, 1, randomness) is None
    with pytest.raises(DomainError, match=r"^argument 3 outside columns 1\.\.2$"):
        random_evaluate(relation, 3, randomness)


def test_random_evaluate_returns_only_marked_rows():
    fuzz = random.Random(11)
    for _ in range(200):
        shape = TableShape(fuzz.randint(1, 6), fuzz.randint(1, 6))
        # one randrange(1 << m) a column, bit j-1 marking row j
        masks = [fuzz.randrange(1 << shape.m) for _ in range(shape.n)]
        rows = range(1, shape.m + 1)
        relation = RelationTable(shape, [[row for row in rows if mask >> (row - 1) & 1] for mask in masks])
        for _ in range(50):
            argument = fuzz.randint(1, shape.n)
            row = random_evaluate(relation, argument, fuzz)
            rows = relation.columns[argument - 1]
            if row is None:
                assert rows == ()
            else:
                assert row in rows


@given(
    relations().flatmap(lambda r: st.tuples(st.just(r), st.integers(1, r.shape.n))),
    st.integers(0, 2**64 - 1),
)
@example((RelationTable.from_rows(TableShape(2, 3), [[], [1, 3]]), 1), 0)
def test_random_evaluate_draws_as_sample_function_column(relation_and_argument, seed):
    relation, argument = relation_and_argument
    evaluated, sampled = random.Random(seed), random.Random(seed)
    row = random_evaluate(relation, argument, evaluated)
    assert row == (sample_function(relation, sampled).marks[argument - 1] or None)
    assert evaluated.getstate() == sampled.getstate()


def test_sample_function_is_uniform_on_full_square():
    relation = RelationTable.from_rows(TableShape(2, 2), [[1, 2], [1, 2]])
    randomness = random.Random(2024)
    counts = Counter(sample_function(relation, randomness).marks for _ in range(10_000))
    assert set(counts) == {(1, 1), (1, 2), (2, 1), (2, 2)}
    for marks in counts:
        assert abs(counts[marks] / 10_000 - 0.25) <= 0.02


@given(relations(max_n=6, max_m=6), st.integers(min_value=0, max_value=2**32))
def test_sampled_functions_are_contained(relation, seed):
    table = sample_function(relation, random.Random(seed))
    assert contains(relation, table)
    for column, rows in enumerate(relation.columns):
        # empty columns stay unmarked, non-empty ones get a value
        assert (table.marks[column] == 0) == (rows == ())


def test_sample_function_consumes_one_draw():
    relation = RelationTable.from_rows(TableShape(4, 4), [[1, 2, 3, 4]] * 4)
    sampling = random.Random(9)
    sample_function(relation, sampling)
    reference = random.Random(9)
    reference.getrandbits(64)
    assert sampling.getrandbits(64) == reference.getrandbits(64)


def test_sample_function_is_deterministic_per_seed():
    relation = RelationTable.from_rows(TableShape(3, 5), [[1, 4], [2, 3, 5], [1]])
    first = sample_function(relation, random.Random(31))
    second = sample_function(relation, random.Random(31))
    assert first == second


@st.composite
def stored_sets(draw):
    """A relation plus the functions stored in it, as the sweep builds them.

    The stored list may repeat functions or not, and may hold partial
    functions; the relation is their superposition, sometimes with extra
    marks that no stored function uses. Unlike the sweep's, the list may
    also end in functions drawn apart from the relation, most outside it.
    """
    shape = draw(shapes(max_n=6, max_m=6))
    stored = draw(st.lists(indices_of(shape), min_size=1, max_size=12))
    if draw(st.booleans()):
        stored = list({table.marks: table for table in stored}.values())
    relation = RelationTable(shape, ((),) * shape.n)
    for table in stored:
        relation = superpose(relation, table)
    if draw(st.booleans()):
        relation = superpose(relation, draw(relations_of(shape)))
    if draw(st.booleans()):
        stored += draw(st.lists(indices_of(shape), max_size=4))
    return relation, stored


_ONE = FunctionTable(TableShape(4, 3), (1, 3, 2, 2))
_SATURATED = TableShape(2, 3)
_EVERY_2X3 = [
    FunctionTable(_SATURATED, marks) for marks in itertools.product(range(1, 4), repeat=2)
]
# columns 2 and 3 are forced: every draw picks row 2 there, and 0 in the empty column 3
_FORCED = RelationTable(TableShape(4, 3), ((1, 2, 3), (2,), (), (1, 3)))


def _over_forced(*stored: tuple[int, ...]) -> tuple[RelationTable, list[FunctionTable]]:
    return _FORCED, [FunctionTable(_FORCED.shape, marks) for marks in stored]


def _stored_in(columns, *stored: tuple[int, ...]) -> tuple[RelationTable, list[FunctionTable]]:
    """The relation of ``columns`` (each a column's rows) and the functions of ``stored``."""
    shape = TableShape(len(columns), max(max(marks) for marks in stored) if stored else 3)
    return RelationTable(shape, columns), [FunctionTable(shape, marks) for marks in stored]


# keys past 2**64: 16**20 = 2**80 and 3**45 > 2**71, drawn columns at both ends
_WIDE_16 = [(1, 16), *[(5,)] * 9, (2, 9), *[(16,)] * 8, (3, 4)]
_WIDE_3 = [(1, 3), *[(2,)] * 20, (1, 2, 3), *[(3,)] * 22, (2, 3)]
# forced columns before, between and after the drawn columns 2 and 4, one of them empty
_BETWEEN = [(2,), (1, 3), (3,), (1, 2), (1,), ()]


@given(stored_sets(), st.integers(min_value=1, max_value=300), st.integers(0, 2**64 - 1))
@example((RelationTable(_ONE.shape, _ONE.columns), [_ONE]), 300, 5)
@example((RelationTable(_SATURATED, ((1, 2, 3), (1, 2, 3))), _EVERY_2X3), 300, 6)
@example((RelationTable(_SATURATED, ((1, 2, 3), (1, 2, 3))), _EVERY_2X3 + _EVERY_2X3[:4]), 1, 7)
# past one chunk of trials: the second chunk's trial indices go on from the first one's
@example((RelationTable(_SATURATED, ((1, 2, 3), (1, 2, 3))), _EVERY_2X3[:4]), 2049, 8)
# every stored function holds the forced digits, so columns 2 and 3 are skipped
@example(_over_forced((1, 2, 0, 1), (2, 2, 0, 3), (3, 2, 0, 1)), 600, 1)
# some stored functions lack the forced column's row, or all of them do
@example(_over_forced((1, 2, 0, 1), (3, 1, 0, 1), (2, 3, 0, 3)), 600, 2)
@example(_over_forced((1, 1, 0, 1), (2, 1, 0, 3)), 600, 3)
# partial functions over the empty column, some of them defined there
@example(_over_forced((1, 2, 0, 1), (1, 2, 2, 1), (2, 2, 3, 3)), 600, 4)
# outside the relation in a drawn column, and the empty function
@example(_over_forced((1, 2, 0, 2), (0, 0, 0, 0), (3, 2, 0, 3)), 600, 5)
@example(_stored_in(_WIDE_16, (1, *[5] * 9, 2, *[16] * 8, 3), (16, *[5] * 9, 9, *[16] * 8, 4)), 600, 11)
@example(_stored_in(_WIDE_16, (16, *[5] * 9, 2, *[16] * 8, 4), (16, *[5] * 9, 9, *[16] * 7, 15, 4)), 600, 12)
@example(_stored_in(_WIDE_3, (1, *[2] * 20, 1, *[3] * 22, 2), (3, *[2] * 20, 3, *[3] * 22, 3)), 600, 13)
@example(_stored_in(_WIDE_3, (3, *[2] * 20, 2, *[3] * 22, 2), (1, *[2] * 20, 2, *[3] * 22, 3)), 2049, 14)
@example(_stored_in(_BETWEEN, (2, 1, 3, 1, 1, 0), (2, 3, 3, 2, 1, 0), (2, 3, 3, 1, 1, 0)), 600, 15)
# some lack a forced digit before, between or after the drawn columns, or are defined in the empty one
@example(_stored_in(_BETWEEN, (1, 1, 3, 1, 1, 0), (2, 3, 1, 2, 1, 0), (2, 1, 3, 1, 3, 0)), 600, 16)
@example(_stored_in(_BETWEEN, (2, 1, 3, 2, 1, 3), (2, 3, 3, 2, 1, 0)), 600, 17)
# empty columns first and last, partial stored functions defined there or not
@example(_stored_in([(), (1, 2), (3,), ()], (0, 1, 3, 0), (2, 2, 3, 0), (0, 2, 3, 1), (0, 0, 0, 0)), 600, 18)
# no stored function, over drawn columns and over forced ones only
@example(_stored_in(_BETWEEN), 600, 19)
@example(_stored_in([(2,), ()]), 600, 20)
@settings(max_examples=150)
def test_count_hits_matches_repeated_sampling(case, trials, seed):
    relation, stored = case
    stored_marks = {table.marks for table in stored}
    # trial t is sample_function on the base b + t * n * gamma, b the one base count_hits takes
    replay = TrialBases(seed, relation.shape.n)
    expected = sum(sample_function(relation, replay).marks in stored_marks for _ in range(trials))
    randomness = TrialBases(seed, relation.shape.n)
    assert count_hits(relation, stored, trials, randomness) == expected
    assert (randomness.calls, replay.calls) == (1, trials)


@given(stored_sets(), st.booleans(), st.integers(min_value=0, max_value=300), st.integers(0, 2**64 - 1))
@example((RelationTable(_SATURATED, ((1, 2, 3), (1, 2, 3))), _EVERY_2X3 + _EVERY_2X3[:4]), False, 300, 9)
@example((RelationTable(_SATURATED, ((1, 2, 3), (1, 2, 3))), _EVERY_2X3), True, 1025, 10)
@settings(max_examples=150)
def test_count_hits_is_the_core_on_sorted_distinct_digit_strings(case, empty, trials, seed):
    # what the sweep passes: the digit strings sampling can return, each read as its key
    # (digits less one, an empty column as 0, in base m), sorted, each once, maybe none
    relation, stored = case
    stored = [] if empty else stored
    public = TrialBases(seed, relation.shape.n)
    sampled = [
        table.marks for table in stored
        if all(row in rows if rows else row == 0 for rows, row in zip(relation.columns, table.marks))
    ]
    keys = set()
    for marks in sampled:
        key = 0
        for row in marks:  # Horner's rule, the first column most significant
            key = key * relation.shape.m + max(row - 1, 0)
        keys.add(key)
    hits = _count_sorted_hits(relation, sorted(keys), trials, seed)
    assert count_hits(relation, stored, trials, public) == hits
    assert public.calls == 1


def test_count_hits_memory_does_not_grow_with_trials():
    relation = RelationTable(_SATURATED, ((1, 2, 3), (1, 2, 3)))
    tracemalloc.start()
    try:
        count_hits(relation, _EVERY_2X3[:1], 20_000, random.Random(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one chunk of trials is live at a time: about 0.3 MB, where all 20,000 at once take 3.8 MB
    assert peak < 1_000_000


def test_count_hits_edge_cases():
    relation = RelationTable.from_rows(TableShape(2, 2), [[1, 2], [1]])
    stored = [FunctionTable(TableShape(2, 2), (1, 1))]
    assert count_hits(relation, stored, 0, random.Random(1)) == 0
    assert count_hits(relation, [], 5, random.Random(1)) == 0
    assert count_hits(relation, [], 1025, random.Random(2)) == 0  # past a chunk, nothing stored
    # one base is drawn whatever the trials, none of them or past a chunk, even with nothing stored
    for trials, stored_now in [(0, stored), (1, stored), (1025, stored), (1025, [])]:
        randomness, reference = random.Random(2), random.Random(2)
        reference.getrandbits(64)
        count_hits(relation, stored_now, trials, randomness)
        assert randomness.getstate() == reference.getstate()
    with pytest.raises(DomainError):
        count_hits(relation, stored, -1, random.Random(1))
    with pytest.raises(ShapeError):
        count_hits(relation, [FunctionTable(TableShape(2, 3), (1, 1))], 5, random.Random(1))
