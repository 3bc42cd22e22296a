"""Storage/precision sweep: determinism, nesting, statistics, report codec."""

from __future__ import annotations

import itertools
import math
import sys
import tracemalloc
from collections import Counter
from functools import reduce
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from tabcomp import (
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    FunctionTable,
    ParseError,
    RelationTable,
    SweepPoint,
    TableShape,
    count_contained,
    emit_report,
    experiment,
    parse_report,
    run_sweep,
    sample_function,
    superpose,
)
from tabcomp.cli import main
from tabcomp.streams import substream_seed, uniform_index
from strategies import TrialBases
from test_golden import CASES


def _small_config(**overrides):
    settings = dict(
        shape=TableShape(3, 3), stored_counts=(1, 2, 4, 8), trials=500, seed=42
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


def test_config_validation():
    with pytest.raises(ConfigError):
        _small_config(stored_counts=())
    with pytest.raises(ConfigError):
        _small_config(stored_counts=(0, 2))
    with pytest.raises(ConfigError):
        _small_config(trials=0)
    with pytest.raises(ConfigError):
        _small_config(trials=True)
    with pytest.raises(ConfigError):
        _small_config(seed=-1)
    with pytest.raises(ConfigError):
        _small_config(seed=1 << 64)
    with pytest.raises(ConfigError):
        # only m^n distinct total functions exist
        ExperimentConfig(TableShape(2, 2), (5,), trials=10, seed=0)
    # with repeats allowed the same size is fine
    ExperimentConfig(TableShape(2, 2), (5,), trials=10, seed=0, distinct=False)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"shape": (4, 4)}, "shape (4, 4) is not a TableShape"),
        ({"shape": "4x4"}, "shape '4x4' is not a TableShape"),
        ({"shape": None}, "shape None is not a TableShape"),
        # a truthy or falsy non-bool would silently pick a mode
        ({"distinct": "no"}, "distinct 'no' is not a bool"),
        ({"distinct": None}, "distinct None is not a bool"),
        ({"distinct": 1}, "distinct 1 is not a bool"),
    ],
)
def test_config_refuses_a_shape_or_distinct_of_another_type(overrides, message):
    with pytest.raises(ConfigError) as refused:
        _small_config(**overrides)
    assert str(refused.value) == message
    # the bools themselves are the two modes
    assert _small_config(distinct=False).distinct is False


def test_the_distinct_bound_needs_no_full_power():
    # 3**(10**7) has ~4.8 million digits; the bit lengths alone show it exceeds S=1
    tracemalloc.start()
    try:
        ExperimentConfig(TableShape(10**7, 3), (1,), trials=1, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the bound stays exact where the bit lengths cannot settle it
    for n, m, total in ((2, 3, 9), (64, 2, 2**64), (5, 1, 1)):
        ExperimentConfig(TableShape(n, m), (total,), trials=1, seed=0)
        with pytest.raises(ConfigError) as refused:
            ExperimentConfig(TableShape(n, m), (total + 1,), trials=1, seed=0)
        assert str(refused.value) == (
            f"cannot store {total + 1} distinct total functions in shape {n}x{m}; only {total} exist"
        )


def test_an_oversized_prefix_count_is_a_config_error():
    config = ExperimentConfig(TableShape(20000, 2), (1, 5), trials=100, seed=1)
    with pytest.raises(ConfigError, match=f"the result has more than {sys.get_int_max_str_digits()} decimal"):
        run_sweep(config)


def test_run_sweep_rejects_bad_worker_count():
    with pytest.raises(ConfigError):
        run_sweep(_small_config(), workers=0)
    with pytest.raises(ConfigError):
        run_sweep(_small_config(), workers=True)


def test_identical_configs_give_identical_reports():
    config = _small_config()
    assert run_sweep(config) == run_sweep(config)


def test_worker_count_never_changes_the_report():
    config = _small_config()
    single = run_sweep(config, workers=1)
    threaded = run_sweep(config, workers=3)
    assert single == threaded
    assert emit_report(single) == emit_report(threaded)


def test_points_nest_by_prefix():
    # each point superposes a prefix of one master sequence, so growing S
    # can only add marks: entropy and capacity never decrease
    report = run_sweep(_small_config())
    entropies = [point.entropy for point in report.points]
    capacities = [point.contained_total for point in report.points]
    assert entropies == sorted(entropies)
    assert capacities == sorted(capacities)


def test_prefix_quantities_ignore_point_order():
    # the deterministic per-point quantities depend only on S, not on the
    # position of S in the sweep
    forward = run_sweep(_small_config(stored_counts=(1, 2, 4, 8)))
    backward = run_sweep(_small_config(stored_counts=(8, 4, 2, 1)))
    by_count_fwd = {p.stored_count: (p.entropy, p.contained_total, p.precision_expected) for p in forward.points}
    by_count_bwd = {p.stored_count: (p.entropy, p.contained_total, p.precision_expected) for p in backward.points}
    assert by_count_fwd == by_count_bwd


def test_single_stored_function_is_always_recalled():
    report = run_sweep(_small_config(stored_counts=(1,), trials=200))
    point = report.points[0]
    assert point.entropy == 0.0
    assert point.contained_total == 1
    assert point.precision_expected == 1.0
    assert point.precision_observed == 1.0


def test_storing_every_function_fills_the_relation():
    shape = TableShape(2, 3)
    total = shape.m**shape.n
    report = run_sweep(ExperimentConfig(shape, (total,), trials=100, seed=7))
    point = report.points[0]
    assert point.contained_total == total
    assert point.entropy == pytest.approx(math.log2(shape.m), abs=1e-12)
    assert point.precision_expected == 1.0
    assert point.precision_observed == 1.0


def test_repeats_lower_expected_precision():
    # with repeats allowed, expectation counts the distinct stored functions:
    # 6 draws at 2x2, where only 4 functions exist, hold fewer than 6 distinct ones
    config = ExperimentConfig(TableShape(2, 2), (6,), trials=100, seed=3, distinct=False)
    distinct = len(set(experiment._master_sequence(config)))
    point = run_sweep(config).points[0]
    assert distinct < 6
    assert point.precision_expected == pytest.approx(distinct / point.contained_total, abs=1e-12)


def test_observed_precision_tracks_expected_across_seeds():
    # deterministic scan: every point of every seed stays within three
    # binomial standard errors of its expectation
    violations = 0
    for seed in range(40):
        config = ExperimentConfig(TableShape(3, 3), (1, 2, 4, 8), trials=2000, seed=seed)
        for point in run_sweep(config).points:
            p = point.precision_expected
            bound = 3 * math.sqrt(p * (1 - p) / config.trials)
            if abs(point.precision_observed - p) > bound:
                violations += 1
    assert violations <= 2


def test_csv_round_trip():
    report = run_sweep(_small_config(trials=50))
    data = emit_report(report, "csv")
    assert data.startswith(b"S,entropy,contained_total,precision_expected,precision_observed\n")
    assert parse_report(data, "csv") == report


def test_json_round_trip():
    report = run_sweep(_small_config(trials=50))
    data = emit_report(report, "json")
    assert parse_report(data, "json") == report


def test_empty_report_emits_header_only():
    report = ExperimentReport(())
    data = emit_report(report, "csv")
    assert data == b"S,entropy,contained_total,precision_expected,precision_observed\n"
    assert parse_report(data, "csv") == report


def test_emit_rejects_unknown_format():
    with pytest.raises(ConfigError):
        emit_report(ExperimentReport(()), "xml")
    with pytest.raises(ConfigError):
        parse_report(b"", "xml")


HEADER = b"S,entropy,contained_total,precision_expected,precision_observed\n"


def _json_point(**changes: bytes) -> bytes:
    """A one-point JSON report, well formed but for the changed or added keys."""
    fields = dict(
        stored_count=b"1", entropy=b"0.0", contained_total=b"1",
        precision_expected=b"1.0", precision_observed=b"1.0",
    )
    fields.update(changes)
    return b"[{" + b", ".join(b'"%s": %s' % (key.encode(), value) for key, value in fields.items()) + b"}]"


def _csv_point(index: int, value: bytes) -> bytes:
    """A one-point CSV report, well formed but for field ``index``."""
    fields = [b"1", b"0.0", b"1", b"1.0", b"1.0"]
    fields[index] = value
    return HEADER + b",".join(fields) + b"\n"


MALFORMED_REPORTS = [
    (b"no,such,header\n", "csv"),
    (HEADER + b"1,0.0\n", "csv"),
    (b"{not json", "json"),
    (b"{}", "json"),
    (b"5", "json"),
    (b'[{"x": 1}]', "json"),
    (b'[{"stored_count": 1, "entropy": 0.0, "contained_total": 1, '
     b'"precision_expected": 1.0, "precision_observed": "high"}]', "json"),
    (b'[{"stored_count": Infinity, "entropy": 0.0, "contained_total": 1, '
     b'"precision_expected": 1.0, "precision_observed": 1.0}]', "json"),
    (b"[" * 100_000, "json"),
    (b"\xff", "json"),
    (b"\xff", "csv"),
    (HEADER + b"abc,0.0,1,1.0,1.0\n", "csv"),
    (HEADER + b"1,0.0,1,1.0,1.0,extra\n", "csv"),
    # integer fields: a CSV decimal token or a JSON integer, nothing that converts to one
    *((HEADER + row + b",0.0,1,1.0,1.0\n", "csv") for row in (b"1_0", b" 7", b"+7")),
    (HEADER + b"1,0.0,1_0,1.0,1.0\n", "csv"),
    # a CSV field is never quoted, and "\r" only ends a line
    *((_csv_point(index, value), "csv") for index, value in ((0, b'"1"'), (1, b'"0.0"'))),
    (HEADER + b"1,0.0\r,1,1.0,1.0\n", "csv"),
    *(
        (_json_point(stored_count=stored, contained_total=contained), "json")
        for stored, contained in (
            (b"1.5", b"1"), (b"true", b"1"), (b'"7"', b"1"), (b"1", b"1e300"), (b"1", b"true"),
        )
    ),
    # ranges a sweep writes: counts from 1, entropy at least 0, both precisions in [0, 1],
    # and no NaN or infinity in a float field
    *((_csv_point(index, b"0"), "csv") for index in (0, 2)),
    *((_csv_point(1, value), "csv") for value in (b"-1.0", b"-1e-300")),
    *((_csv_point(3, value), "csv") for value in (b"-0.5", b"1.0000001", b"7.0")),
    *((_csv_point(4, value), "csv") for value in (b"-0.1", b"1.5")),
    *(
        (_csv_point(index, value), "csv")
        for index in (1, 3, 4)
        for value in (b"nan", b"inf", b"-inf", b"1e400", b"NaN", b"Infinity")
    ),
    *(
        (_json_point(**change), "json")
        for change in (
            dict(stored_count=b"0"), dict(stored_count=b"-3"), dict(contained_total=b"0"),
            dict(entropy=b"-1.0"), dict(precision_expected=b"7.0"),
            dict(precision_observed=b"-0.5"), dict(precision_observed=b"2"),
            dict(entropy=b"NaN"), dict(precision_expected=b"NaN"), dict(precision_observed=b"NaN"),
            dict(entropy=b"Infinity"), dict(entropy=b"1e400"), dict(precision_observed=b"-Infinity"),
            dict(extra=b"9"), dict(S=b"1"),
        )
    ),
    # a float field is a JSON number, not a string or a boolean that float() converts
    *(
        (_json_point(**change), "json")
        for change in (
            dict(entropy=b'"0.5"'), dict(precision_expected=b"true"), dict(precision_observed=b'"1"'),
        )
    ),
]


def test_parse_report_rejects_malformed_text():
    # the malformed points differ from these only in the fields they change or add
    assert parse_report(_json_point(), "json") == parse_report(_csv_point(0, b"1"), "csv")
    assert parse_report(_json_point(), "json").points[0].contained_total == 1
    # range edges a sweep can write
    assert parse_report(_csv_point(4, b"0.0"), "csv").points[0].precision_observed == 0.0
    assert parse_report(_csv_point(3, b"1e-300"), "csv").points[0].precision_expected == 1e-300
    # S / contained underflows to 0.0 once contained passes about S * 10**324
    assert parse_report(_csv_point(3, b"0.0"), "csv").points[0].precision_expected == 0.0
    assert parse_report(_json_point(precision_expected=b"0"), "json").points[0].precision_expected == 0
    assert parse_report(_json_point(entropy=b"3.5"), "json").points[0].entropy == 3.5
    for data, format in MALFORMED_REPORTS:
        with pytest.raises(ParseError):
            parse_report(data, format)


def test_golden_reports_round_trip():
    # every golden sweep file has its case in test_golden, and every sweep case its file
    paths = sorted((Path(__file__).parent / "golden").glob("sweep_*"))
    assert [path.name for path in paths] == sorted(name for name in CASES if name.startswith("sweep_"))
    for path in paths:
        data, format = path.read_bytes(), path.suffix[1:]
        assert emit_report(parse_report(data, format), format) == data


def test_csv_line_ends_do_not_change_the_report():
    data = (Path(__file__).parent / "golden" / "sweep_16x16_seed1.csv").read_bytes()
    report = parse_report(data, "csv")
    assert len(report.points) == 6
    for variant in (data.replace(b"\n", b"\r\n"), data.removesuffix(b"\n")):
        assert parse_report(variant, "csv") == report


def test_a_sweep_whose_expected_precision_underflows_round_trips():
    # 3 stored of a 339-digit contained count: S / contained is below the least float, so 0.0
    report = run_sweep(ExperimentConfig(TableShape(1100, 3), (3,), trials=1, seed=1))
    (point,) = report.points
    assert len(str(point.contained_total)) == 339 and point.precision_expected == 0.0
    for format in ("csv", "json"):
        assert parse_report(emit_report(report, format), format) == report


@given(st.binary() | st.text().map(str.encode), st.sampled_from(["csv", "json"]))
def test_parse_report_raises_only_parse_error(data, format):
    try:
        parse_report(data, format)
    except ParseError:
        pass


def test_report_points_are_plain_records():
    point = SweepPoint(1, 0.0, 1, 1.0, 1.0)
    report = ExperimentReport((point,))
    assert report.points == (point,)


def _scalar_master(config):
    """The master sequence drawn with one ``uniform_index`` call a draw: the
    oracle for the batch draws of ``_master_sequence``."""
    total, base = config.shape.m**config.shape.n, substream_seed(config.seed, 0)
    slots, sequence = {}, []
    for i in range(max(config.stored_counts)):
        if config.distinct:
            # Fisher–Yates: swap slot i with a slot drawn from i..total-1, emit slot i
            j = i + uniform_index(substream_seed(base, i), total - i)
            slots[i], slots[j] = slots.get(j, j), slots.get(i, i)
            index = slots[i]
        else:
            index = uniform_index(substream_seed(base, i), total)
        sequence.append(index)
    return sequence


def _scalar_marks(index, shape):
    """An index decoded digit by digit: the oracle for the halving decode of ``_marks``."""
    digits = []
    for _ in range(shape.n):
        index, digit = divmod(index, shape.m)
        digits.append(digit + 1)
    return tuple(reversed(digits))


@st.composite
def sweep_configs(draw):
    """Small configs: m = 1, powers of two and other m; unsorted, repeated counts."""
    shape = TableShape(draw(st.integers(1, 5)), draw(st.sampled_from([1, 2, 3, 4, 5, 7, 8, 16])))
    distinct = draw(st.booleans())
    largest = min(shape.m**shape.n, 40) if distinct else 40
    counts = draw(st.lists(st.integers(1, largest), min_size=1, max_size=6))
    return ExperimentConfig(
        shape, tuple(counts), draw(st.integers(1, 20)), draw(st.integers(0, 2**64 - 1)), distinct
    )


@given(sweep_configs())
@example(ExperimentConfig(TableShape(4, 1), (1, 1), trials=3, seed=0))
@example(ExperimentConfig(TableShape(3, 1), (5, 2), trials=3, seed=1, distinct=False))
@example(ExperimentConfig(TableShape(2, 4), (16, 3, 16), trials=5, seed=2))
@example(ExperimentConfig(TableShape(13, 10), (40,), trials=1, seed=4))
@example(ExperimentConfig(TableShape(40, 7), (3,), trials=1, seed=5, distinct=False))
# above 1024 values a piece is one digit, read without a table of m entries
@example(ExperimentConfig(TableShape(2, 1025), (7, 3), trials=1, seed=11))
@example(ExperimentConfig(TableShape(2, 1025), (7, 3), trials=1, seed=11, distinct=False))
@example(ExperimentConfig(TableShape(3, 5000), (7,), trials=1, seed=12))
@example(ExperimentConfig(TableShape(3, 5000), (7,), trials=1, seed=12, distinct=False))
@example(ExperimentConfig(TableShape(2, 10**30), (7,), trials=1, seed=13))
@example(ExperimentConfig(TableShape(2, 10**30), (7,), trials=1, seed=13, distinct=False))
# m**n == 1024: a whole digit string is one entry of the decode table
@example(ExperimentConfig(TableShape(10, 2), (40, 7), trials=1, seed=14))
@example(ExperimentConfig(TableShape(10, 2), (40, 7), trials=1, seed=14, distinct=False))
@example(ExperimentConfig(TableShape(5, 4), (40,), trials=1, seed=15))
@example(ExperimentConfig(TableShape(5, 4), (40,), trials=1, seed=15, distinct=False))
# m**n > 1024: each index halves once into table entries
@example(ExperimentConfig(TableShape(11, 2), (40, 7), trials=1, seed=16))
@example(ExperimentConfig(TableShape(11, 2), (40, 7), trials=1, seed=16, distinct=False))
@example(ExperimentConfig(TableShape(6, 4), (40,), trials=1, seed=17))
@example(ExperimentConfig(TableShape(6, 4), (40,), trials=1, seed=17, distinct=False))
@settings(max_examples=150)
def test_master_sequence_matches_scalar_shuffle(config):
    master = experiment._master_sequence(config)
    assert master == _scalar_master(config)
    rows = [_scalar_marks(index, config.shape) for index in master]
    assert experiment._marks(master, config.shape) == [list(column) for column in zip(*rows)]
    if config.distinct:
        assert len(set(master)) == len(master)


def test_sweep_over_10_30_values_builds_no_table_of_values(capsys):
    argv = ["sweep", "--shape", f"2x{10**30}", "--counts", "1,2,3", "--trials", "5", "--seed", "1"]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0
    assert len(out.splitlines()) == 4
    assert peak <= 1 << 20


def test_master_prefixes_are_uniform_ordered_samples():
    # at N=3, S=2 every ordered pair of distinct functions occurs (a Floyd
    # sample never starts with the last one) and no prefix repeats a function
    shape = TableShape(1, 3)
    pairs = Counter()
    for seed in range(600):
        master = experiment._master_sequence(ExperimentConfig(shape, (2,), trials=1, seed=seed))
        pairs[tuple(index + 1 for index in master)] += 1
    assert sorted(pairs) == [pair for pair in itertools.product((1, 2, 3), repeat=2) if pair[0] != pair[1]]
    assert all(abs(count / 600 - 1 / 6) <= 0.06 for count in pairs.values())


@given(sweep_configs())
@example(ExperimentConfig(TableShape(2, 2), (4, 1, 4, 2), trials=5, seed=3))
@example(ExperimentConfig(TableShape(2, 2), (6, 2, 6), trials=5, seed=3, distinct=False))
@settings(max_examples=150)
def test_prefix_pass_matches_superposing_each_prefix(config):
    calls = []
    run_point = experiment._run_point

    def recording(config, position, relation, contained, keys):
        # the sweep extends one keys list as S grows, so keep a copy
        calls.append((position, relation, contained, list(keys)))
        return run_point(config, position, relation, contained, keys)

    with mock.patch.object(experiment, "_run_point", recording):
        report = run_sweep(config)
    master, counts = _scalar_master(config), config.stored_counts
    # every point runs once, in order of S, ties in sweep order
    assert [position for position, _, _, _ in calls] == sorted(
        range(len(counts)), key=counts.__getitem__
    )
    for position, relation, contained, keys in calls:
        stored = master[: counts[position]]
        tables = [FunctionTable(config.shape, _scalar_marks(index, config.shape)) for index in stored]
        assert relation == reduce(superpose, tables, RelationTable(config.shape, ((),) * config.shape.n))
        assert contained == count_contained(relation, "total-on-support")
        assert keys == sorted(set(stored))
        assert report.points[position].precision_expected == len(set(stored)) / contained
        assert report.points[position].stored_count == counts[position]


@pytest.mark.parametrize("distinct", [True, False])
@pytest.mark.parametrize(
    "shape, counts, trials, seed",
    [(TableShape(3, 3), (1, 2, 4, 8), 400, 42), (TableShape(6, 4), (500, 1100, 2100), 200, 11)],
    ids=["3x3", "6x4"],
)
def test_sweep_trials_are_the_public_samplers(shape, counts, trials, seed, distinct):
    # point p's trial t is sample_function on the base b + t * n * gamma, b = substream_seed(seed, 1, p)
    config = ExperimentConfig(shape, counts, trials=trials, seed=seed, distinct=distinct)
    report, master = run_sweep(config), _scalar_master(config)
    replayed = 0
    for position, point in enumerate(report.points):
        stored = {_scalar_marks(index, shape) for index in master[: counts[position]]}
        tables = [FunctionTable(shape, marks) for marks in stored]
        relation = reduce(superpose, tables, RelationTable(shape, ((),) * shape.n))
        if len(stored) == point.contained_total:  # saturated: every trial hits, none is drawn
            assert point.precision_observed == 1.0
            continue
        bases = TrialBases(substream_seed(seed, 1, position), shape.n)
        hits = sum(sample_function(relation, bases).marks in stored for _ in range(trials))
        assert point.precision_observed == hits / trials
        replayed += 1
    assert replayed >= 2


def test_saturating_sweep_builds_no_function_table(monkeypatch):
    built = []
    post_init = FunctionTable.__post_init__

    def counting(self):
        built.append(self.marks)
        post_init(self)

    monkeypatch.setattr(FunctionTable, "__post_init__", counting)
    shape = TableShape(8, 2)
    report = run_sweep(ExperimentConfig(shape, tuple(range(32, 257, 32)), trials=10, seed=1))
    assert report.points[-1].contained_total == 256
    assert report.points[-1].precision_observed == 1.0
    assert built == []
    # the count sees a build
    FunctionTable(shape, (1,) * 8)
    assert built == [(1,) * 8]


def test_saturated_point_runs_no_trial_loop():
    # every function of 8x2 is stored at S=256, so each trial hits without a draw
    calls = []
    count_sorted_hits = experiment._count_sorted_hits

    def counting(*args):
        calls.append(len(args[1]))  # the sweep extends one keys list as S grows
        return count_sorted_hits(*args)

    config = ExperimentConfig(TableShape(8, 2), tuple(range(32, 257, 32)), trials=10, seed=1)
    with mock.patch.object(experiment, "_count_sorted_hits", counting):
        report = run_sweep(config)
    assert calls == list(range(32, 225, 32))
    assert report.points[-1].contained_total == 256
    assert report.points[-1].precision_observed == 1.0
