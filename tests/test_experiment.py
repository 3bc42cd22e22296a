"""Storage/precision sweep: determinism, nesting, statistics, report codec."""

from __future__ import annotations

import math

import pytest

from tabcomp import (
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    ParseError,
    SweepPoint,
    TableShape,
    emit_report,
    parse_report,
    run_sweep,
)


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
    # seed 3 draws 6 functions at 2x2 but only 3 distinct ones, filling the
    # relation, so 3 of the 4 contained functions count as recalled
    shape = TableShape(2, 2)
    report = run_sweep(ExperimentConfig(shape, (6,), trials=100, seed=3, distinct=False))
    point = report.points[0]
    assert point.entropy == pytest.approx(1.0, abs=1e-12)
    assert point.contained_total == 4
    assert point.precision_expected == pytest.approx(0.75, abs=1e-12)


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


def test_parse_report_rejects_malformed_text():
    with pytest.raises(ParseError):
        parse_report(b"no,such,header\n", "csv")
    with pytest.raises(ParseError):
        parse_report(
            b"S,entropy,contained_total,precision_expected,precision_observed\n1,0.0\n",
            "csv",
        )
    with pytest.raises(ParseError):
        parse_report(b"{not json", "json")


def test_report_points_are_plain_records():
    point = SweepPoint(1, 0.0, 1, 1.0, 1.0)
    report = ExperimentReport((point,))
    assert report.points == (point,)
