"""The package's public surface: one name list per module, re-exported whole."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import tabcomp

PUBLIC_NAMES = [
    "ArityError", "ConfigError", "DomainError", "ExperimentConfig", "ExperimentReport",
    "FunctionIndex", "FunctionTable", "InvalidIndexError", "ParseError", "RelationTable",
    "ShapeError", "SweepPoint", "TableDocument", "TableShape", "__version__",
    "anti_diagonal", "contains", "count_contained", "count_functions", "count_hits",
    "decode", "diagonal_of_table", "emit_report", "encode", "entropy", "evaluate",
    "function_from_number", "function_number", "inverse_evaluate",
    "inverse_evaluate_relation", "max_fn", "parse_report", "parse_table_document",
    "random_evaluate", "run_sweep", "sample_function", "serialize_table_document",
    "successor", "superpose", "table_number", "table_shape",
]


def test_all_names_the_public_surface_once():
    assert len(PUBLIC_NAMES) == 41
    assert sorted(tabcomp.__all__) == PUBLIC_NAMES
    assert len(set(tabcomp.__all__)) == len(tabcomp.__all__)


def test_each_name_is_the_object_its_module_defines():
    for name in PUBLIC_NAMES:
        value = getattr(tabcomp, name)
        if name == "__version__":
            assert isinstance(value, str)
            continue
        if name == "FunctionIndex":
            # the one alias: a function table is its own index
            assert value is tabcomp.FunctionTable
            continue
        assert value.__name__ == name
        assert value.__module__.startswith("tabcomp.")
        assert getattr(importlib.import_module(value.__module__), name) is value


def test_star_import_binds_exactly_the_public_names():
    code = (
        "before = set(globals())\n"
        "from tabcomp import *\n"
        "print(' '.join(sorted(set(globals()) - before - {'before'})))\n"
    )
    source = str(Path(tabcomp.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        capture_output=True,
        text=True,
        # PYTHONDONTWRITEBYTECODE passes through (empty when unset, which Python reads as unset),
        # so a run that asks for no .pyc files leaves none in the checkout
        env={"PYTHONPATH": source, "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", "")},
        timeout=60,
        check=True,
    )
    assert result.stderr == ""
    assert result.stdout.split() == PUBLIC_NAMES
