"""The package's public surface: one name list per module, re-exported whole."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tabcomp

GOLDEN = Path(__file__).parent / "golden"

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


def _child(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``-W error`` on this checkout's package."""
    source = str(Path(tabcomp.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-W", "error", *args],
        capture_output=True,
        text=True,
        # PYTHONDONTWRITEBYTECODE passes through (empty when unset, which Python reads as unset),
        # so a run that asks for no .pyc files leaves none in the checkout
        env={"PYTHONPATH": source, "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", "")},
        timeout=60,
        check=check,
    )


def test_star_import_binds_exactly_the_public_names():
    code = (
        "before = set(globals())\n"
        "from tabcomp import *\n"
        "print(' '.join(sorted(set(globals()) - before - {'before'})))\n"
    )
    result = _child("-c", code)
    assert result.stderr == ""
    assert result.stdout.split() == PUBLIC_NAMES


def test_the_lazy_names_are_the_sweep_modules_own():
    assert importlib.import_module("tabcomp.experiment").__all__ is tabcomp._EXPERIMENT
    # in a fresh interpreter, where nothing has imported the module yet
    _child("-c", "import sys, tabcomp; assert tabcomp.experiment is sys.modules['tabcomp.experiment']")
    # a star import of the sweep's module, before anything else of the package is used
    code = (
        "before = set(globals())\n"
        "from tabcomp.experiment import *\n"
        "print(' '.join(sorted(set(globals()) - before - {'before'})))\n"
    )
    result = _child("-c", code)
    assert result.stderr == ""
    sweep_names = ["ExperimentConfig", "ExperimentReport", "SweepPoint", "emit_report", "parse_report", "run_sweep"]
    assert result.stdout.split() == sweep_names
    # a name resolved on use is still listed, and any other name is still missing
    assert set(tabcomp.__all__) <= set(dir(tabcomp))
    with pytest.raises(AttributeError, match="'no_such_name'"):
        tabcomp.no_such_name  # noqa: B018


def test_only_the_sweep_loads_the_experiment_module():
    code = (
        "import sys\n"
        "from tabcomp import cli\n"
        "cli.main(['number', '--shape', '4x7', '--k', '1 2 4 7'])\n"
        f"cli.main(['entropy', {str(GOLDEN / 'relation_6x5.doc')!r}])\n"
        "print(sorted({'tabcomp.experiment', 'csv', 'json', 'dataclasses', 'inspect'} & set(sys.modules)))\n"
        "cli.main(['sweep', '--shape', '3x3', '--counts', '1,2,4,8', '--trials', '2000', '--seed', '42'])\n"
    )
    result = _child("-c", code)
    assert result.stderr == ""
    names = ("number_4x7.txt", "entropy_6x5.txt", "sweep_3x3_seed42.csv")
    number, entropy, sweep = ((GOLDEN / name).read_text() for name in names)
    assert result.stdout == number + entropy + "[]\n" + sweep


def test_the_sweep_module_writes_and_reads_csv_without_the_csv_module():
    _child("-c", "import sys, tabcomp.experiment; assert 'csv' not in sys.modules")


def test_the_cli_module_runs_as_a_script():
    result = _child("-m", "tabcomp.cli", "number", "--shape", "4x7", "--k", "1 2 4 7")
    assert (result.stdout, result.stderr) == ((GOLDEN / "number_4x7.txt").read_text(), "")
    result = _child("-m", "tabcomp.cli", "nosuchcommand", check=False)
    assert (result.returncode, result.stdout) == (2, "")
    assert "invalid choice: 'nosuchcommand'" in result.stderr
