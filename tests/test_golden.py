"""Golden outputs: seeded CLI runs must reproduce their committed stdout byte for byte.

The files under ``tests/golden/`` pin the random streams. A change that alters
any of them is a change to a random stream and must be declared as such; to
re-capture after such a change, run ``python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from tabcomp.cli import main

GOLDEN = Path(__file__).parent / "golden"

_SWEEP_3X3 = ["sweep", "--shape", "3x3", "--counts", "1,2,4,8", "--trials", "2000"]

CASES: dict[str, list[str]] = {
    **{
        f"sweep_3x3_seed{seed}.{format}": _SWEEP_3X3 + ["--seed", str(seed), "--format", format]
        for seed in (42, 5, 9)
        for format in ("csv", "json")
    },
    "sweep_3x3_seed42_repeats.csv": _SWEEP_3X3 + ["--seed", "42", "--no-distinct"],
    "sweep_16x16_seed1.csv": [
        "sweep", "--shape", "16x16", "--counts", "1,2,4,8,16,32", "--trials", "80", "--seed", "1",
    ],
    "sample_seed7.doc": ["sample", str(GOLDEN / "relation_6x5.doc"), "--seed", "7"],
}


def _stdout_of(argv: list[str]) -> bytes:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    assert code == 0
    return buffer.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name):
    assert _stdout_of(CASES[name]) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    for name, argv in CASES.items():
        (GOLDEN / name).write_bytes(_stdout_of(argv))
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
