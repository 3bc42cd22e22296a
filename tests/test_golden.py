"""Golden outputs: seeded CLI runs must reproduce their committed stdout byte for byte.

The files under ``tests/golden/`` pin the random streams, the global
numbering and what the relation commands print. A change that alters any of
them is a change to a random stream, to the numbering or to a relation
operation's answer, and must be declared as such. ``relation_6x5.doc``,
``function_6x5.doc``, ``relation_3x1100.doc`` and ``function_3x1100.doc`` are
inputs only; the 3x1100 pair holds numbers on both sides of 1024, the last
value of the decimal table through which documents up to m = 1024 are read
and written. ``help.txt`` pins ``tabcomp --help`` and each
``tabcomp <command> --help`` word for word, at 80 columns: argparse wraps and
aligns help differently across Python versions, so only the words count.

Runs under pytest, or without it as a script from the repository root:

    PYTHONPATH=src python tests/test_golden.py          # compare, exit 1 on a mismatch
    PYTHONPATH=src python tests/test_golden.py --write  # re-capture every file
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path
from unittest import mock

from tabcomp.cli import _COMMANDS, main

GOLDEN = Path(__file__).parent / "golden"

_SWEEP_3X3 = ["sweep", "--shape", "3x3", "--counts", "1,2,4,8", "--trials", "2000"]
_SWEEP_6X4 = ["sweep", "--shape", "6x4", "--counts", "500,1100,2100", "--trials", "200", "--seed", "11"]
_SWEEP_20X9 = ["sweep", "--shape", "20x9", "--counts", "1,2,3,4", "--trials", "500", "--seed", "4"]
_SWEEP_3X1000000 = [
    "sweep", "--shape", "3x1000000", "--counts", "1000,50000,100000", "--trials", "40", "--seed", "8",
]

# the relation commands read one relation document and one function document
_RELATION = str(GOLDEN / "relation_6x5.doc")
_FUNCTION = str(GOLDEN / "function_6x5.doc")
# rows and digits 1023..1100 and a row written 007, across the decimal table's bound
_RELATION_1100 = str(GOLDEN / "relation_3x1100.doc")
_FUNCTION_1100 = str(GOLDEN / "function_3x1100.doc")

_NUMBERED = {
    "4x7": "1 2 4 7",
    "20x20": " ".join(str(digit) for digit in range(20, 0, -1)),
    "60x60": " ".join(str(7 * column % 61) for column in range(60)),
}

# An argv element that is a Path stands for that golden file's text, so each
# ``unnumber`` case reads back the number its ``number`` case printed.
CASES: dict[str, list[str | Path]] = {
    **{
        f"sweep_3x3_seed{seed}.{format}": _SWEEP_3X3 + ["--seed", str(seed), "--format", format]
        for seed in (42, 5, 9)
        for format in ("csv", "json")
    },
    "sweep_3x3_seed42_repeats.csv": _SWEEP_3X3 + ["--seed", "42", "--no-distinct"],
    "sweep_16x16_seed1.csv": [
        "sweep", "--shape", "16x16", "--counts", "1,2,4,8,16,32", "--trials", "80", "--seed", "1",
    ],
    # the sweep_store config: its last point saturates, every function of 8x2 stored
    "sweep_8x2_seed1.csv": [
        "sweep", "--shape", "8x2", "--counts", "32,64,96,128,160,192,224,256",
        "--trials", "10", "--seed", "1",
    ],
    # keys up to 10**21, past 2**64: the trial loop's many-limb keys, with hits at every point
    "sweep_3x10000000_seed3.csv": [
        "sweep", "--shape", "3x10000000", "--counts", "1,2,3,4,8", "--trials", "2000", "--seed", "3",
    ],
    # masters of 2,100 draws cross the batch draw's 1,024-lane chunks: a count per lane
    # (distinct) and one count in every lane (repeats)
    "sweep_6x4_seed11.csv": _SWEEP_6X4,
    "sweep_6x4_seed11_repeats.csv": _SWEEP_6X4 + ["--no-distinct"],
    # a master of 9**20 ~ 2**63.4 functions rejects about a third of the batch draw's first
    # words: lanes 0, 1 and 3 (distinct) and lanes 0 and 3 (repeats) are redrawn
    "sweep_20x9_seed4.csv": _SWEEP_20X9,
    "sweep_20x9_seed4_repeats.csv": _SWEEP_20X9 + ["--no-distinct"],
    # masters of 100,000 draws of one-digit pieces (width 1, one padding digit): the prefix
    # pass's columns keep growing with S, past every other golden sweep's 2,100 keys
    "sweep_3x1000000_seed8.csv": _SWEEP_3X1000000,
    "sweep_3x1000000_seed8_repeats.csv": _SWEEP_3X1000000 + ["--no-distinct"],
    "sample_seed7.doc": ["sample", _RELATION, "--seed", "7"],
    "superpose_6x5.doc": ["superpose", _RELATION, _FUNCTION],
    "inverse_6x5_value2.txt": ["inverse", _RELATION, "--value", "2"],
    "contains_6x5.txt": ["contains", _RELATION, _FUNCTION],
    "contains_6x5_sample_seed7.txt": ["contains", _RELATION, str(GOLDEN / "sample_seed7.doc")],
    "contained_count_6x5.txt": ["contained-count", _RELATION],
    "contained_count_partial_6x5.txt": ["contained-count", _RELATION, "--mode", "including-partial"],
    "entropy_6x5.txt": ["entropy", _RELATION],
    # the same relation commands read a function document as the relation it is
    "inverse_function_6x5_value2.txt": ["inverse", _FUNCTION, "--value", "2"],
    "entropy_function_6x5.txt": ["entropy", _FUNCTION],
    "contained_count_function_6x5.txt": ["contained-count", _FUNCTION],
    "contained_count_partial_function_6x5.txt": [
        "contained-count", _FUNCTION, "--mode", "including-partial",
    ],
    "sample_function_6x5_seed7.doc": ["sample", _FUNCTION, "--seed", "7"],
    "superpose_function_6x5.doc": ["superpose", _FUNCTION, _FUNCTION],
    "superpose_3x1100.doc": ["superpose", _RELATION_1100, _FUNCTION_1100],
    "encode_function_3x1100.txt": ["encode", _FUNCTION_1100],
    "inverse_3x1100_value1024.txt": ["inverse", _RELATION_1100, "--value", "1024"],
    **{f"number_{shape}.txt": ["number", "--shape", shape, "--k", k] for shape, k in _NUMBERED.items()},
    **{f"unnumber_{shape}.txt": ["unnumber", GOLDEN / f"number_{shape}.txt"] for shape in _NUMBERED},
}


def _run(argv: list[str | Path]) -> tuple[int, bytes]:
    """Exit status and stdout bytes of one CLI run."""
    argv = [arg.read_text().strip() if isinstance(arg, Path) else arg for arg in argv]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue().encode("utf-8")


def _help_text() -> str:
    """``tabcomp --help`` and each ``tabcomp <command> --help``, each after a ``$`` line."""
    pages = []
    with mock.patch.dict(os.environ, {"COLUMNS": "80", "NO_COLOR": "1"}):
        os.environ.pop("FORCE_COLOR", None)  # argparse colours help from Python 3.14 on
        for argv in [["--help"]] + [[name, "--help"] for name in _COMMANDS]:
            code, output = _run(argv)
            assert code == 0
            pages.append(f"$ tabcomp {' '.join(argv)}\n{output.decode('utf-8')}")
    return "\n".join(pages)


def _help_words(text: str) -> list[str]:
    """Help text as its words, across the versions argparse formats it in.

    Python 3.10 alone appends "(default: True)" to the --distinct help.
    """
    return text.replace(" (default: True)", "").split()


def pytest_generate_tests(metafunc):
    if "name" in metafunc.fixturenames:
        metafunc.parametrize("name", sorted(CASES))


def test_golden_bytes(name):
    assert _run(CASES[name]) == (0, (GOLDEN / name).read_bytes())


def test_help_text():
    assert _help_words(_help_text()) == _help_words((GOLDEN / "help.txt").read_text())


if __name__ == "__main__":
    write = sys.argv[1:] == ["--write"]
    if sys.argv[1:] not in ([], ["--write"]):
        sys.exit(f"usage: {sys.argv[0]} [--write]")
    mismatches = 0
    # insertion order: each number file is written before its unnumber case reads it
    for name, argv in CASES.items():
        path = GOLDEN / name
        code, output = _run(argv)
        if code == 0 and write:
            path.write_bytes(output)
            print(f"wrote {path}", file=sys.stderr)
        elif code != 0 or not path.exists() or output != path.read_bytes():
            mismatches += 1
            print(f"MISMATCH {path} (exit {code})", file=sys.stderr)
    help_path = GOLDEN / "help.txt"
    if write:
        help_path.write_text(_help_text())
        print(f"wrote {help_path}", file=sys.stderr)
    else:
        print(f"{len(CASES) - mismatches} of {len(CASES)} golden files match", file=sys.stderr)
        if _help_words(_help_text()) != _help_words(help_path.read_text()):
            mismatches += 1
            print(f"MISMATCH {help_path}", file=sys.stderr)
    sys.exit(1 if mismatches else 0)
