"""Command-line behavior: outputs, determinism, exit-status contract."""

from __future__ import annotations

import contextlib
import errno
import io
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
import types

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from tabcomp import cli, experiment, relations
from tabcomp.cli import main
from tabcomp.enumeration import FunctionIndex, TableShape, function_number
from tabcomp.errors import DomainError, check_result_digits

F1247 = "table 4 7 function\n1 2 4 7\n"
FULL22 = "table 2 2 relation\ncol 1: 1 2\ncol 2: 1 2\n"

DOC_TEXTS = {
    "f1247": F1247,
    "full22": FULL22,
    "f12": "table 2 2 function\n1 2\n",
    "f21": "table 2 2 function\n2 1\n",
    "partial": "table 2 2 function\n2 0\n",
    "bad": "table 2 2 function\n3 0\n",
    "rel32": "table 3 2 relation\ncol 1: 1 2\ncol 2:\ncol 3: 2\n",
}
# 2**20000 partial functions, 6021 decimal digits
WIDE = "table 20000 1 relation\n" + "".join(f"col {i}: 1\n" for i in range(1, 20001))


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    root = tmp_path_factory.mktemp("docs")
    paths = {}
    for name, text in {**DOC_TEXTS, "wide": WIDE}.items():
        path = root / f"{name}.doc"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr(
            sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin.encode("utf-8")), encoding="utf-8")
        )
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_encode(capsys, docs):
    assert run_cli(capsys, ["encode", docs["f1247"]]) == (0, "1 2 4 7\n", "")


def test_encode_reads_stdin_by_default(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["encode"], stdin=F1247, monkeypatch=monkeypatch)
    assert (code, out) == (0, "1 2 4 7\n")
    code, out, _ = run_cli(capsys, ["encode", "-"], stdin=F1247, monkeypatch=monkeypatch)
    assert (code, out) == (0, "1 2 4 7\n")


def test_stdin_without_a_byte_buffer_is_read_as_text(capsys, monkeypatch):
    # a replaced sys.stdin, such as io.StringIO, has no .buffer
    monkeypatch.setattr(sys, "stdin", io.StringIO(F1247))
    assert run_cli(capsys, ["encode"]) == (0, "1 2 4 7\n", "")
    monkeypatch.setattr(sys, "stdin", io.StringIO("table 4 7 function\n1 2 4\n"))
    code, out, _ = run_cli(capsys, ["encode"])
    assert (code, out) == (2, "")
    # the text is parsed as it is, not encoded first: a lone surrogate is a malformed digit
    monkeypatch.setattr(sys, "stdin", io.StringIO("table 2 2 function\n\udc80 1\n"))
    message = "error: line 2, column 1: digit '\\udc80' is not a decimal integer\n"
    assert run_cli(capsys, ["encode"]) == (2, "", message)


def test_an_unreadable_stdin_exits_2_with_one_line(capsys, monkeypatch):
    # file descriptor 0 closed at start (`tabcomp encode - <&-`) leaves sys.stdin None
    monkeypatch.setattr(sys, "stdin", None)
    assert run_cli(capsys, ["encode", "-"]) == (2, "", "error: cannot read standard input: it is closed\n")

    # a standard input object closed in this process (`sys.stdin.close()`) is refused alike
    closed = io.StringIO("function 1x1\n1\n")
    closed.close()
    monkeypatch.setattr(sys, "stdin", closed)
    assert run_cli(capsys, ["encode", "-"]) == (2, "", "error: cannot read standard input: it is closed\n")

    # a write-only descriptor 0 (`tabcomp encode - 0>/dev/null`) fails when read
    def read():
        raise OSError(errno.EBADF, "Bad file descriptor")

    monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(read=read))
    message = "error: cannot read standard input: Bad file descriptor\n"
    assert run_cli(capsys, ["encode"]) == (2, "", message)
    assert run_cli(capsys, ["sample", "-", "--seed", "1"]) == (2, "", message)


def test_an_unwritable_stdout_exits_2_with_one_line(capsys, monkeypatch):
    def fail(error):
        def raise_(*_):
            raise error
        return raise_

    # a full device (`tabcomp number ... >/dev/full`) refuses the write itself
    full = OSError(errno.ENOSPC, "No space left on device")
    monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=fail(full), flush=lambda: None))
    message = "error: cannot write standard output: No space left on device\n"
    assert run_cli(capsys, ["number", "--shape", "4x7", "--k", "1 2 4 7"]) == (2, "", message)

    # a closed pipe (`tabcomp decode ... | true`) refuses the buffered text when it is flushed
    closed = BrokenPipeError(errno.EPIPE, "Broken pipe")
    monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=len, flush=fail(closed)))
    message = "error: cannot write standard output: Broken pipe\n"
    assert run_cli(capsys, ["decode", "--shape", "4x7", "--k", "1 2 4 7"]) == (2, "", message)

    # file descriptor 1 closed when Python started (`tabcomp number ... >&-`): sys.stdout is None,
    # for a one-line answer, a document and a report alike
    monkeypatch.setattr(sys, "stdout", None)
    message = "error: cannot write standard output: it is closed\n"
    for argv in (
        ["number", "--shape", "4x7", "--k", "1 2 4 7"],
        ["decode", "--shape", "4x7", "--k", "1 2 4 7"],
        ["sweep", "--shape", "2x2", "--counts", "1,2", "--trials", "4", "--seed", "1"],
    ):
        assert run_cli(capsys, argv) == (2, "", message)

    # a standard output object closed in this process (`sys.stdout.close()`) is refused alike
    closed = io.StringIO()
    closed.close()
    monkeypatch.setattr(sys, "stdout", closed)
    assert run_cli(capsys, ["number", "--shape", "4x7", "--k", "1 2 4 7"]) == (2, "", message)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
def test_a_real_unwritable_stdout_exits_2_with_one_line():
    # a fresh interpreter with a buffered stdout: the text a failed flush leaves in the buffer
    # must not be flushed, and refused, again at shutdown ("Exception ignored ...", status 120)
    source = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {"PYTHONPATH": source, "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", "")}
    read_end, write_end = os.pipe()
    os.close(read_end)  # a pipe nobody reads: a write to it is EPIPE
    with open("/dev/full", "wb") as full:
        for stdout, reason in ((full, "No space left on device"), (write_end, "Broken pipe")):
            result = subprocess.run(
                [sys.executable, "-m", "tabcomp.cli", "number", "--shape", "4x7", "--k", "1 2 4 7"],
                stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
            assert (result.returncode, result.stderr) == (2, f"error: cannot write standard output: {reason}\n")
    os.close(write_end)
    # file descriptor 1 closed (`tabcomp decode ... >&-`): Python starts with sys.stdout None
    result = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh",
         sys.executable, "-m", "tabcomp.cli", "decode", "--shape", "4x7", "--k", "1 2 4 7"],
        stderr=subprocess.PIPE, text=True, env=env, timeout=60,
    )
    assert (result.returncode, result.stderr) == (2, "error: cannot write standard output: it is closed\n")
    # sys.stdout closed in the process before main runs: nothing is flushed to it at shutdown
    program = 'import sys; from tabcomp import cli; sys.stdout.close(); sys.exit(cli.main(sys.argv[1:]))'
    result = subprocess.run(
        [sys.executable, "-c", program, "number", "--shape", "4x7", "--k", "1 2 4 7"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        2, "", "error: cannot write standard output: it is closed\n"
    )


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "none"])
@pytest.mark.parametrize("argv", [["--help"], ["number", "--help"], ["--version"]], ids=" ".join)
def test_argparse_text_to_an_unwritable_stdout_exits_2_with_one_line(capsys, monkeypatch, argv, closed):
    # argparse writes --help and --version itself; they reach standard output through main alike
    stdout = io.StringIO() if closed else None
    if closed:
        stdout.close()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: cannot write standard output: it is closed\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
def test_a_real_help_to_a_full_device_exits_2_with_one_line():
    source = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    with open("/dev/full", "wb") as full:
        result = subprocess.run(
            [sys.executable, "-m", "tabcomp.cli", "--help"],
            stdout=full, stderr=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": source}, timeout=60,
        )
    message = "error: cannot write standard output: No space left on device\n"
    assert (result.returncode, result.stderr) == (2, message)


def _refusing(error: OSError) -> types.SimpleNamespace:
    """A standard stream whose every write raises ``error``, as on a full device."""
    def write(text):
        raise error
    return types.SimpleNamespace(write=write, flush=lambda: None)


FULL = OSError(errno.ENOSPC, "No space left on device")


def _unwritable(kind: str):
    if kind == "full":
        return _refusing(FULL)
    if kind == "none":
        return None
    closed = io.StringIO()
    closed.close()
    return closed


@pytest.mark.parametrize("kind", ["closed", "none", "full"])
def test_an_unwritable_stderr_keeps_the_exit_status(capsys, monkeypatch, kind):
    # `sys.stderr.close()` before main runs, file descriptor 2 closed at start (sys.stderr None),
    # or a stderr on a full device: the message line is skipped, never sent to stdout, nothing
    # is raised, and each exit status stands
    stderr = _unwritable(kind)
    monkeypatch.setattr(sys, "stderr", stderr)
    for argv, status in (
        (["number", "--shape", "4x7", "--k", "1 2 9 7"], 1),  # a domain error
        (["unnumber", "abc"], 2),  # argparse's usage error
        (["encode", "no-such-file.doc"], 2),  # malformed input: an unreadable file
    ):
        assert main(argv) == status
        assert capsys.readouterr().out == ""
        assert sys.stderr is stderr
    assert main(["number", "--shape", "4x7", "--k", "1 2 4 7"]) == 0
    assert capsys.readouterr().out == "293561\n"
    # a successful command whose standard output fails too: the status alone tells
    monkeypatch.setattr(sys, "stdout", _refusing(FULL))
    assert main(["number", "--shape", "4x7", "--k", "1 2 4 7"]) == 2


def test_a_real_closed_stderr_exits_with_its_status_and_no_dump():
    source = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    program = "import sys; from tabcomp import cli; sys.stderr.close(); sys.exit(cli.main(sys.argv[1:]))"
    for argv, status in ((["number", "--shape", "4x7", "--k", "1 2 9 7"], 1), (["unnumber", "abc"], 2)):
        result = subprocess.run(
            [sys.executable, "-c", program, *argv], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": source}, timeout=60,
        )
        assert (result.returncode, result.stdout, result.stderr) == (status, "", "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
def test_a_real_unwritable_stderr_keeps_the_exit_status():
    # the message line is refused by a full device or a pipe nobody reads; the exit status stands,
    # with no second failure ("Exception ignored ...", status 120) when a buffered stderr is
    # flushed again at shutdown, or when it is unbuffered
    source = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    encode = [sys.executable, "-m", "tabcomp.cli", "encode", "no-such.doc"]
    number = [sys.executable, "-m", "tabcomp.cli", "number", "--shape", "4x7", "--k", "1 2 4 7"]
    read_end, write_end = os.pipe()
    os.close(read_end)  # a pipe nobody reads: a write to it is EPIPE
    try:
        with open("/dev/full", "wb") as full:
            for unbuffered in ("", "1"):
                env = {
                    "PYTHONPATH": source,
                    "PYTHONUNBUFFERED": unbuffered,
                    "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
                }
                for argv, stdout, stderr in (
                    (encode, subprocess.PIPE, full),
                    (number, full, full),
                    (encode, subprocess.PIPE, write_end),
                ):
                    result = subprocess.run(argv, stdout=stdout, stderr=stderr, env=env, timeout=60)
                    assert (result.returncode, result.stdout or b"") == (2, b""), (argv, stderr, unbuffered)
    finally:
        os.close(write_end)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
def test_a_failed_stdout_write_leaves_no_descriptor_open(capsys, monkeypatch):
    # a failed write points the stream's descriptor at devnull, so each call gets a fresh full device
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(20):
        with open("/dev/full", "w") as full:
            monkeypatch.setattr(sys, "stdout", full)
            assert main(["number", "--shape", "4x7", "--k", "1 2 4 7"]) == 2
    monkeypatch.undo()
    assert len(os.listdir("/proc/self/fd")) == before
    assert capsys.readouterr().err == "error: cannot write standard output: No space left on device\n" * 20


def test_an_in_memory_stdout_that_refuses_a_write_exits_2(capsys, monkeypatch):
    # an in-memory stream has a fileno method that raises: nothing is sent to devnull, nothing raised
    class Full(io.StringIO):
        def write(self, text):
            raise FULL

    monkeypatch.setattr(sys, "stdout", Full())
    message = "error: cannot write standard output: No space left on device\n"
    assert run_cli(capsys, ["number", "--shape", "4x7", "--k", "1 2 4 7"]) == (2, "", message)


def test_decode(capsys):
    code, out, _ = run_cli(capsys, ["decode", "--shape", "4x7", "--k", "1 2 4 7"])
    assert (code, out) == (0, F1247)


def test_number(capsys):
    code, out, _ = run_cli(capsys, ["number", "--shape", "4x7", "--k", "1 2 4 7"])
    assert (code, out) == (0, "293561\n")


def test_unnumber(capsys):
    code, out, _ = run_cli(capsys, ["unnumber", "1"])
    assert (code, out) == (0, "shape 1x1\nk 0\n")
    code, out, _ = run_cli(capsys, ["unnumber", "293561"])
    assert (code, out) == (0, "shape 4x7\nk 1 2 4 7\n")


def test_shape(capsys):
    assert run_cli(capsys, ["shape", "52"]) == (0, "4x7\n", "")


def test_count(capsys):
    assert run_cli(capsys, ["count", "--shape", "4x7"]) == (0, "4096\n", "")


def test_eval(capsys, docs):
    assert run_cli(capsys, ["eval", docs["f1247"], "--arg", "3"]) == (0, "4\n", "")
    assert run_cli(capsys, ["eval", docs["partial"], "--arg", "2"]) == (0, "undefined\n", "")


def test_inverse(capsys, docs):
    assert run_cli(capsys, ["inverse", docs["f1247"], "--value", "7"]) == (0, "4\n", "")
    assert run_cli(capsys, ["inverse", docs["f1247"], "--value", "3"]) == (0, "\n", "")
    # relation documents report every marked column of the row
    assert run_cli(capsys, ["inverse", docs["rel32"], "--value", "2"]) == (0, "1 3\n", "")


def test_entropy(capsys, docs):
    assert run_cli(capsys, ["entropy", docs["f1247"]]) == (0, "0.0\n", "")
    assert run_cli(capsys, ["entropy", docs["full22"]]) == (0, "1.0\n", "")


def test_entropy_of_a_relation_with_huge_m(capsys, tmp_path):
    path = tmp_path / "huge_m.doc"
    path.write_text("table 1 1000000000000000000000000000000 relation\ncol 1: 1\n")
    assert run_cli(capsys, ["entropy", str(path)]) == (0, "0.0\n", "")


def test_number_past_the_int_digit_limit_is_malformed(capsys, tmp_path, monkeypatch):
    # int() refuses more digits than sys.get_int_max_str_digits() (4300 by default)
    limit, long = sys.get_int_max_str_digits(), "1" * 5000
    monkeypatch.setenv("NO_COLOR", "1")
    monkeypatch.delenv("FORCE_COLOR", raising=False)  # argparse colours errors from Python 3.14 on
    path = tmp_path / "long_n.doc"
    path.write_text(f"table {long} 2 relation\ncol 1:\n")
    message = f"error: line 1, column 7: argument count has more than {limit} decimal digits\n"
    assert run_cli(capsys, ["entropy", str(path)]) == (2, "", message)
    path.write_text(f"table 2 3 relation\ncol 1: {long}\ncol 2:\n")
    message = f"error: line 2, column 8: row has more than {limit} decimal digits\n"
    assert run_cli(capsys, ["entropy", str(path)]) == (2, "", message)
    # a flag value names the limit, not the value, as a document token does
    past = f"value has more than {limit} decimal digits\n"
    assert run_cli(capsys, ["unnumber", long]) == (
        2, "", f"usage: tabcomp unnumber [-h] number\ntabcomp unnumber: error: argument number: {past}"
    )
    assert run_cli(capsys, ["decode", "--shape", "2x3", "--k", f"1 {long}"]) == (
        2, "", f"usage: tabcomp decode [-h] --shape SHAPE --k K\ntabcomp decode: error: argument --k: {past}"
    )


def _run_with_peak(capsys, argv):
    """run_cli's result and the tracemalloc peak while it runs."""
    tracemalloc.start()
    try:
        result = run_cli(capsys, argv)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("row", ["200000000", "999999999999"])
def test_high_rows_exit_0_within_1_mb(capsys, tmp_path, row):
    # a column holds the rows it lists, not a bit per row up to the highest
    path = tmp_path / "high_row.doc"
    path.write_text(f"table 1 {10**30} relation\ncol 1: {row}\n")
    result, peak = _run_with_peak(capsys, ["entropy", str(path)])
    assert result == (0, "0.0\n", "")
    assert peak <= 1 << 20


@pytest.mark.parametrize("digits", ["200000000", f"1 {2**26 - 1} 2 1"])
def test_high_function_marks_exit_0_within_1_mb(capsys, tmp_path, digits):
    # entropy views the function as a relation, one row a marked column
    path = tmp_path / "high_digit.doc"
    path.write_text(f"table {len(digits.split())} {10**30} function\n{digits}\n")
    result, peak = _run_with_peak(capsys, ["entropy", str(path)])
    assert result == (0, "0.0\n", "")
    assert peak <= 1 << 20


@pytest.mark.parametrize(
    "value, columns", [("99999999999999999999999", "3"), ("5000000000", "1"), ("1", "1"), ("2", "")]
)
def test_inverse_of_a_relation_with_a_huge_value_count_within_1_mb(capsys, tmp_path, value, columns):
    # a row is looked up in each column's marked rows, never turned into a 1 << (value - 1) mask
    path = tmp_path / "huge_m.doc"
    path.write_text(f"table 3 {10**23} relation\ncol 1: 1 5000000000\ncol 2:\ncol 3: {10**23 - 1}\n")
    result, peak = _run_with_peak(capsys, ["inverse", str(path), "--value", value])
    assert result == (0, columns + "\n", "")
    assert peak <= 1 << 20


def test_function_marks_at_the_mark_bound_are_accepted(capsys, tmp_path):
    path = tmp_path / "at_bound.doc"
    path.write_text(f"table 2 {10**30} function\n{2**25} {2**25}\n")
    assert run_cli(capsys, ["entropy", str(path)])[:2] == (0, "0.0\n")


def test_superpose(capsys, docs):
    code, out, _ = run_cli(capsys, ["superpose", docs["f12"], docs["f21"]])
    assert (code, out) == (0, FULL22)


def test_contains(capsys, docs):
    assert run_cli(capsys, ["contains", docs["full22"], docs["f12"]]) == (0, "true\n", "")
    # a function document is accepted as a one-function relation
    assert run_cli(capsys, ["contains", docs["f12"], docs["f21"]]) == (0, "false\n", "")


def test_contained_count(capsys, docs):
    assert run_cli(capsys, ["contained-count", docs["full22"]]) == (0, "4\n", "")
    code, out, _ = run_cli(
        capsys, ["contained-count", docs["full22"], "--mode", "including-partial"]
    )
    assert (code, out) == (0, "9\n")


def test_sample_is_deterministic(capsys, docs):
    first = run_cli(capsys, ["sample", docs["full22"], "--seed", "7"])
    second = run_cli(capsys, ["sample", docs["full22"], "--seed", "7"])
    assert first == second
    code, out, _ = first
    assert code == 0
    assert out.startswith("table 2 2 function\n")


def test_sample_takes_every_seed_of_the_range(capsys, docs):
    for seed in (0, (1 << 64) - 1):
        code, out, err = run_cli(capsys, ["sample", docs["full22"], "--seed", str(seed)])
        assert (code, err) == (0, "") and out.startswith("table 2 2 function\n")


def test_sample_of_a_function_document_returns_it(capsys, docs):
    code, out, _ = run_cli(capsys, ["sample", docs["partial"], "--seed", "1"])
    assert (code, out) == (0, DOC_TEXTS["partial"])


def test_antidiag(capsys):
    code, out, _ = run_cli(capsys, ["antidiag", "--shape", "2x2", "--k", "0 0", "--k", "0 0"])
    assert (code, out) == (0, "1 1\n")


def test_sweep_csv(capsys):
    argv = ["sweep", "--shape", "3x3", "--counts", "1,2,4,8", "--trials", "200", "--seed", "42"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "S,entropy,contained_total,precision_expected,precision_observed"
    assert lines[1] == "1,0.0,1,1.0,1.0"
    assert len(lines) == 5


def test_sweep_json(capsys):
    argv = [
        "sweep", "--shape", "2x2", "--counts", "1,2", "--trials", "50",
        "--seed", "1", "--format", "json",
    ]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out.lstrip().startswith("[")
    assert '"stored_count": 1' in out


def test_sweep_reruns_are_byte_identical(capsys):
    argv = ["sweep", "--shape", "3x3", "--counts", "1,2,4", "--trials", "300", "--seed", "9"]
    assert run_cli(capsys, argv) == run_cli(capsys, argv)


def test_sweep_workers_do_not_change_output(capsys):
    base = ["sweep", "--shape", "3x3", "--counts", "1,2,4,8", "--trials", "300", "--seed", "5"]
    single = run_cli(capsys, base + ["--workers", "1"])
    threaded = run_cli(capsys, base + ["--workers", "3"])
    assert single == threaded


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, ["--version"])
    assert code == 0
    assert out.startswith("tabcomp ")


# (argv, stdin, exit status, last stderr line): cli.main writes an "error: ..." line whole;
# a usage error ends with argparse's own message, its prefix and choice quoting vary by version
EXIT_CORPUS = [
    # domain and validation errors leave status 1
    (["eval", "{f1247}", "--arg", "9"], None, 1, "error: argument 9 outside columns 1..4"),
    (["eval", "{full22}", "--arg", "1"], None, 1,
     "error: eval needs a function document; use sample for relations"),
    (["encode", "{full22}"], None, 1, "error: encode needs a function document"),
    (["decode", "--shape", "2x2", "--k", "3 0"], None, 1, "error: digit 3 at position 1 outside 0..2"),
    (["decode", "--shape", "2x2", "--k", "1"], None, 1, "error: expected 2 digits for shape 2x2, got 1"),
    (["count", "--shape", "0x2"], None, 1, "error: argument count n must be a positive integer, got 0"),
    (["unnumber", "0"], None, 1, "error: global function number must be a positive integer, got 0"),
    (["shape", "0"], None, 1, "error: table number must be a positive integer, got 0"),
    (["inverse", "{f1247}", "--value", "8"], None, 1, "error: value 8 outside rows 1..7"),
    (["contains", "{full22}", "{f1247}"], None, 1, "error: shape mismatch: 2x2 vs 4x7"),
    (["superpose", "{f12}", "{f1247}"], None, 1, "error: shape mismatch: 2x2 vs 4x7"),
    (["antidiag", "--shape", "2x2", "--k", "0 0"], None, 1,
     "error: shape 2x2 needs exactly 2 functions, got 1"),
    (["sweep", "--shape", "2x2", "--counts", "5", "--trials", "10", "--seed", "1"], None, 1,
     "error: cannot store 5 distinct total functions in shape 2x2; only 4 exist"),
    (["sweep", "--shape", "2x2", "--counts", "1", "--trials", "0", "--seed", "1"], None, 1,
     "error: trials 0 is not a positive integer"),
    (["sweep", "--shape", "2x2", "--counts", "1", "--trials", "10", "--seed", "-1"], None, 1,
     "error: seed -1 outside 0..2**64-1"),
    # malformed input, unreadable files, and usage errors leave status 2
    (["eval", "{bad}", "--arg", "1"], None, 2, "error: line 2, column 1: digit 3 exceeds value count 2"),
    (["eval", "-", "--arg", "1"], "table 2 2 function\n3 0\n", 2,
     "error: line 2, column 1: digit 3 exceeds value count 2"),
    (["encode", "/nonexistent/missing.doc"], None, 2,
     "error: cannot read /nonexistent/missing.doc: No such file or directory"),
    (["nosuchcommand"], None, 2,
     "argument command: invalid choice: 'nosuchcommand' (choose from 'encode', 'decode', 'number', "
     "'unnumber', 'shape', 'count', 'eval', 'inverse', 'entropy', 'superpose', 'contains', "
     "'contained-count', 'sample', 'antidiag', 'sweep')"),
    ([], None, 2, "the following arguments are required: command"),
    (["decode", "--shape", "4by7", "--k", "0 0 0 0"], None, 2,
     "argument --shape: shape must look like '4x7', got '4by7'"),
    (["decode", "--shape", "4x7"], None, 2, "the following arguments are required: --k"),
    (["decode", "--shape", "4x7", "--k", "1 a 4 7"], None, 2,
     "argument --k: digits must be space-separated non-negative integers, got '1 a 4 7'"),
    (["unnumber", "abc"], None, 2, "argument number: expected a decimal integer, got 'abc'"),
    (["eval", "{f1247}", "--arg", "x"], None, 2, "argument --arg: expected a decimal integer, got 'x'"),
    (["superpose", "{f12}"], None, 2, "error: superpose needs at least two documents"),
    (["superpose", "-", "-"], "table 2 2 function\n1 2\n", 2,
     "error: standard input '-' may appear at most once"),
    (["contained-count", "{full22}", "--mode", "bogus"], None, 2,
     "argument --mode: invalid choice: 'bogus' (choose from 'total-on-support', 'including-partial')"),
    (["sweep", "--shape", "2x2", "--counts", "1;2", "--trials", "10", "--seed", "1"], None, 2,
     "argument --counts: counts must be comma-separated non-negative integers, got '1;2'"),
    (["sweep", "--shape", "2x2", "--counts", "1,2", "--trials", "10", "--seed", "1", "--format", "xml"],
     None, 2, "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')"),
    # only ASCII digits are digits: int() and \d also accept other scripts
    (["decode", "--shape", "\uff12x\uff12", "--k", "1 2"], None, 2,
     "argument --shape: shape must look like '4x7', got '\uff12x\uff12'"),
    (["decode", "--shape", "2x2\n", "--k", "1 2"], None, 2,
     "argument --shape: shape must look like '4x7', got '2x2\\n'"),
    (["decode", "--shape", "2x2", "--k", "\uff11 \u0662"], None, 2,
     "argument --k: digits must be space-separated non-negative integers, got '\uff11 \u0662'"),
    (["sweep", "--shape", "2x2", "--counts", "\uff11,2", "--trials", "10", "--seed", "1"], None, 2,
     "argument --counts: counts must be comma-separated non-negative integers, got '\uff11,2'"),
    (["sweep", "--shape", "2x2", "--counts", "1", "--trials", "\u0663", "--seed", "1"], None, 2,
     "argument --trials: expected a decimal integer, got '\u0663'"),
    (["unnumber", "\u0663"], None, 2, "argument number: expected a decimal integer, got '\u0663'"),
    (["encode", "-"], "table 2 2 function\n\uff11 \u0663\n", 2,
     "error: line 2, column 1: digit '\uff11' is not a decimal integer"),
]

# results with more decimal digits than str() writes leave status 1, refused before the work
OVERSIZED = [
    ["count", "--shape", "1000000000x2"],
    ["count", "--shape", "30000000x2"],
    ["count", "--shape", f"{10**400}x2"],
    ["number", "--shape", "1x100000", "--k", "0"],
    ["number", "--shape", "1x5000", "--k", "0"],
    ["sweep", "--shape", "20000x2", "--counts", "1,5", "--trials", "100", "--seed", "1"],
    ["contained-count", "{wide}", "--mode", "including-partial"],
]
TOO_LARGE = f"error: the result has more than {sys.get_int_max_str_digits()} decimal digits"
EXIT_CORPUS += [(argv, None, 1, TOO_LARGE) for argv in OVERSIZED]
EXIT_CORPUS += [
    (["encode", "-"], "table 0 3 function\n", 2,
     "error: line 1, column 7: argument count must be at least 1"),
    # malformed relation documents: a row line that fails its one check is positioned token by token
    (["entropy", "-"], "table 1 3 relation\ncol 1: 2 1\n", 2,
     "error: line 2, column 10: rows must be strictly ascending, got 1 after 2"),
    (["entropy", "-"], "table 1 3 relation\ncol 1: 2 2\n", 2,
     "error: line 2, column 10: rows must be strictly ascending, got 2 after 2"),
    (["entropy", "-"], "table 2 3 relation\ncol 1: 1\ncol 2: 0 2\n", 2,
     "error: line 3, column 8: row 0 outside 1..3"),
    (["entropy", "-"], "table 2 3 relation\ncol 1: 1 2 3\ncol 2: 4\n", 2,
     "error: line 3, column 8: row 4 outside 1..3"),
    (["entropy", "-"], "table 2 3 relation\ncol 1: 1\n", 2, "error: line 3, column 1: expected 'col 2:' line"),
    (["entropy", "-"], "table 2 3 relation\ncol 1: 1\ncol 2: 3\ncol 3: 2\n", 2,
     "error: line 4, column 1: unexpected content after table"),
    # the body's lines are read in one pass, each before any line after it
    (["encode", "-"], "table 2 2 function\n1 2\n1 2\n", 2,
     "error: line 3, column 1: unexpected content after table"),
    (["encode", "-"], "table 2 2 function\n3 0\n1 2\n", 2,
     "error: line 2, column 1: digit 3 exceeds value count 2"),
    (["entropy", "-"], "table 2 3 relation\ncol 1: 1\ncol 2: x\ncol 3: 1\n", 2,
     "error: line 3, column 8: row 'x' is not a decimal integer"),
]
# a malformed flag value is shown up to its first 40 characters, then "..."
LONG_VALUES = [
    (["decode", "--shape", "x" * 5000, "--k", "1"], None, 2,
     "argument --shape: shape must look like '4x7', got '" + "x" * 40 + "'..."),
    (["decode", "--shape", "2x3", "--k", "1_" + "2" * 4998], None, 2,
     "argument --k: digits must be space-separated non-negative integers, got '1_" + "2" * 38 + "'..."),
    (["sweep", "--shape", "2x2", "--counts", "1;" * 2500, "--trials", "10", "--seed", "1"], None, 2,
     "argument --counts: counts must be comma-separated non-negative integers, got '" + "1;" * 20 + "'..."),
    (["unnumber", "0x" + "f" * 4998], None, 2,
     "argument number: expected a decimal integer, got '0x" + "f" * 38 + "'..."),
]
EXIT_CORPUS += LONG_VALUES
# sample refuses what sweep refuses, a seed outside 0..2**64-1: random.Random would seed -5 as 5
EXIT_CORPUS += [
    (["sample", "{full22}", "--seed", "-5"], None, 1, "error: seed -5 outside 0..2**64-1"),
    (["sample", "{full22}", "--seed", str(1 << 64)], None, 1, f"error: seed {1 << 64} outside 0..2**64-1"),
]
# a path open refuses, here for its NUL byte, is malformed input like any path that cannot be read
EXIT_CORPUS += [(["encode", "a\x00b"], None, 2, "error: cannot read a\x00b: embedded null byte")]
# each case keeps the id pytest gave it when the corpus had no stderr line
EXIT_IDS = [f"argv_template{case}-{stdin}-{expected}" for case, (_, stdin, expected, _) in enumerate(EXIT_CORPUS)]


def _unquoted(text: str) -> str:
    return text.replace("'", "")


@pytest.mark.parametrize("argv_template,stdin,expected,last_line", EXIT_CORPUS, ids=EXIT_IDS)
def test_exit_status_contract(capsys, monkeypatch, docs, argv_template, stdin, expected, last_line):
    argv = [piece.format(**docs) for piece in argv_template]
    code, _, err = run_cli(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
    assert code == expected
    last = err.splitlines()[-1]
    if last_line.startswith("error: "):
        assert last == last_line
    else:
        assert last.startswith("tabcomp")
        assert _unquoted(last).endswith(_unquoted(last_line))


@pytest.mark.parametrize("argv,stdin,expected,last_line", LONG_VALUES, ids=["shape", "k", "counts", "number"])
def test_a_long_malformed_flag_value_is_cut_off(capsys, monkeypatch, argv, stdin, expected, last_line):
    monkeypatch.setenv("NO_COLOR", "1")
    monkeypatch.delenv("FORCE_COLOR", raising=False)  # argparse colours errors from Python 3.14 on
    assert len(max(argv, key=len)) == 5000
    code, out, err = run_cli(capsys, argv)
    last = err.splitlines()[-1]
    assert (code, out, last) == (expected, "", f"tabcomp {argv[0]}: error: {last_line}")
    assert len(last.encode("utf-8")) < 200


def test_text_and_byte_stdin_answer_alike(capsys, monkeypatch, docs):
    cases = [(argv, stdin) for argv, stdin, _, _ in EXIT_CORPUS if stdin is not None]
    assert len(cases) > 10
    for argv_template, stdin in cases:
        argv = [piece.format(**docs) for piece in argv_template]
        from_bytes = run_cli(capsys, argv, stdin, monkeypatch)
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))  # no .buffer: read as text
        assert run_cli(capsys, argv) == from_bytes, argv


@pytest.mark.parametrize("argv_template", OVERSIZED)
def test_oversized_results_exit_1_with_one_message(capsys, monkeypatch, docs, argv_template):
    def no_trials(*args):
        raise AssertionError("a sweep point ran")

    monkeypatch.setattr(experiment, "_run_point", no_trials)
    argv = [piece.format(**docs) for piece in argv_template]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv)
    elapsed = time.perf_counter() - start
    limit = sys.get_int_max_str_digits()
    assert (code, out, err) == (1, "", f"error: the result has more than {limit} decimal digits\n")
    if argv[0] in ("count", "number"):
        assert elapsed < 1


@pytest.mark.parametrize("mode", ["total-on-support", "including-partial"])
def test_a_large_relation_document_is_refused_before_its_count_is_built(capsys, monkeypatch, tmp_path, mode):
    # every cell of 4 * limit columns by 9 rows marked: each column's factor, 9 or 10, adds at
    # least 3 bits to the count, so the bit lengths alone refuse it and no product is built
    n = 4 * sys.get_int_max_str_digits()
    path = tmp_path / "full9.doc"
    path.write_text(f"table {n} 9 relation\n" + "".join(f"col {i}: 1 2 3 4 5 6 7 8 9\n" for i in range(1, n + 1)))

    def unbuilt(factors):
        raise AssertionError("the count was built")

    monkeypatch.setattr(relations, "math", types.SimpleNamespace(prod=unbuilt))
    assert run_cli(capsys, ["contained-count", str(path), "--mode", mode]) == (1, "", TOO_LARGE + "\n")


def test_result_digit_rule_is_exact_at_the_limit():
    limit = sys.get_int_max_str_digits()
    for base in (2, 3, 7, 9, 10, 11, 255, 256, 1000, 10**6 + 3, 2**64, 10**limit - 1, 10**limit):
        middle = max(1, round(limit / math.log10(base)))
        for exponent in range(max(1, middle - 3), middle + 4):
            try:
                check_result_digits(base, exponent)
                refused = False
            except DomainError:
                refused = True
            assert refused == (base**exponent >= 10**limit), (base, exponent)


def test_number_is_refused_exactly_past_the_limit(capsys):
    # at a 640-digit limit, 338x77 is the first shape whose largest number passes it while
    # every table on the diagonal before its own fits: the printed number is checked too
    saved = sys.get_int_max_str_digits()
    try:
        for n, m, fits in ((337, 77, True), (338, 77, False)):
            sys.set_int_max_str_digits(0)  # the library refuses the number past the limit too
            number = function_number(FunctionIndex(TableShape(n, m), (m,) * n))
            sys.set_int_max_str_digits(640)
            assert (number < 10**640) == fits
            refused = (1, "", "error: the result has more than 640 decimal digits\n")
            expected = (0, f"{number}\n", "") if fits else refused
            argv = ["number", "--shape", f"{n}x{m}", "--k", " ".join([str(m)] * n)]
            assert run_cli(capsys, argv) == expected
    finally:
        sys.set_int_max_str_digits(saved)


def test_no_digit_limit_refuses_no_result(capsys, docs):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert run_cli(capsys, ["count", "--shape", "5000x9"]) == (0, "1" + "0" * 5000 + "\n", "")
        wide = ["contained-count", docs["wide"], "--mode", "including-partial"]
        assert run_cli(capsys, wide) == (0, f"{2**20000}\n", "")
    finally:
        sys.set_int_max_str_digits(saved)


def test_the_parser_is_built_once_and_reused(capsys, monkeypatch, docs):
    assert cli._build_parser() is cli._build_parser()
    order = list(range(len(EXIT_CORPUS))) * 2
    random.Random(5).shuffle(order)
    results = {}
    for case in order:
        argv_template, stdin, _, _ = EXIT_CORPUS[case]
        argv = [piece.format(**docs) for piece in argv_template]
        results.setdefault(case, []).append(run_cli(capsys, argv, stdin, monkeypatch))
    assert all(first == second for first, second in results.values())


def test_a_reused_parser_answers_as_a_fresh_one(capsys, docs):
    calls = [
        ["nosuchcommand"],
        ["entropy", docs["full22"]],
        ["--version"],
        ["eval", docs["f1247"], "--arg", "x"],
        ["--version"],
        ["decode", "--shape", "2x2", "--k", "1 2"],
    ]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()  # what a new process starts from
        fresh.append(run_cli(capsys, argv))
    assert [run_cli(capsys, argv) for argv in calls] == fresh
    assert [code for code, _, _ in fresh] == [2, 0, 0, 2, 0, 0]


def test_success_leaves_stderr_empty(capsys, docs):
    code, _, err = run_cli(capsys, ["entropy", docs["rel32"]])
    assert code == 0
    assert err == ""


# Fuzzed argv: each subcommand with its real arguments, some dropped, plus a
# few pieces meant for other subcommands, in any order. Every number has at
# most two digits, because unnumber near diagonal 2035 still walks O(D**2) tables.
_SMALL = st.integers(0, 4) | st.integers(-9, 99)


def _flag(name, values):
    return values.map(lambda value: [name, str(value)])


def _joined(separator):
    return st.lists(_SMALL, min_size=1, max_size=4).map(lambda ks: separator.join(map(str, ks)))


_DOC = st.sampled_from(sorted(DOC_TEXTS) + ["-", "/nonexistent/missing.doc"]).map(
    lambda name: [name if name.startswith(("-", "/")) else "{" + name + "}"]
)
_NUMBER = _SMALL.map(lambda k: [str(k)])
_SHAPE = _flag("--shape", st.tuples(_SMALL, _SMALL).map(lambda nm: "%dx%d" % nm))
_K = _flag("--k", _joined(" "))
_SEED = _flag("--seed", _SMALL)
_ARGUMENTS = {
    "encode": [_DOC],
    "decode": [_SHAPE, _K],
    "number": [_SHAPE, _K],
    "unnumber": [_NUMBER],
    "shape": [_NUMBER],
    "count": [_SHAPE],
    "eval": [_DOC, _flag("--arg", _SMALL)],
    "inverse": [_DOC, _flag("--value", _SMALL)],
    "entropy": [_DOC],
    "superpose": [_DOC, _DOC, _DOC],
    "contains": [_DOC, _DOC],
    "contained-count": [
        _DOC, _flag("--mode", st.sampled_from(["total-on-support", "including-partial", "x"])),
    ],
    "sample": [_DOC, _SEED],
    "antidiag": [_SHAPE, _K, _K],
    "sweep": [
        _SHAPE, _flag("--counts", _joined(",")), _flag("--trials", _SMALL), _SEED,
        _flag("--format", st.sampled_from(["csv", "json", "xml"])), _flag("--workers", _SMALL),
        st.sampled_from([["--distinct"], ["--no-distinct"]]),
    ],
}
_STRAY = (
    st.sampled_from([piece for pieces in _ARGUMENTS.values() for piece in pieces]).flatmap(
        lambda piece: piece
    )
    | st.sampled_from([["--version"], ["nosuchcommand"]])
    | st.text(st.characters(blacklist_characters="0123456789{}"), max_size=4).map(
        lambda text: [text]
    )
)


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_ARGUMENTS)))
    pieces = [draw(piece) for piece in _ARGUMENTS[command] if draw(st.integers(0, 9))]
    pieces = draw(st.permutations(pieces + draw(st.lists(_STRAY, max_size=2))))
    return [command] + [token for piece in pieces for token in piece]


@settings(deadline=None, max_examples=300)
@given(_argvs(), st.sampled_from(list(DOC_TEXTS.values()) + ["", "table 2 2\n", "\udcff"]))
def test_fuzzed_argv_exits_0_1_or_2(docs, argv, stdin):
    argv = [token.format(**docs) for token in argv]
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin.encode("utf-8", "surrogateescape")))
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2)
