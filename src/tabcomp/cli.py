"""Command-line front end: one subcommand per library operation.

Documents are read from file arguments or standard input ('-'). ``main`` captures all that a
command and argparse write, then, once the command has finished, writes each standard stream once:
standard output whole and only on success, standard error last. Exit status is 0 on success, 1 on
a domain or validation error, 2 on malformed input (bad documents, unreadable files, usage errors)
or unwritable output; an unwritable standard error changes none of them.
Stochastic subcommands take a mandatory --seed so every run is reproducible.
"""

from __future__ import annotations

import argparse
import io
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout, suppress
from functools import cache, reduce

from . import __version__
from .documents import TableDocument, decimal_line, decimal_value, parse_table_document, serialize_table_document
from .enumeration import (
    FunctionTable,
    TableShape,
    anti_diagonal,
    count_functions,
    function_from_number,
    function_number,
    table_shape,
)
from .errors import DomainError, ParseError, _checked_seed, check_result_digits
from .relations import (
    RelationTable,
    contains,
    count_contained,
    entropy,
    inverse_evaluate_relation,
    sample_function,
    superpose,
)
from .tables import evaluate

__all__ = ["main", "cli"]


def _decimals(text: str, tokens: list[str], expected: str) -> tuple[int, ...]:
    """Each token's ``decimal_value``; a usage error naming ``expected`` and at most the
    first 40 characters of the flag's ``text`` when there is none or one is malformed."""
    try:
        values = tuple(decimal_value(token) for token in tokens)
    except ParseError as error:  # a token past the digit limit: name the limit, not the token
        raise argparse.ArgumentTypeError(f"value {error}") from None
    except ValueError:
        values = ()
    if not values:
        shown = repr(text) if len(text) <= 40 else repr(text[:40]) + "..."
        raise argparse.ArgumentTypeError(f"{expected}, got {shown}")
    return values


def _shape_argument(text: str) -> tuple[int, int]:
    pieces = text.split("x")
    return _decimals(text, pieces if len(pieces) == 2 else [], "shape must look like '4x7'")


def _integer_argument(text: str) -> int:
    (value,) = _decimals(text, [text.removeprefix("-")], "expected a decimal integer")
    return -value if text.startswith("-") else value


def _digits_argument(text: str) -> tuple[int, ...]:
    return _decimals(text, text.split(), "digits must be space-separated non-negative integers")


def _counts_argument(text: str) -> tuple[int, ...]:
    tokens = [piece.strip() for piece in text.split(",")]
    return _decimals(text, tokens, "counts must be comma-separated non-negative integers")


def _read_document(path: str) -> str | bytes:
    try:
        if path == "-":  # bytes from a real standard input, str from a replaced text stream
            if sys.stdin is None or getattr(sys.stdin, "closed", False):  # fd 0 closed at start, or stdin closed
                raise OSError("it is closed")
            return getattr(sys.stdin, "buffer", sys.stdin).read()
        with open(path, "rb") as handle:
            return handle.read()
    except (OSError, ValueError) as error:  # open refuses a path with a NUL byte with ValueError
        source = "standard input" if path == "-" else path
        raise ParseError(f"cannot read {source}: {getattr(error, 'strerror', None) or error}") from None


def _load_table(path: str, function_needed: str | None = None) -> FunctionTable | RelationTable:
    """The table of the document at ``path``, '-' for standard input; with
    ``function_needed``, a relation document is a domain error with that message."""
    document = parse_table_document(_read_document(path))
    if function_needed and document.kind != "function":
        raise DomainError(function_needed)
    return document.table


def _reject_repeated_stdin(paths: list[str]) -> None:
    if paths.count("-") > 1:
        raise ParseError("standard input '-' may appear at most once")


def _cmd_encode(args: argparse.Namespace) -> str:
    table = _load_table(args.file, "encode needs a function document")
    return decimal_line(table.digits, table.shape.m) + "\n"


def _cmd_decode(args: argparse.Namespace) -> str:
    table = FunctionTable(TableShape(*args.shape), args.k)
    return serialize_table_document(TableDocument(table))


def _cmd_number(args: argparse.Namespace) -> str:
    return f"{function_number(FunctionTable(TableShape(*args.shape), args.k))}\n"


def _cmd_unnumber(args: argparse.Namespace) -> str:
    index = function_from_number(args.number)
    return f"shape {index.shape}\nk {decimal_line(index.digits, index.shape.m)}\n"


def _cmd_shape(args: argparse.Namespace) -> str:
    return f"{table_shape(args.number)}\n"


def _cmd_count(args: argparse.Namespace) -> str:
    shape = TableShape(*args.shape)
    check_result_digits(shape.m + 1, shape.n)
    return f"{count_functions(shape)}\n"


def _cmd_eval(args: argparse.Namespace) -> str:
    table = _load_table(args.file, "eval needs a function document; use sample for relations")
    value = evaluate(table, args.arg)
    return "undefined\n" if value is None else f"{value}\n"


def _cmd_inverse(args: argparse.Namespace) -> str:
    table = _load_table(args.file)
    columns = inverse_evaluate_relation(table, args.value)
    return decimal_line(columns, table.shape.n) + "\n"


def _cmd_entropy(args: argparse.Namespace) -> str:
    table = _load_table(args.file)
    return f"{entropy(table)!r}\n"


def _cmd_superpose(args: argparse.Namespace) -> str:
    if len(args.files) < 2:
        raise ParseError("superpose needs at least two documents")
    _reject_repeated_stdin(args.files)
    tables = [_load_table(path) for path in args.files]
    combined = reduce(superpose, tables)
    return serialize_table_document(TableDocument(combined))


def _cmd_contains(args: argparse.Namespace) -> str:
    _reject_repeated_stdin([args.relation, args.function])
    relation = _load_table(args.relation)
    function = _load_table(args.function, "second document must be a function")
    return "true\n" if contains(relation, function) else "false\n"


def _cmd_contained_count(args: argparse.Namespace) -> str:
    table = _load_table(args.file)
    return f"{count_contained(table, args.mode)}\n"


def _cmd_sample(args: argparse.Namespace) -> str:
    table = sample_function(_load_table(args.file), random.Random(_checked_seed(args.seed)))
    return serialize_table_document(TableDocument(table))


def _cmd_antidiag(args: argparse.Namespace) -> str:
    shape = TableShape(*args.shape)
    functions = [FunctionTable(shape, digits) for digits in args.k]
    result = anti_diagonal(functions)
    return decimal_line(result.digits, shape.m) + "\n"


def _cmd_sweep(args: argparse.Namespace) -> str:
    from .experiment import ExperimentConfig, emit_report, run_sweep  # only sweep loads json, dataclasses
    config = ExperimentConfig(TableShape(*args.shape), args.counts, args.trials, args.seed, args.distinct)
    report = run_sweep(config, workers=args.workers)
    return emit_report(report, args.format).decode("utf-8")


# argument specs shared by several subcommands: (name or flag, add_argument options)
_FILE = ("file", dict(nargs="?", default="-", help="document path, '-' for standard input"))
_SHAPE = ("--shape", dict(type=_shape_argument, required=True, help="table shape, e.g. 4x7"))
_K = ("--k", dict(type=_digits_argument, required=True, help="digit string, e.g. '1 2 4 7'"))
_SEED = ("--seed", dict(type=_integer_argument, required=True, help="random seed"))

# subcommand name: (handler, help, argument specs in the order they are added)
_COMMANDS = {
    "encode": (_cmd_encode, "print the digit string of a function document", [_FILE]),
    "decode": (_cmd_decode, "print the function document for a digit string", [_SHAPE, _K]),
    "number": (_cmd_number, "print the global number of a function", [_SHAPE, _K]),
    "unnumber": (_cmd_unnumber, "print the shape and digits of a global number", [
        ("number", dict(type=_integer_argument, help="global function number, 1-based")),
    ]),
    "shape": (_cmd_shape, "print the shape of a table number", [
        ("number", dict(type=_integer_argument, help="table number in diagonal order, 1-based")),
    ]),
    "count": (_cmd_count, "print how many functions fit a shape", [_SHAPE]),
    "eval": (_cmd_eval, "apply a function document to one argument", [
        _FILE,
        ("--arg", dict(type=_integer_argument, required=True, help="argument position, 1-based")),
    ]),
    "inverse": (_cmd_inverse, "print the arguments mapped to a value", [
        _FILE,
        ("--value", dict(type=_integer_argument, required=True, help="value position, 1-based")),
    ]),
    "entropy": (_cmd_entropy, "print the computational entropy of a document", [_FILE]),
    "superpose": (_cmd_superpose, "union documents into one relation document", [
        ("files", dict(nargs="+", help="two or more document paths, '-' for standard input")),
    ]),
    "contains": (_cmd_contains, "test whether a relation contains a function", [
        ("relation", dict(help="relation document path, '-' for standard input")),
        ("function", dict(help="function document path, '-' for standard input")),
    ]),
    "contained-count": (_cmd_contained_count, "count the functions a relation contains", [
        _FILE,
        ("--mode", dict(
            choices=("total-on-support", "including-partial"),
            default="total-on-support",
            help="count functions total on the marked columns, or all partial ones too",
        )),
    ]),
    "sample": (_cmd_sample, "draw one contained function from a relation", [_FILE, _SEED]),
    "antidiag": (_cmd_antidiag, "print a digit string differing from each input", [
        _SHAPE,
        ("--k", {**_K[1], "action": "append", "help": "digit string of one function; repeat once per function"}),
    ]),
    "sweep": (_cmd_sweep, "run the storage/precision sweep and print the report", [
        _SHAPE,
        ("--counts", dict(type=_counts_argument, required=True, help="stored-set sizes, e.g. 1,2,4,8")),
        ("--trials", dict(type=_integer_argument, required=True, help="samples per sweep point")),
        _SEED,
        ("--format", dict(choices=("csv", "json"), default="csv", help="report format")),
        ("--workers", dict(
            type=_integer_argument,
            default=1,
            help="a validated hint; points run sequentially and the output never depends on it",
        )),
        ("--distinct", dict(
            action=argparse.BooleanOptionalAction, default=True, help="draw distinct stored functions"
        )),
    ]),
}


@cache  # one parser per process: parse_args keeps no state in it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabcomp",
        description="Enumerate, evaluate, superpose, and sweep finite function tables.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)
    for name, (handler, help, arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=help)
        for flag, options in arguments:
            command.add_argument(flag, **options)
        command.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point. Returns 0 on success, 1 on domain errors, 2 on bad input."""
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:  # written below, once each
        try:  # argparse writes --help, --version and its usage errors itself
            args = _build_parser().parse_args(argv)
            out.write(args.handler(args))
            status = 0
        except SystemExit as exit_:
            status = exit_.code if isinstance(exit_.code, int) else 2
        except ValueError as error:  # every library error; ParseError is malformed input
            print(f"error: {error}", file=sys.stderr)
            status = 2 if isinstance(error, ParseError) else 1
    for stream, captured in ((sys.stdout, out), (sys.stderr, err)):  # stderr last, with any line stdout adds
        if captured is out and status != 0:  # a failed command writes no output
            continue
        try:
            if stream is None or getattr(stream, "closed", False):  # its fd closed at start, or it was closed
                raise OSError("it is closed")
            stream.write(captured.getvalue())
            stream.flush()  # a write that fails fails here, not at shutdown
        except (OSError, ValueError) as error:  # a full device or a closed pipe; an unwritable stderr goes untold
            with suppress(AttributeError, OSError, ValueError), open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), stream.fileno())  # the text left in its buffer is not refused at exit
            if captured is out:
                print(f"error: cannot write standard output: {getattr(error, 'strerror', None) or error}", file=err)
                status = 2
    return status


def cli() -> None:  # pragma: no cover
    """Console-script wrapper that calls ``sys.exit``."""
    sys.exit(main())


if __name__ == "__main__":  # python -m tabcomp.cli
    cli()
