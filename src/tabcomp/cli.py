"""Command-line front end: one subcommand per library operation.

Documents are read from file arguments or standard input ('-'), results go to
standard output. Exit status is 0 on success, 1 on a domain or validation
error, 2 on malformed input (bad documents, unreadable files, usage errors).
Stochastic subcommands take a mandatory --seed so every run is reproducible.
"""

from __future__ import annotations

import argparse
import random
import sys
from functools import cache, reduce

from . import __version__
from .documents import TableDocument, decimal_value, parse_table_document, serialize_table_document
from .enumeration import (
    FunctionIndex,
    TableShape,
    anti_diagonal,
    count_functions,
    function_from_number,
    function_number,
    table_shape,
)
from .errors import DomainError, ParseError, check_result_digits
from .experiment import ExperimentConfig, emit_report, run_sweep
from .relations import (
    contains,
    count_contained,
    entropy,
    inverse_evaluate_relation,
    sample_function,
    superpose,
)
from .tables import decode, encode, evaluate

__all__ = ["main", "cli"]


def _decimals(tokens: list[str], message: str) -> tuple[int, ...]:
    """Each token's ``decimal_value``; a usage error when there is none or one is malformed."""
    try:
        values = tuple(decimal_value(token) for token in tokens)
    except ValueError:
        values = ()
    if not values:
        raise argparse.ArgumentTypeError(message)
    return values


def _shape_argument(text: str) -> tuple[int, int]:
    pieces = text.split("x")
    return _decimals(pieces if len(pieces) == 2 else [], f"shape must look like '4x7', got {text!r}")


def _integer_argument(text: str) -> int:
    (value,) = _decimals([text.removeprefix("-")], f"expected a decimal integer, got {text!r}")
    return -value if text.startswith("-") else value


def _digits_argument(text: str) -> tuple[int, ...]:
    return _decimals(text.split(), f"digits must be space-separated non-negative integers, got {text!r}")


def _counts_argument(text: str) -> tuple[int, ...]:
    tokens = [piece.strip() for piece in text.split(",")]
    return _decimals(tokens, f"counts must be comma-separated non-negative integers, got {text!r}")


def _read_document_bytes(path: str) -> bytes:
    if path == "-":
        stream = sys.stdin
        buffer = getattr(stream, "buffer", None)
        if buffer is not None:
            return buffer.read()
        return stream.read().encode("utf-8")
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as error:
        raise ParseError(f"cannot read {path}: {error.strerror or error}") from None


def _load_document(path: str) -> TableDocument:
    return parse_table_document(_read_document_bytes(path))


def _reject_repeated_stdin(paths: list[str]) -> None:
    if paths.count("-") > 1:
        raise ParseError("standard input '-' may appear at most once")


def _cmd_encode(args: argparse.Namespace) -> None:
    document = _load_document(args.file)
    if document.kind != "function":
        raise DomainError("encode needs a function document")
    index = encode(document.table)
    print(" ".join(str(digit) for digit in index.digits))


def _cmd_decode(args: argparse.Namespace) -> None:
    index = FunctionIndex(TableShape(*args.shape), args.k)
    sys.stdout.write(serialize_table_document(TableDocument(decode(index))))


def _cmd_number(args: argparse.Namespace) -> None:
    index = FunctionIndex(TableShape(*args.shape), args.k)
    # the number passes the function count of each table on the diagonal before its own
    diagonal = index.shape.diagonal
    for m in range(1, diagonal):
        check_result_digits(m + 1, diagonal - m)
    number = function_number(index)
    check_result_digits(number)
    print(number)


def _cmd_unnumber(args: argparse.Namespace) -> None:
    index = function_from_number(args.number)
    print(f"shape {index.shape}")
    print("k " + " ".join(str(digit) for digit in index.digits))


def _cmd_shape(args: argparse.Namespace) -> None:
    print(table_shape(args.number))


def _cmd_count(args: argparse.Namespace) -> None:
    shape = TableShape(*args.shape)
    check_result_digits(shape.m + 1, shape.n)
    print(count_functions(shape))


def _cmd_eval(args: argparse.Namespace) -> None:
    document = _load_document(args.file)
    if document.kind != "function":
        raise DomainError("eval needs a function document; use sample for relations")
    value = evaluate(document.table, args.arg)
    print("undefined" if value is None else value)


def _cmd_inverse(args: argparse.Namespace) -> None:
    document = _load_document(args.file)
    columns = inverse_evaluate_relation(document.table, args.value)
    print(" ".join(str(column) for column in columns))


def _cmd_entropy(args: argparse.Namespace) -> None:
    document = _load_document(args.file)
    print(repr(entropy(document.table)))


def _cmd_superpose(args: argparse.Namespace) -> None:
    if len(args.files) < 2:
        raise ParseError("superpose needs at least two documents")
    _reject_repeated_stdin(args.files)
    tables = [_load_document(path).table for path in args.files]
    combined = reduce(superpose, tables)
    sys.stdout.write(serialize_table_document(TableDocument(combined)))


def _cmd_contains(args: argparse.Namespace) -> None:
    _reject_repeated_stdin([args.relation, args.function])
    relation_document = _load_document(args.relation)
    function_document = _load_document(args.function)
    if function_document.kind != "function":
        raise DomainError("second document must be a function")
    held = contains(relation_document.table, function_document.table)
    print("true" if held else "false")


def _cmd_contained_count(args: argparse.Namespace) -> None:
    document = _load_document(args.file)
    count = count_contained(document.table, args.mode)
    check_result_digits(count)
    print(count)


def _cmd_sample(args: argparse.Namespace) -> None:
    document = _load_document(args.file)
    table = sample_function(document.table, random.Random(args.seed))
    sys.stdout.write(serialize_table_document(TableDocument(table)))


def _cmd_antidiag(args: argparse.Namespace) -> None:
    shape = TableShape(*args.shape)
    functions = [FunctionIndex(shape, digits) for digits in args.k]
    result = anti_diagonal(functions)
    print(" ".join(str(digit) for digit in result.digits))


def _cmd_sweep(args: argparse.Namespace) -> None:
    config = ExperimentConfig(
        shape=TableShape(*args.shape),
        stored_counts=args.counts,
        trials=args.trials,
        seed=args.seed,
        distinct=args.distinct,
    )
    report = run_sweep(config, workers=args.workers)
    sys.stdout.write(emit_report(report, args.format).decode("utf-8"))


def _add_document_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file", nargs="?", default="-", help="document path, '-' for standard input")


def _add_shape_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--shape", type=_shape_argument, required=True, help="table shape, e.g. 4x7")


@cache  # one parser per process: parse_args keeps no state in it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabcomp",
        description="Enumerate, evaluate, superpose, and sweep finite function tables.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    encode_parser = sub.add_parser("encode", help="print the digit string of a function document")
    _add_document_argument(encode_parser)
    encode_parser.set_defaults(handler=_cmd_encode)

    decode_parser = sub.add_parser("decode", help="print the function document for a digit string")
    _add_shape_option(decode_parser)
    decode_parser.add_argument("--k", type=_digits_argument, required=True, help="digit string, e.g. '1 2 4 7'")
    decode_parser.set_defaults(handler=_cmd_decode)

    number_parser = sub.add_parser("number", help="print the global number of a function")
    _add_shape_option(number_parser)
    number_parser.add_argument("--k", type=_digits_argument, required=True, help="digit string, e.g. '1 2 4 7'")
    number_parser.set_defaults(handler=_cmd_number)

    unnumber_parser = sub.add_parser("unnumber", help="print the shape and digits of a global number")
    unnumber_parser.add_argument("number", type=_integer_argument, help="global function number, 1-based")
    unnumber_parser.set_defaults(handler=_cmd_unnumber)

    shape_parser = sub.add_parser("shape", help="print the shape of a table number")
    shape_parser.add_argument("number", type=_integer_argument, help="table number in diagonal order, 1-based")
    shape_parser.set_defaults(handler=_cmd_shape)

    count_parser = sub.add_parser("count", help="print how many functions fit a shape")
    _add_shape_option(count_parser)
    count_parser.set_defaults(handler=_cmd_count)

    eval_parser = sub.add_parser("eval", help="apply a function document to one argument")
    _add_document_argument(eval_parser)
    eval_parser.add_argument("--arg", type=_integer_argument, required=True, help="argument position, 1-based")
    eval_parser.set_defaults(handler=_cmd_eval)

    inverse_parser = sub.add_parser("inverse", help="print the arguments mapped to a value")
    _add_document_argument(inverse_parser)
    inverse_parser.add_argument("--value", type=_integer_argument, required=True, help="value position, 1-based")
    inverse_parser.set_defaults(handler=_cmd_inverse)

    entropy_parser = sub.add_parser("entropy", help="print the computational entropy of a document")
    _add_document_argument(entropy_parser)
    entropy_parser.set_defaults(handler=_cmd_entropy)

    superpose_parser = sub.add_parser("superpose", help="union documents into one relation document")
    superpose_parser.add_argument("files", nargs="+", help="two or more document paths, '-' for standard input")
    superpose_parser.set_defaults(handler=_cmd_superpose)

    contains_parser = sub.add_parser("contains", help="test whether a relation contains a function")
    contains_parser.add_argument("relation", help="relation document path, '-' for standard input")
    contains_parser.add_argument("function", help="function document path, '-' for standard input")
    contains_parser.set_defaults(handler=_cmd_contains)

    contained_parser = sub.add_parser("contained-count", help="count the functions a relation contains")
    _add_document_argument(contained_parser)
    contained_parser.add_argument(
        "--mode",
        choices=("total-on-support", "including-partial"),
        default="total-on-support",
        help="count functions total on the marked columns, or all partial ones too",
    )
    contained_parser.set_defaults(handler=_cmd_contained_count)

    sample_parser = sub.add_parser("sample", help="draw one contained function from a relation")
    _add_document_argument(sample_parser)
    sample_parser.add_argument("--seed", type=_integer_argument, required=True, help="random seed")
    sample_parser.set_defaults(handler=_cmd_sample)

    antidiag_parser = sub.add_parser("antidiag", help="print a digit string differing from each input")
    _add_shape_option(antidiag_parser)
    antidiag_parser.add_argument(
        "--k",
        type=_digits_argument,
        action="append",
        required=True,
        help="digit string of one function; repeat once per function",
    )
    antidiag_parser.set_defaults(handler=_cmd_antidiag)

    sweep_parser = sub.add_parser("sweep", help="run the storage/precision sweep and print the report")
    _add_shape_option(sweep_parser)
    sweep_parser.add_argument(
        "--counts", type=_counts_argument, required=True, help="stored-set sizes, e.g. 1,2,4,8"
    )
    sweep_parser.add_argument("--trials", type=_integer_argument, required=True, help="samples per sweep point")
    sweep_parser.add_argument("--seed", type=_integer_argument, required=True, help="random seed")
    sweep_parser.add_argument("--format", choices=("csv", "json"), default="csv", help="report format")
    sweep_parser.add_argument(
        "--workers",
        type=_integer_argument,
        default=1,
        help="a validated hint; points run sequentially and the output never depends on it",
    )
    sweep_parser.add_argument(
        "--distinct",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="draw distinct stored functions",
    )
    sweep_parser.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point. Returns 0 on success, 1 on domain errors, 2 on bad input."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exit_:
        return exit_.code if isinstance(exit_.code, int) else 2
    try:
        args.handler(args)
    except ParseError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def cli() -> None:  # pragma: no cover
    """Console-script wrapper that calls ``sys.exit``."""
    sys.exit(main())
