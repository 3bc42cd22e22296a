"""Exception types shared across the package, and the one rule each for a result's size, a seed
and the text of a refused value, shown by ``_shown``.

All validation failures are ValueError subclasses so callers can catch broadly; the CLI
distinguishes ParseError (malformed input, exit 2) from the rest (domain/validation errors, exit 1).
"""

from __future__ import annotations

import sys

__all__ = ["ShapeError", "DomainError", "InvalidIndexError", "ArityError", "ConfigError", "ParseError"]


class ShapeError(ValueError):
    """Table shape is invalid, or two operands have mismatched shapes."""


class DomainError(ValueError):
    """A positional argument, value, or number lies outside its range."""


class InvalidIndexError(ValueError):
    """A function index digit string violates its shape (digit > m, wrong length)."""


class ArityError(ValueError):
    """An anti-diagonal input list does not contain exactly n functions."""


class ConfigError(ValueError):
    """An experiment configuration is inconsistent or unsatisfiable."""


class ParseError(ValueError):
    """Malformed document or flag text. Carries a 1-based position when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" if column is None else f"line {line}, column {column}"
            message = f"{where}: {message}"
        super().__init__(message)


def check_result_digits(base: int, exponent: int = 1) -> None:
    """Raise ``DomainError`` if ``base ** exponent`` has more decimal digits than ``str``
    writes, ``sys.get_int_max_str_digits()``: the one rule for a result's size.
    The power of a b-bit base lies in [2**((b-1)*exponent), 2**(b*exponent)) and
    10**limit in (2**(3*limit), 2**(4*limit)), so it is built only when these leave
    the answer open, and then it has fewer than 8*limit bits."""
    limit, bits = sys.get_int_max_str_digits(), base.bit_length()
    if limit and (
        (bits - 1) * exponent >= 4 * limit
        or bits * exponent > 3 * limit and base**exponent >= 10**limit
    ):
        raise DomainError(f"the result has more than {limit} decimal digits")


def _checked_seed(seed: object) -> int:
    """``seed`` if an int in 0..2**64-1, else a DomainError: ``random.Random`` seeds from ``abs(seed)``."""
    if type(seed) is not int or not 0 <= seed < 1 << 64:
        raise DomainError(f"seed {seed!r} outside 0..2**64-1")
    return seed


def _shown(text: str) -> str:
    """How an error line shows a value it refused: the ``repr`` of its first 40 characters, then ``...`` if longer."""
    return repr(text) if len(text) <= 40 else repr(text[:40]) + "..."
