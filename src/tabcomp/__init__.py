"""Finite discrete functions as tables: enumeration, relations, and retrieval.

Two complementary ways of computing without programs. Function tables hold a
finite mapping extensionally and answer by inspection; every table has a
digit string and a global number in a diagonal enumeration of all shapes.
Relation tables superpose many functions into one grid, trade precision for
capacity, and answer stochastically; the experiment module measures that
trade as a sweep over stored-set sizes.
"""

from __future__ import annotations

from .documents import TableDocument, parse_table_document, serialize_table_document
from .enumeration import (
    FunctionIndex,
    TableShape,
    anti_diagonal,
    count_functions,
    diagonal_of_table,
    function_from_number,
    function_number,
    max_fn,
    successor,
    table_number,
    table_shape,
)
from .errors import (
    ArityError,
    ConfigError,
    DomainError,
    InvalidIndexError,
    ParseError,
    ShapeError,
)
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    SweepPoint,
    emit_report,
    parse_report,
    run_sweep,
)
from .relations import (
    RelationTable,
    contains,
    count_contained,
    count_hits,
    entropy,
    inverse_evaluate_relation,
    random_evaluate,
    sample_function,
    superpose,
)
from .tables import FunctionTable, decode, encode, evaluate, inverse_evaluate

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "TableShape",
    "FunctionIndex",
    "max_fn",
    "diagonal_of_table",
    "table_shape",
    "table_number",
    "count_functions",
    "function_number",
    "function_from_number",
    "successor",
    "anti_diagonal",
    "FunctionTable",
    "encode",
    "decode",
    "evaluate",
    "inverse_evaluate",
    "RelationTable",
    "entropy",
    "random_evaluate",
    "sample_function",
    "count_hits",
    "superpose",
    "contains",
    "count_contained",
    "inverse_evaluate_relation",
    "ExperimentConfig",
    "SweepPoint",
    "ExperimentReport",
    "run_sweep",
    "emit_report",
    "parse_report",
    "TableDocument",
    "parse_table_document",
    "serialize_table_document",
    "ShapeError",
    "DomainError",
    "InvalidIndexError",
    "ArityError",
    "ConfigError",
    "ParseError",
]
