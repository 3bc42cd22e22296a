"""Finite discrete functions as tables: enumeration, relations, and retrieval.

Two complementary ways of computing without programs. Function tables hold a
finite mapping extensionally and answer by inspection; every table has a
digit string and a global number in a diagonal enumeration of all shapes.
Relation tables superpose many functions into one grid, trade precision for
capacity, and answer stochastically; the experiment module measures that
trade as a sweep over stored-set sizes.
"""

import importlib

from .documents import *
from .enumeration import *
from .errors import *
from .relations import *
from .tables import *

__version__ = "0.1.0"

# experiment.__all__ itself, loaded on first use (PEP 562): only the sweep needs json and dataclasses
_EXPERIMENT = ["ExperimentConfig", "SweepPoint", "ExperimentReport", "run_sweep", "emit_report", "parse_report"]

# each module's __all__ is the one list of its public names; _EXPERIMENT is experiment's
__all__ = ["__version__"]
__all__ += documents.__all__
__all__ += enumeration.__all__
__all__ += errors.__all__
__all__ += _EXPERIMENT
__all__ += relations.__all__
__all__ += tables.__all__


def __getattr__(name: str) -> object:
    if name == "experiment" or name in _EXPERIMENT:
        # not `from . import experiment`: its fromlist lookup would call this function again
        module = importlib.import_module(f"{__name__}.experiment")
        return module if name == "experiment" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
