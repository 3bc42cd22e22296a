"""Finite discrete functions as tables: enumeration, relations, and retrieval.

Two complementary ways of computing without programs. Function tables hold a
finite mapping extensionally and answer by inspection; every table has a
digit string and a global number in a diagonal enumeration of all shapes.
Relation tables superpose many functions into one grid, trade precision for
capacity, and answer stochastically; the experiment module measures that
trade as a sweep over stored-set sizes.
"""

from .documents import *
from .enumeration import *
from .errors import *
from .experiment import *
from .relations import *
from .tables import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = ["__version__"]
__all__ += documents.__all__
__all__ += enumeration.__all__
__all__ += errors.__all__
__all__ += experiment.__all__
__all__ += relations.__all__
__all__ += tables.__all__
