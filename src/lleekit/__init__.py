"""Process semantics for star expressions without 1, and loop elimination.

The toolkit covers: parsing and printing of the expression syntax
(:mod:`lleekit.expr`), charts and the interpretation of expressions as
charts (:mod:`lleekit.chart`), bisimilarity checking and collapse
(:mod:`lleekit.bisim`), loop elimination witnesses and their layered form
(:mod:`lleekit.lee`), reflecting loop structure through a collapse map
(:mod:`lleekit.reflect`), and extraction of solution expressions plus the
end-to-end equivalence decision (:mod:`lleekit.solve`).
"""

from .errors import *
from .expr import *
from .chart import *
from .bisim import *
from .lee import *
from .reflect import *
from .solve import *
from . import bisim, chart, errors, expr, lee, reflect, solve

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = [
    *errors.__all__,
    *expr.__all__,
    *chart.__all__,
    *bisim.__all__,
    *lee.__all__,
    *reflect.__all__,
    *solve.__all__,
    "__version__",
]
