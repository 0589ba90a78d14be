"""Numerical toolkit for weighted amalgam space estimates.

The package discretizes a box, realizes weights, local Orlicz and
Lebesgue norms, amalgam norms, and truncated singular integrals on it,
and ships a harness that stress-tests the corresponding operator norm
inequalities on generated corpora.
"""

from . import errors, expressions, grid, harness, operators, orlicz, spaces, weights
from .errors import *
from .expressions import *
from .grid import *
from .harness import *
from .operators import *
from .orlicz import *
from .spaces import *
from .weights import *

__version__ = "0.1.0"

_MODULES = (errors, expressions, grid, harness, operators, orlicz, spaces, weights)
__all__ = [name for module in _MODULES for name in module.__all__] + ["__version__"]
