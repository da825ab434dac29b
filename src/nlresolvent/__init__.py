"""Semi-linear Dirichlet problems and resolvents on weighted graphs.

The package solves phi^{-1}(L u) + W u = f on finite vertex sets of a
weighted graph, extends the solution to infinite graphs along ball
exhaustions, and classifies graphs by the conservation defect
alpha - R(alpha W), the numerical signature of completeness at
infinity.  ``families`` builds the canonical graph families from spec
strings, ``testkit`` holds only the independent oracles, and a batch
CLI with reproducible CSV/JSON artifacts rounds it out.
"""

from . import completeness, families, graphs, nonlinearity, resolvent, solver, testkit
from .graphs import *  # noqa: F403
from .nonlinearity import *  # noqa: F403
from .solver import *  # noqa: F403
from .resolvent import *  # noqa: F403
from .completeness import *  # noqa: F403
from .families import *  # noqa: F403
from .testkit import *  # noqa: F403

__version__ = "0.1.0"

# each module's __all__, re-exported as is
__all__ = ["__version__", *(name for mod in (graphs, nonlinearity, solver, resolvent, completeness,
                                             families, testkit) for name in mod.__all__)]
