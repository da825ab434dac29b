"""Semi-linear Dirichlet problems and resolvents on weighted graphs.

The package solves phi^{-1}(L u) + W u = f on finite vertex sets of a
weighted graph, extends the solution to infinite graphs along ball
exhaustions, and classifies graphs by the conservation defect
alpha - R(alpha W), the numerical signature of completeness at
infinity.  ``families`` builds the canonical graph families from spec
strings, ``testkit`` holds only the independent oracles and loads on
first use, and a batch CLI with reproducible CSV/JSON artifacts rounds
it out.
"""

import importlib

from . import completeness, families, graphs, nonlinearity, resolvent, solver
from .graphs import *  # noqa: F403
from .nonlinearity import *  # noqa: F403
from .solver import *  # noqa: F403
from .resolvent import *  # noqa: F403
from .completeness import *  # noqa: F403
from .families import *  # noqa: F403

__version__ = "0.1.0"

# testkit's __all__, served by __getattr__: no CLI run needs the oracles
_TESTKIT = ("linear_oracle", "brute_force_minimizer", "micro_suite", "shooting_defect")

# each module's __all__, re-exported as is
__all__ = ["__version__", *(name for mod in (graphs, nonlinearity, solver, resolvent, completeness,
                                             families) for name in mod.__all__), *_TESTKIT]


def __getattr__(name: str):
    """``testkit`` and its names, imported on first access (PEP 562)."""
    if name == "testkit" or name in _TESTKIT:
        testkit = importlib.import_module(".testkit", __name__)
        return testkit if name == "testkit" else getattr(testkit, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
