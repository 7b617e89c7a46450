"""Energy-optimal damping of neutral delay systems on metric trees.

The package covers the full workflow: describing the tree and the
differential-delay operators on it, simulating the controlled system
forward from a history segment, computing the energy-minimal damping
control by constrained Hermite minimisation, and checking the resulting
trajectory through quasi-derivative and vertex-balance diagnostics.

The package root exports the workflow entry points and the error types;
every other name stays importable from its module.
"""

from .cauchy import solve_cauchy
from .config import ConfigError, ProblemConfig
from .damping import IndefiniteGramError, solve_damping
from .diagnostics import solution_report
from .expressions import CoefficientError, CoefficientSet
from .meshing import MeshError
from .piecewise import PiecewisePoly
from .trees import TreeStructureError, build_tree, interval, star

__version__ = "0.1.0"

__all__ = [
    "CoefficientError",
    "CoefficientSet",
    "ConfigError",
    "IndefiniteGramError",
    "MeshError",
    "PiecewisePoly",
    "ProblemConfig",
    "TreeStructureError",
    "__version__",
    "build_tree",
    "interval",
    "solution_report",
    "solve_cauchy",
    "solve_damping",
    "star",
]
