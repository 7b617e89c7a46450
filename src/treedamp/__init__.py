"""Energy-optimal damping of neutral delay systems on metric trees.

The package covers the full workflow: describing the tree and the
differential-delay operators on it, simulating the controlled system
forward from a history segment, computing the energy-minimal damping
control by constrained Hermite minimisation, and checking the resulting
trajectory through quasi-derivative and vertex-balance diagnostics.
"""

from .cauchy import residual_ell, solve_cauchy, trajectory_distance
from .config import ConfigError, ProblemConfig, SolverOptions
from .damping import (
    Control,
    DampingSolution,
    GramSystem,
    IndefiniteGramError,
    assemble,
    energy_dominance_check,
    optimality_check,
    solve_damping,
)
from .diagnostics import (
    QuasiDerivativeSet,
    continuity_report,
    detect_persistent_jump,
    kirchhoff_residual,
    quasi_derivatives,
    solution_report,
)
from .expressions import (
    CoefficientError,
    CoefficientSet,
    TreeFunction,
    apply_operator,
    delayed_part,
    energy,
    energy_product,
    energy_product_reindexed,
    eval_delayed,
    reduced_length,
    variation_integrand,
)
from .meshing import (
    Basis,
    DelayMesh,
    MeshError,
    admissibility_report,
    build_mesh,
    history_lift,
    is_admissible,
)
from .piecewise import PiecewisePoly
from .trees import Tree, TreeStructureError, build_tree, interval, star

__all__ = [
    "Basis",
    "CoefficientError",
    "CoefficientSet",
    "ConfigError",
    "Control",
    "DampingSolution",
    "DelayMesh",
    "GramSystem",
    "IndefiniteGramError",
    "MeshError",
    "PiecewisePoly",
    "ProblemConfig",
    "QuasiDerivativeSet",
    "SolverOptions",
    "Tree",
    "TreeFunction",
    "TreeStructureError",
    "admissibility_report",
    "apply_operator",
    "assemble",
    "build_mesh",
    "build_tree",
    "continuity_report",
    "delayed_part",
    "detect_persistent_jump",
    "energy",
    "energy_dominance_check",
    "energy_product",
    "energy_product_reindexed",
    "eval_delayed",
    "history_lift",
    "interval",
    "is_admissible",
    "kirchhoff_residual",
    "optimality_check",
    "quasi_derivatives",
    "reduced_length",
    "residual_ell",
    "solution_report",
    "solve_cauchy",
    "solve_damping",
    "star",
    "trajectory_distance",
    "variation_integrand",
]

__version__ = "0.1.0"
