"""Exact submodular minimization over products of integer chains.

Core pipeline: a cost over a chain-product lattice is relaxed through its
greedy continuous extension, minimized by (consensus) projected
subgradient over the monotone box, and rounded back through the threshold
map.  A grid capture-the-flag simulation exercises the pipeline as a
receding-horizon controller.
"""

from .extension import (
    ExtensionResult,
    Profile,
    greedy_extension,
    theta,
    uniform_random_profile,
)
from .lattice import (
    BRUTE_FORCE_CAP,
    CapExceededError,
    ChainProduct,
    Oracle,
    SubmodularityReport,
    brute_force_minimize,
    check_submodular,
    cross_difference,
)
from .projection import project_monotone_box, project_product
from .solvers import (
    MatrixReport,
    SolverParams,
    SolveTrace,
    WeightMatrix,
    centralized_minimize,
    distributed_minimize,
    mix_profiles,
    validate_weight_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BRUTE_FORCE_CAP",
    "CapExceededError",
    "ChainProduct",
    "ExtensionResult",
    "MatrixReport",
    "Oracle",
    "Profile",
    "SolveTrace",
    "SolverParams",
    "SubmodularityReport",
    "WeightMatrix",
    "brute_force_minimize",
    "centralized_minimize",
    "check_submodular",
    "cross_difference",
    "distributed_minimize",
    "greedy_extension",
    "mix_profiles",
    "project_monotone_box",
    "project_product",
    "theta",
    "uniform_random_profile",
    "validate_weight_matrix",
]
