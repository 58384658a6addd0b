"""Linear ODE boundary value problems with fuzzy boundary values.

The solution of a linear problem with fuzzy boundary values is represented
as a crisp trajectory plus weight-function-scaled uncertain parts, and is
queried through alpha-cut intervals and bands.  An independent
finite-difference path cross-checks the bands by brute force.
"""

from .expressions import EvaluationError, ExpressionSyntaxError, UnknownIdentifierError, parse
from .fuzzy import (
    Interval,
    ParametricFuzzyNumber,
    TriangularFuzzyNumber,
    add,
    scale,
    split_crisp,
)
from .ode import (
    IntegrationError,
    LinearODE,
    NonUniqueCrispSolution,
    TimeGrid,
    Trajectory,
    UnitPropertyError,
    WeightBasis,
    boundary_matrix,
    homogeneous_basis,
    integrate_ivp,
    solve_crisp_bvp,
    weight_functions,
)
from .oracle import SingularDiscretizationError, compare, envelope, fd_solve
from .solver import FuzzyBVP, FuzzySolution, SolutionBand, solve_fuzzy_bvp

__version__ = "0.1.0"

__all__ = [
    "EvaluationError",
    "ExpressionSyntaxError",
    "UnknownIdentifierError",
    "parse",
    "Interval",
    "ParametricFuzzyNumber",
    "TriangularFuzzyNumber",
    "add",
    "scale",
    "split_crisp",
    "IntegrationError",
    "LinearODE",
    "NonUniqueCrispSolution",
    "TimeGrid",
    "Trajectory",
    "UnitPropertyError",
    "WeightBasis",
    "boundary_matrix",
    "homogeneous_basis",
    "integrate_ivp",
    "solve_crisp_bvp",
    "weight_functions",
    "SingularDiscretizationError",
    "compare",
    "envelope",
    "fd_solve",
    "FuzzyBVP",
    "FuzzySolution",
    "SolutionBand",
    "solve_fuzzy_bvp",
]
