"""Numerical solver and verification harness for prescribed Weingarten-
curvature Dirichlet problems on spacelike radial graphs over geodesic disks
of the hyperbolic plane in Minkowski space."""

__version__ = "0.1.0"

from .hchart import (  # noqa: F401
    ChartDomainError,
    Grid,
    PolarChart,
    covariant_gradient,
    covariant_hessian,
    geodesic_diameter,
)
from .geom import (  # noqa: F401
    ExtrinsicState,
    InvalidGraphError,
    NotSpacelikeError,
    extrinsic_state,
)
from .problem import (  # noqa: F401
    ContinuationConfig,
    Expr,
    PhiSpec,
    ProblemSpec,
    PsiSpec,
    manufactured_problem,
)
from .solver import (  # noqa: F401
    SolveResult,
    assemble_jacobian,
    assemble_residual,
    barrier_sandwich_check,
    continuation_solve,
    damped_newton,
    solve_lower_barrier,
    solve_upper_barrier,
    uniqueness_probe,
)
from .estimates import EstimateReport, build_report, gradient_constants  # noqa: F401
