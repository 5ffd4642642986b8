"""Einstein 4-metrics from biconformal deformations of flat R^4.

The library deforms the Euclidean metric by independent factors
1/sigma^2 on the (x1, x2) plane and 1/rho^2 on the (x3, x4) plane,
evaluates the resulting Ricci curvature in closed form, and
cross-checks every formula against a finite-difference curvature
engine.  Two ODE-generated families of Einstein metrics are provided,
with blow-up detection and end diagnostics.
"""

from .expr import DomainError, ParseError, parse_expr, pretty
from .fields import (
    ExpressionField,
    PositivityError,
    ProfileField,
    ScalarField,
    as_point,
)
from .oracle import (
    InvalidMetricError,
    MetricField,
    OracleError,
    SingularMetricError,
    christoffel,
    einstein_residual_fd,
    laplace_beltrami_fd,
    ricci_fd,
)
from .deform import (
    DeformationPair,
    FrameRicci,
    conformal_ricci_coords,
    deformed_laplacian,
    frame_to_coords,
    metric_of,
    ricci_frame,
)
from .families import (
    BLOW_UP,
    REACHED_T_MAX,
    SINGULAR_GAMMA,
    EndDiagnostics,
    FamilyParams,
    Trajectory,
    WarpedState,
    einstein_constant,
    einstein_residuals,
    end_diagnostics,
    family_fields,
    implicit_time,
    integrate_rho,
    integrate_warped,
    rho_rhs,
    ricci_flat_fields,
    single_param_residuals,
    warped_residuals,
)

__version__ = "0.1.0"
