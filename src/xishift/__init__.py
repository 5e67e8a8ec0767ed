"""Numerics for the completed Riemann zeta family, generalized Jacobi theta
transformations, their shared integral transform, and a sign-change scanner
for critical-line zeros of vertically shifted Xi-type combinations."""

from .errors import (
    AccuracyError,
    ConfigError,
    ConsistencyError,
    DivergenceError,
    DomainError,
    EvaluationError,
    MaxIterError,
    ParameterError,
    ParseError,
    PoleError,
    RangeOverflowError,
    RegionError,
    SymmetryError,
    ToleranceError,
    UnsupportedOrderError,
    XishiftError,
)
from .integral import (
    QuadratureResult,
    moment_integral,
    mu,
    nabla,
    transform_identity_residual,
    xi_integral,
)
from .region import RegionVerdict, classify_decomposition, classify_inequality, region_grid
from .settings import DEFAULT_SETTINGS, EvalSettings, ValueWithError
from .shifts import (
    ShiftConfig,
    f_z,
    f_z_critical,
    make_config,
    moment_closed_form,
    moment_limit_check,
    moment_numeric,
    moment_series_rhs,
)
from .specfun import (
    big_xi,
    eta_completed,
    gamma_c,
    hyp1f1,
    rho_real,
    xi_c,
    zeta_c,
)
from .theta import (
    ThetaEval,
    axis_decay_sequence,
    general_theta_residual,
    jacobi_residual,
    psi1,
    psi1_alpha_derivative,
    psi1_limit_value,
    psi_at_axis_combination,
    psi_classical,
    psi_xz_transform_residual,
    series_side,
    theta_series,
)
from .zeroscan import ScanReport, ZeroBracket, ZeroHit, bisect, scan, scan_fz

__version__ = "0.1.0"
