"""Finite Fourier transforms of Chebyshev and Legendre polynomials in closed
form, the induced explicit half-order Bessel representation, and a
global-relation collocation solver for the modified Helmholtz equation on a
square.

Exact integer coefficient tables live in `coeffs`; regime-aware transform
evaluation in `transforms`; Bessel values in `bessel`; independent quadrature
and recurrence oracles in `oracle`; the boundary-value solver in `helmholtz`;
the command-line interface in `cli`.
"""
from .bessel import bessel_half, legendre_hat_via_bessel
from .coeffs import (
    CoefficientTable,
    Family,
    binom_clamped,
    chebyshev_coeffs,
    coefficient_table,
    coefficients_csv,
    legendre_coeffs,
    product_range,
)
from .complexfmt import format_complex, parse_complex
from .helmholtz import (
    CollocationSystem,
    DegenerateSystemError,
    NeumannExpansion,
    RayRule,
    SolveReport,
    assemble_system,
    collocation_points,
    dirichlet_hat,
    dirichlet_trace,
    exact_neumann,
    neumann_hat_column,
    relative_error_einf,
    scale_system,
    solve,
)
from .oracle import (
    QuadratureRule,
    eval_chebyshev,
    eval_legendre,
    gauss_legendre_rule,
    quad_transform,
)
from .transforms import (
    EvalPath,
    TransformResult,
    chebyshev_hat,
    chebyshev_hat_via_kernel,
    exp_cos_sine_integral,
    legendre_hat,
    regime_threshold,
    transform_hat,
    zero_lambda_value,
)

__version__ = "0.1.0"

__all__ = [
    "Family",
    "CoefficientTable",
    "product_range",
    "binom_clamped",
    "chebyshev_coeffs",
    "legendre_coeffs",
    "coefficient_table",
    "coefficients_csv",
    "EvalPath",
    "TransformResult",
    "regime_threshold",
    "zero_lambda_value",
    "chebyshev_hat",
    "legendre_hat",
    "transform_hat",
    "exp_cos_sine_integral",
    "chebyshev_hat_via_kernel",
    "bessel_half",
    "legendre_hat_via_bessel",
    "QuadratureRule",
    "eval_chebyshev",
    "eval_legendre",
    "gauss_legendre_rule",
    "quad_transform",
    "DegenerateSystemError",
    "RayRule",
    "CollocationSystem",
    "NeumannExpansion",
    "SolveReport",
    "dirichlet_trace",
    "exact_neumann",
    "dirichlet_hat",
    "neumann_hat_column",
    "collocation_points",
    "assemble_system",
    "scale_system",
    "solve",
    "relative_error_einf",
    "format_complex",
    "parse_complex",
    "__version__",
]
