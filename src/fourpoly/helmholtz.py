"""Collocation solver for the modified Helmholtz equation u_xx + u_yy = 4 u
on the square [-1, 1]^2 with symmetric Dirichlet data

    u = cosh(1) cosh(sqrt(3) y) + cosh(sqrt(3)) cosh(y)   on every side,

recovering the unknown side derivative from the two global relations of the
unified transform method.  By the four-fold symmetry of the data the problem
reduces to the single unknown function q(y) = u_x(-1, y), expanded here in
Legendre polynomials.

Writing a(lam) = lam + 1/lam, the boundary integrals on the left side are

    D(lam) = int e^{a y} u(-1, y) dy,      N(lam) = int e^{a y} q(y) dy,

and since e^{a y} = e^{-i mu y} with mu = i a, each Legendre basis column of
N is a transform value from `transforms`.  Collocating the two relations

    cos(lam - 1/lam) N(lam) + cos(i lam - 1/(i lam)) N(-+ i lam)
        = (lam - 1/lam) sin(lam - 1/lam) D(lam)
          + (i lam - 1/(i lam)) sin(i lam - 1/(i lam)) D(-+ i lam)

at M points gives a 2M x N linear system, row/column equilibrated in the
l1 norm and solved by least squares.

The exact solution u = cosh(x) cosh(sqrt(3) y) + cosh(sqrt(3) x) cosh(y)
(which reproduces the data and satisfies the equation) supplies the error
oracle `exact_neumann`.
"""
from __future__ import annotations

import cmath
import math
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .transforms import legendre_hat

__all__ = [
    "SQRT3",
    "DegenerateSystemError",
    "dirichlet_trace",
    "exact_neumann",
    "dirichlet_hat",
    "neumann_hat_column",
    "RayRule",
    "DEFAULT_RULE",
    "collocation_points",
    "CollocationSystem",
    "assemble_system",
    "scale_system",
    "NeumannExpansion",
    "SolveReport",
    "solve",
    "relative_error_einf",
    "REPORT_CSV_HEADER",
]

SQRT3 = math.sqrt(3.0)

REPORT_CSV_HEADER = "N,M,E_inf,cond,residual,seconds"


class DegenerateSystemError(ValueError):
    """A collocation system with a zero row or column cannot be equilibrated."""


def dirichlet_trace(y):
    """Boundary value on the side x = -1 (identical on all four sides)."""
    y = np.asarray(y, dtype=float)
    return math.cosh(1.0) * np.cosh(SQRT3 * y) + math.cosh(SQRT3) * np.cosh(y)


def exact_neumann(y):
    """u_x(-1, y) of the exact solution; the error oracle for the solver."""
    y = np.asarray(y, dtype=float)
    return -(math.sinh(1.0) * np.cosh(SQRT3 * y) + SQRT3 * math.sinh(SQRT3) * np.cosh(y))


def _sinhc(c: complex) -> complex:
    return 1.0 + 0j if c == 0 else cmath.sinh(c) / c


def _cosh_integral(a: complex, b: float) -> complex:
    # int_{-1}^{1} e^{a y} cosh(b y) dy, with the removable zeros of a +- b
    return _sinhc(a + b) + _sinhc(a - b)


def dirichlet_hat(lam: complex) -> complex:
    """D(lam) = int_{-1}^{1} e^{(lam + 1/lam) y} u(-1, y) dy in closed form."""
    lam = complex(lam)
    if lam == 0 or not cmath.isfinite(lam):
        raise ValueError("boundary transform requires finite lam != 0")
    a = lam + 1.0 / lam
    return math.cosh(1.0) * _cosh_integral(a, SQRT3) + math.cosh(SQRT3) * _cosh_integral(a, 1.0)


def neumann_hat_column(basis_index: int, lam: complex) -> complex:
    """Contribution of Legendre mode `basis_index` to N(lam)."""
    lam = complex(lam)
    if lam == 0:
        raise ValueError("boundary transform requires lam != 0")
    return legendre_hat(basis_index, 1j * (lam + 1.0 / lam)).value


@dataclass(frozen=True)
class RayRule:
    """Collocation placement: points r_k e^{i angle} with uniform radii.

    Radii start at `r_start` with spacing max(base_span / M, min_spacing);
    the spacing floor makes the covered frequency band lam + 1/lam grow with
    the point count, which the basis resolution requires (modes above the
    top frequency produce numerically dependent columns).  With several
    angles the points cycle through them at increasing radii.
    """

    r_start: float = 1.0
    base_span: float = 4.0
    min_spacing: float = 0.5
    angles: tuple[float, ...] = (0.0,)

    def spacing(self, count: int) -> float:
        return max(self.base_span / count, self.min_spacing)


DEFAULT_RULE = RayRule()


def collocation_points(count: int, rule: RayRule = DEFAULT_RULE) -> list[complex]:
    """M collocation points; the default rule is 1, 1+h, ... on the real axis."""
    if count < 1:
        raise ValueError("need at least one collocation point")
    h = rule.spacing(count)
    points = []
    for k in range(count):
        radius = rule.r_start + k * h
        angle = rule.angles[k % len(rule.angles)]
        points.append(radius * cmath.exp(1j * angle) if angle else complex(radius))
    return points


@dataclass(frozen=True)
class CollocationSystem:
    """Assembled 2M x N system; `matrix`/`rhs` stay unscaled.

    After `scale_system`, `row_scale` holds the l1 norms of the rows and
    `col_scale` the l1 norms of the columns of the row-normalized matrix, so
    matrix/row_scale has unit rows and (matrix/row_scale)/col_scale has unit
    columns.
    """

    points: tuple[complex, ...]
    matrix: np.ndarray
    rhs: np.ndarray
    row_scale: np.ndarray | None = None
    col_scale: np.ndarray | None = None

    @property
    def scaled_matrix(self) -> np.ndarray:
        if self.row_scale is None or self.col_scale is None:
            raise ValueError("system has not been scaled")
        return self.matrix / self.row_scale[:, None] / self.col_scale[None, :]

    @property
    def scaled_rhs(self) -> np.ndarray:
        if self.row_scale is None:
            raise ValueError("system has not been scaled")
        return self.rhs / self.row_scale


def assemble_system(n_basis: int, points, dirichlet=dirichlet_hat) -> CollocationSystem:
    """Two global-relation rows per collocation point, unscaled.

    `dirichlet` maps lam to the transformed boundary data; the default is the
    fixed symmetric problem above.
    """
    points = [complex(p) for p in points]
    if n_basis < 1:
        raise ValueError("need at least one basis function")
    if not points:
        raise ValueError("need at least one collocation point")
    if any(p == 0 for p in points):
        raise ValueError("collocation points must be nonzero")
    rows = np.zeros((2 * len(points), n_basis), dtype=complex)
    rhs = np.zeros(2 * len(points), dtype=complex)
    for r, lam in enumerate(points):
        z1 = lam - 1.0 / lam
        z2 = 1j * lam - 1.0 / (1j * lam)
        c1 = cmath.cos(z1)
        c2 = cmath.cos(z2)
        f1 = z1 * cmath.sin(z1)
        f2 = z2 * cmath.sin(z2)
        d_lam = dirichlet(lam)
        base = [c1 * neumann_hat_column(col, lam) for col in range(n_basis)]
        for half, rot in ((0, -1j), (1, 1j)):
            shifted = rot * lam
            for col in range(n_basis):
                rows[2 * r + half, col] = base[col] + c2 * neumann_hat_column(col, shifted)
            rhs[2 * r + half] = f1 * d_lam + f2 * dirichlet(shifted)
    return CollocationSystem(tuple(points), rows, rhs)


def scale_system(system: CollocationSystem) -> CollocationSystem:
    """l1 equilibration: rows first, then columns of the row-normalized matrix."""
    row_norms = np.sum(np.abs(system.matrix), axis=1)
    if np.any(row_norms == 0.0):
        raise DegenerateSystemError("degenerate system: zero row")
    col_norms = np.sum(np.abs(system.matrix) / row_norms[:, None], axis=0)
    if np.any(col_norms == 0.0):
        raise DegenerateSystemError("degenerate system: zero column")
    return replace(system, row_scale=row_norms, col_scale=col_norms)


@dataclass(frozen=True)
class NeumannExpansion:
    """Legendre expansion of the recovered side derivative u_x(-1, y)."""

    coefficients: np.ndarray

    @property
    def basis_size(self) -> int:
        return len(self.coefficients)

    def reconstruct(self, y):
        y = np.asarray(y, dtype=float)
        if len(self.coefficients) == 0:
            return np.zeros_like(y)  # legval rejects an empty series
        return np.polynomial.legendre.legval(y, self.coefficients)


@dataclass(frozen=True)
class SolveReport:
    basis_size: int
    point_count: int
    e_inf: float
    cond: float
    residual_norm: float
    seconds: float

    def csv_row(self) -> str:
        return (
            f"{self.basis_size},{self.point_count},{self.e_inf:.5e},"
            f"{self.cond:.5e},{self.residual_norm:.5e},{self.seconds:.5e}"
        )


def relative_error_einf(expansion: NeumannExpansion) -> float:
    """Sup-norm error of the reconstruction against the exact derivative,
    relative to the sup-norm of the exact derivative, on 1001 uniform points."""
    grid = np.linspace(-1.0, 1.0, 1001)
    exact = exact_neumann(grid)
    return float(np.max(np.abs(expansion.reconstruct(grid) - exact)) / np.max(np.abs(exact)))


def solve(n_basis: int, point_count: int, rule: RayRule = DEFAULT_RULE) -> tuple[NeumannExpansion, SolveReport]:
    """Assemble, equilibrate and least-squares solve; report error and conditioning.

    Requires point_count >= ceil(n_basis / 2) so the system has at least as
    many rows as unknowns.  The condition number refers to the scaled matrix.
    """
    if n_basis < 1:
        raise ValueError("need at least one basis function")
    if point_count < max(1, -(-n_basis // 2)):
        raise ValueError("need at least ceil(N/2) collocation points")
    start = time.perf_counter()
    system = scale_system(assemble_system(n_basis, collocation_points(point_count, rule)))
    matrix = system.scaled_matrix
    rhs = system.scaled_rhs
    scaled_solution, _, _, singular_values = np.linalg.lstsq(matrix, rhs, rcond=None)
    solution = scaled_solution / system.col_scale
    imag_norm = float(np.linalg.norm(solution.imag))
    if imag_norm > 1e-8:
        # the underlying unknown is real; a large imaginary residue signals an
        # under-resolved (e.g. M = N/2) system, which is still allowed to run
        warnings.warn(f"imaginary part of coefficients has norm {imag_norm:.2e}", stacklevel=2)
    coefficients = solution.real.copy()
    residual = float(np.linalg.norm(matrix @ scaled_solution - rhs))
    cond = float(singular_values[0] / singular_values[-1]) if singular_values[-1] > 0 else math.inf
    expansion = NeumannExpansion(coefficients)
    report = SolveReport(
        basis_size=n_basis,
        point_count=point_count,
        e_inf=relative_error_einf(expansion),
        cond=cond,
        residual_norm=residual,
        seconds=time.perf_counter() - start,
    )
    return expansion, report
