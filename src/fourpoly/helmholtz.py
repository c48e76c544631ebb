"""Collocation solver for the modified Helmholtz equation u_xx + u_yy = 4 u
on the square [-1, 1]^2 with symmetric Dirichlet data

    u = cosh(1) cosh(sqrt(3) y) + cosh(sqrt(3)) cosh(y)   on every side,

recovering the unknown side derivative from the two global relations of the
unified transform method.  By the four-fold symmetry of the data the problem
reduces to the single unknown function q(y) = u_x(-1, y), expanded here in
Legendre polynomials.

On the left side each boundary integral is a transform at a frequency mu,

    D^(mu) = int e^{-i mu y} u(-1, y) dy,      N^(mu) = int e^{-i mu y} q(y) dy,

D^ in closed form and each Legendre basis column of N^ a transform value
from `transforms`.  A point lam has two frequencies,

    z1 = lam - 1/lam,      z2 = i lam - 1/(i lam) = i (lam + 1/lam),

and its relations read the side at z2 and, for the turned points -+ i lam,
at +-z1.  As q is real, the relation at +i lam is the conjugate of the one at
-i lam for the point conj(lam), so each point gives one complex row, from two
degree sweeps, at z2 and at z1, by the evaluator's dispatch.  Collocating

    cos z1 N^(z2) + cos z2 N^(z1) = z1 sin z1 D^(z2) + z2 sin z2 D^(z1)

at M points gives an M x N complex system, row/column equilibrated in the
l1 norm, whose real and imaginary parts, 2M real equations in the N real
coefficients, are solved by least squares; a system with a zero row or column
cannot be equilibrated and raises `np.linalg.LinAlgError`, as `lstsq` does.

The exact solution u = cosh(x) cosh(sqrt(3) y) + cosh(sqrt(3) x) cosh(y)
(which reproduces the data and satisfies the equation) supplies the error
oracle `exact_neumann`.
"""
from __future__ import annotations

import cmath
import math
import time
import warnings
from collections import namedtuple

import numpy as np

from .transforms import _sweep, legendre_hat  # noqa: F401 (legendre_hat: re-bound by bench/tracing.py)

__all__ = [
    "SQRT3",
    "dirichlet_trace",
    "exact_neumann",
    "dirichlet_hat",
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


def dirichlet_hat(mu: complex) -> complex:
    """D^(mu) = int_{-1}^{1} e^{-i mu y} u(-1, y) dy in closed form, with a = -i mu."""
    mu = complex(mu)
    if not cmath.isfinite(mu):
        raise ValueError(f"boundary transform requires a finite mu, got mu={mu}")
    a = -1j * mu
    try:
        value = math.cosh(1.0) * _cosh_integral(a, SQRT3) + math.cosh(SQRT3) * _cosh_integral(a, 1.0)
    except OverflowError:  # cmath's range error: the value is beyond the double range
        value = math.inf
    if not cmath.isfinite(value):
        raise OverflowError(f"boundary transform beyond the double range at mu={mu}")
    return value


def collocation_points(count: int) -> list[complex]:
    """M collocation points 1, 1+h, ..., 1+(M-1)h on the real axis, h = max(4/M, 1/2).

    The spacing floor makes the covered frequency band lam + 1/lam grow with
    the point count, which the basis resolution requires (modes above the
    top frequency produce numerically dependent columns).
    """
    if count < 1:
        raise ValueError("need at least one collocation point")
    h = max(4.0 / count, 0.5)
    return [complex(1.0 + k * h) for k in range(count)]


class CollocationSystem(namedtuple("CollocationSystem", "matrix rhs")):
    """An M x N complex system, one row per point, unscaled from
    `assemble_system` or equilibrated by `scale_system`."""

    __slots__ = ()


def assemble_system(n_basis: int, points, dirichlet=dirichlet_hat) -> CollocationSystem:
    """One global-relation row per collocation point, unscaled.

    Row r reads cos z1 N^(z2) + cos z2 N^(z1) = z1 sin z1 D^(z2) +
    z2 sin z2 D^(z1) at the point's frequencies z1, z2; the relation at the
    other turned point is the conjugate of row r at conj(lam).  The callback
    `dirichlet` maps a frequency mu to the boundary transform D^(mu) of real
    data; the default is the fixed symmetric problem above.  A zero or
    non-finite point raises `ValueError`, before any work; a finite point
    whose row or right-hand side leaves the double range, `OverflowError`.
    """
    points = [complex(p) for p in points]
    if n_basis < 1:
        raise ValueError("need at least one basis function")
    if not points:
        raise ValueError("need at least one collocation point")
    if not all(p and cmath.isfinite(p) for p in points):
        raise ValueError("collocation points must be finite and nonzero")
    rows = np.zeros((len(points), n_basis), dtype=complex)
    rhs = np.zeros(len(points), dtype=complex)
    for r, lam in enumerate(points):
        try:
            z1 = lam - 1.0 / lam
            z2 = 1j * lam - 1.0 / (1j * lam)
            (c1, f1, d1), (c2, f2, d2) = ((cmath.cos(z), z * cmath.sin(z), dirichlet(z)) for z in (z1, z2))
        except (OverflowError, ValueError):  # cmath's range error, or its domain error at an infinite 1/lam
            rhs[r] = math.nan  # marks the point as not finite for the check below
            break
        # sweep only after the checks above: at lam = 1e-300 the z2 sweep raises a bare range error (`_finished`)
        # a = 1: Legendre
        rows[r] = c1 * np.array(_sweep(1, n_basis - 1, z2, 0)) + c2 * np.array(_sweep(1, n_basis - 1, z1, 0))
        rhs[r] = f1 * d2 + f2 * d1
    finite = np.isfinite(rhs) & np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise OverflowError(f"collocation rows beyond the double range at lam={points[np.argmin(finite)]}")
    return CollocationSystem(rows, rhs)


def scale_system(system: CollocationSystem) -> tuple[CollocationSystem, np.ndarray]:
    """l1 equilibration: rows first, then columns of the row-normalized matrix.

    Returns the scaled system, whose matrix has unit l1 columns, and the
    column norms, by which the scaled unknowns divide to give the original
    ones.
    """
    row_norms = np.sum(np.abs(system.matrix), axis=1)
    if np.any(row_norms == 0.0):
        raise np.linalg.LinAlgError("degenerate system: zero row")
    col_norms = np.sum(np.abs(system.matrix) / row_norms[:, None], axis=0)
    if np.any(col_norms == 0.0):
        raise np.linalg.LinAlgError("degenerate system: zero column")
    matrix = system.matrix / row_norms[:, None] / col_norms[None, :]
    return CollocationSystem(matrix, system.rhs / row_norms), col_norms


class NeumannExpansion(namedtuple("NeumannExpansion", "coefficients")):
    """Legendre expansion of the recovered side derivative u_x(-1, y)."""

    __slots__ = ()

    def reconstruct(self, y):
        y = np.asarray(y, dtype=float)
        if len(self.coefficients) == 0:
            return np.zeros_like(y)  # legval rejects an empty series
        return np.polynomial.legendre.legval(y, self.coefficients)


class SolveReport(namedtuple("SolveReport", "basis_size point_count e_inf cond residual_norm seconds rank "
                             "assembly_s scale_s lstsq_s error_s")):
    """One solve; `cond`, `residual_norm` and `rank` refer to the real 2M x N system that
    `solve` hands lstsq, the four stage times (s) sum to `seconds`, and `csv_row` omits both."""

    __slots__ = ()

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


def solve(n_basis: int, point_count: int) -> tuple[NeumannExpansion, SolveReport]:
    """Assemble, equilibrate and least-squares solve; report error and conditioning.

    The coefficients solve the real 2M x N system [Re S; Im S] of the
    equilibrated rows S, to which cond, residual and rank refer.  It needs
    M >= ceil(N/2) points; at M = N/2 it is rank-deficient, as the imaginary
    row at lam = 1 (z1 = 0) is zero.  A solve with cond * residual > 1e-8 warns.
    """
    if point_count < max(1, -(-n_basis // 2)):
        raise ValueError("need at least ceil(N/2) collocation points")
    ticks = [time.perf_counter()]  # then the end of each stage
    system = assemble_system(n_basis, collocation_points(point_count))
    ticks.append(time.perf_counter())
    scaled, col_norms = scale_system(system)
    ticks.append(time.perf_counter())
    matrix = np.concatenate((scaled.matrix.real, scaled.matrix.imag))
    rhs = np.concatenate((scaled.rhs.real, scaled.rhs.imag))
    scaled_solution, _, rank, singular_values = np.linalg.lstsq(matrix, rhs, rcond=None)
    residual = float(np.linalg.norm(matrix @ scaled_solution - rhs))
    # a singular value below eps times the largest is rounding, so cond is at most 1/eps
    cond = float(singular_values[0] / max(singular_values[-1], np.finfo(float).eps * singular_values[0]))
    if cond * residual > 1e-8:
        # an under-resolved (e.g. M = N/2) system, which is still allowed to run
        warnings.warn(f"cond * residual is {cond * residual:.2e}: the system is under-resolved", stacklevel=2)
    expansion = NeumannExpansion(scaled_solution / col_norms)
    ticks.append(time.perf_counter())
    e_inf = relative_error_einf(expansion)
    ticks.append(time.perf_counter())
    report = SolveReport(
        basis_size=n_basis,
        point_count=point_count,
        e_inf=e_inf,
        cond=cond,
        residual_norm=residual,
        seconds=ticks[-1] - ticks[0],
        rank=int(rank),
        **dict(zip(("assembly_s", "scale_s", "lstsq_s", "error_s"), (b - a for a, b in zip(ticks, ticks[1:])))),
    )
    return expansion, report
