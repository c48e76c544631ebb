# ---
# jupyter:
#   jupytext:
#     text_representation:
#       format_name: light
# ---

# # Recovering Neumann data on a square from the global relations
#
# For the modified Helmholtz equation $u_{xx} + u_{yy} = 4u$ on $[-1,1]^2$
# with the symmetric Dirichlet data
# $u = \cosh(1)\cosh(\sqrt3 y) + \cosh(\sqrt3)\cosh(y)$ on every side, the
# unified transform method couples the known boundary data with the unknown
# side derivative $u_x(-1, y)$ through two algebraic global relations per
# spectral point.  The unknown is real, so the second relation at a point is
# the complex conjugate of the first at the conjugate point: each point gives
# one complex row.  Expanding the unknown in N Legendre modes and collocating
# at M points yields M complex rows, whose real and imaginary parts make a
# 2M x N real least-squares system.
#
# The exact solution $u = \cosh(x)\cosh(\sqrt3 y) + \cosh(\sqrt3 x)\cosh(y)$
# provides the error oracle.

import warnings

import numpy as np

from fourpoly.helmholtz import REPORT_CSV_HEADER, exact_neumann, relative_error_einf, solve


def solve_recording(n, m):
    """One solve, and whether it warned that the system is under-resolved."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, report = solve(n, m)
    return report, bool(caught)


# ## Spectral convergence with M = 2N

print("N   M    E_inf       cond        residual   warns")
for n in (4, 8, 12, 16, 20, 24):
    report, warned = solve_recording(n, 2 * n)
    print(f"{n:<3d} {2*n:<4d} {report.e_inf:.3e}  {report.cond:.3e}  {report.residual_norm:.3e}  {warned}")

# The error falls from ~1e-2 to ~1e-13 while the condition number of the
# row/column equilibrated matrix stays tame: over-determining by a factor of
# two keeps the least-squares problem well behaved.  At N = 4 and 8 the solve
# warns, as the truncation error leaves a residual whose product with the
# condition number exceeds 1e-8.

# ## Under-determination ruins the conditioning
#
# With M = N/2 there are as many real equations as unknowns, but at
# lambda = 1 the imaginary one is zero, so the system is rank-deficient: the
# condition number reaches 1/eps, the solve warns, and the recovered
# coefficients are garbage even though the residual is tiny.

print("\nN   M    E_inf       cond        rank  warns")
for n in (8, 16, 24):
    report, warned = solve_recording(n, n // 2)
    print(f"{n:<3d} {n//2:<4d} {report.e_inf:.3e}  {report.cond:.3e}  {report.rank:<4d}  {warned}")

# ## The recovered trace
#
# At N=16 the reconstruction is indistinguishable from the true derivative:

expansion, report = solve(16, 32)
grid = np.linspace(-1, 1, 9)
print("\n  y      recovered      exact")
for y, rec, ex in zip(grid, expansion.reconstruct(grid), exact_neumann(grid)):
    print(f"{y: 5.2f}  {rec: .10f}  {ex: .10f}")
print(f"\nE_inf = {relative_error_einf(expansion):.3e}")

# The same sweep is available from the command line, one CSV row per (N, M):
#
#     fourpoly study --basis 4,8,12,16,20 --factors 0.5,1,1.5,2 --out study.csv
#
# with columns `N,M,E_inf,cond,residual,seconds`.
print(f"\nCSV schema: {REPORT_CSV_HEADER}")
print(report.csv_row())
