"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are pinned here and nowhere loosened.  Criteria 1-6 assert
on the `fourpoly.checks` registry, the same code `fourpoly verify` runs.
"""
import math
import time
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np

from fourpoly.checks import CheckResult, run_check
from fourpoly.helmholtz import assemble_system, collocation_points, scale_system, solve
from fourpoly.transforms import zero_lambda_value


def _line(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _worst(*names: str, max_m: int = 20) -> CheckResult:
    """The largest-residual result among the named registry checks."""
    return max((run_check(name, max_m) for name in names), key=lambda result: result.worst)


@lru_cache(maxsize=None)
def _solve(n: int, m: int):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return solve(n, m)


def test_criterion_01_zero_argument_values():
    start = time.perf_counter()
    for m in range(31):
        expected_c = zero_lambda_value("chebyshev", m)
        expected_l = zero_lambda_value("legendre", m)
        if m == 1:
            assert expected_c == 0
        elif m != 1:
            assert expected_c == Fraction((-1) ** (m + 1) - 1, m * m - 1)
        assert expected_l == (Fraction(2) if m == 0 else Fraction(0))
    worst = _worst("zero_lambda_values", max_m=30)
    elapsed = time.perf_counter() - start
    _line(1, worst.worst == 0 and elapsed < 1.0,
          f"exact rational values at lam=0 for m<=30, inexact at {worst.where}, {elapsed:.3f}s")


def test_criterion_02_oracle_agreement():
    start = time.perf_counter()
    worst = _worst("oracle_agreement")
    elapsed = time.perf_counter() - start
    _line(2, worst.worst <= 1e-9 and elapsed < 30.0,
          f"max |transform-quadrature| residual {worst.worst:.2e} at {worst.where}, {elapsed:.1f}s")


def test_criterion_03_recurrence_residuals():
    start = time.perf_counter()
    worst = _worst("legendre_recurrence", "kernel_recurrence")
    elapsed = time.perf_counter() - start
    _line(3, worst.worst <= 1e-9 and elapsed < 10.0,
          f"transform and kernel recurrences, max relative residual {worst.worst:.2e} "
          f"({worst.name} at {worst.where}), {elapsed:.1f}s")


def test_criterion_04_route_equivalences():
    worst = _worst("kernel_route", "bessel_route")
    _line(4, worst.worst <= 1e-10,
          f"kernel and Bessel routes, max relative deviation {worst.worst:.2e} ({worst.name} at {worst.where})")


def test_criterion_05_bessel_sanity():
    worst = _worst("bessel_classical")
    _line(5, worst.worst <= 1e-10,
          f"half-order identities and exact J(0)=0, max relative deviation {worst.worst:.2e} at {worst.where}")


def test_criterion_06_parity_conjugation_realness():
    worst = _worst("parity", "conjugation", "realness")
    _line(6, worst.worst <= 1e-12,
          f"parity/conjugation/realness, max relative residual {worst.worst:.2e} ({worst.name} at {worst.where})")


def test_criterion_07_solver_accuracy():
    start = time.perf_counter()
    _, report = solve(20, 40)
    elapsed = time.perf_counter() - start
    _line(7, report.e_inf <= 1e-10 and elapsed < 5.0,
          f"N=20, M=40: E_inf={report.e_inf:.2e} (<=1e-10), {elapsed:.2f}s")


def test_criterion_08_spectral_decay():
    _, small = _solve(4, 8)
    _, medium = _solve(16, 32)
    _line(8, medium.e_inf <= 1e-3 * small.e_inf,
          f"E_inf(16,32)={medium.e_inf:.2e} <= 1e-3 * E_inf(4,8)={small.e_inf:.2e}")


def test_criterion_09_conditioning():
    ok = True
    details = []
    for n in (8, 16, 24):
        _, under = _solve(n, n // 2)
        _, over = _solve(n, 2 * n)
        ok = ok and over.cond <= under.cond
        details.append(f"N={n}: cond(M=2N)={over.cond:.2e} vs cond(M=N/2)={under.cond:.2e}")
    _, big = _solve(24, 48)
    ok = ok and math.isfinite(big.e_inf) and big.residual_norm < 1e-8
    details.append(f"N=24,M=48 solved, E_inf={big.e_inf:.2e}")
    _line(9, ok, "; ".join(details))


def test_criterion_10_scaling_postconditions():
    worst = 0.0
    for n, m in ((8, 16), (16, 32), (24, 12)):
        scaled, col_norms = scale_system(assemble_system(n, collocation_points(m)))
        row_normed = np.sum(np.abs(scaled.matrix * col_norms[None, :]), axis=1)
        col_normed = np.sum(np.abs(scaled.matrix), axis=0)
        worst = max(worst, float(np.max(np.abs(row_normed - 1.0))))
        worst = max(worst, float(np.max(np.abs(col_normed - 1.0))))
    _line(10, worst <= 1e-14, f"row/column l1 norms after scaling deviate by {worst:.2e}")
