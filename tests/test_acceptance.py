"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are pinned here and nowhere loosened.
"""
import math
import time
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np

from fourpoly.bessel import bessel_half, legendre_hat_via_bessel
from fourpoly.coeffs import Family
from fourpoly.helmholtz import assemble_system, collocation_points, scale_system, solve
from fourpoly.oracle import quad_transform
from fourpoly.transforms import (
    chebyshev_hat,
    chebyshev_hat_via_kernel,
    exp_cos_sine_integral,
    legendre_hat,
    transform_hat,
    zero_lambda_value,
)

FAMILIES = list(Family)


def _line(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _grid(m: int) -> list[complex]:
    reals = [0.5, 1.0, 2.0, float(m + 1), float(m + 5), m - 0.5, m / 2]
    grid = [complex(v) for v in reals] + [complex(-v) for v in reals]
    grid += [1j, -1j, 2j, 1 + 1j, 3 - 2j, complex(1e-3), 1e-6 * (1 + 1j)]
    return grid


def _closed_regime_grid(m: int) -> list[complex]:
    phases = [1.0, -1.0, 1j, (1 + 1j) / abs(1 + 1j)]
    return [p * r for r in (m + 2.0, m + 6.0, 2.0 * m + 40.0) for p in phases]


@lru_cache(maxsize=None)
def _solve(n: int, m: int):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return solve(n, m)


def test_criterion_01_zero_argument_values():
    start = time.perf_counter()
    worst = 0
    for m in range(31):
        expected_c = zero_lambda_value("chebyshev", m)
        expected_l = zero_lambda_value("legendre", m)
        if m == 1:
            assert expected_c == 0
        elif m != 1:
            assert expected_c == Fraction((-1) ** (m + 1) - 1, m * m - 1)
        assert expected_l == (Fraction(2) if m == 0 else Fraction(0))
        if chebyshev_hat(m, 0.0).value != complex(float(expected_c)):
            worst += 1
        if legendre_hat(m, 0.0).value != complex(float(expected_l)):
            worst += 1
    elapsed = time.perf_counter() - start
    _line(1, worst == 0 and elapsed < 1.0,
          f"exact rational values at lam=0 for m<=30, {elapsed:.3f}s")


def test_criterion_02_oracle_agreement():
    start = time.perf_counter()
    worst, where = 0.0, ""
    for family in FAMILIES:
        for m in range(21):
            for lam in _grid(m):
                ref = quad_transform(family, m, lam)
                got = transform_hat(family, m, lam).value
                residual = abs(got - ref) / (1.0 + abs(ref))
                if residual > worst:
                    worst, where = residual, f"{family.value}, m={m}, lam={lam}"
    elapsed = time.perf_counter() - start
    _line(2, worst <= 1e-9 and elapsed < 30.0,
          f"max |transform-quadrature| residual {worst:.2e} at ({where}), {elapsed:.1f}s")


def test_criterion_03_recurrence_residuals():
    start = time.perf_counter()
    worst = 0.0
    for m in range(1, 21):
        for lam in _closed_regime_grid(m + 1):
            up = legendre_hat(m + 1, lam).value
            mid = legendre_hat(m, lam).value
            down = legendre_hat(m - 1, lam).value
            residual = abs(up + (1j / lam) * (2 * m + 1) * mid - down)
            scale = max(abs(up), abs((2 * m + 1) * mid / abs(lam)), abs(down))
            worst = max(worst, residual / scale)
            k_up = exp_cos_sine_integral(m + 1, lam)
            k_mid = exp_cos_sine_integral(m, lam)
            k_down = exp_cos_sine_integral(m - 1, lam)
            drive = (2.0 / lam) * (np.exp(lam) + (-1) ** (m - 1) * np.exp(-lam))
            residual = abs(k_up + (2.0 * m / lam) * k_mid - k_down - drive)
            scale = max(abs(k_up), abs(2.0 * m / lam * k_mid), abs(k_down), abs(drive))
            worst = max(worst, residual / scale)
    elapsed = time.perf_counter() - start
    _line(3, worst <= 1e-9 and elapsed < 10.0,
          f"transform and kernel recurrences, max relative residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_route_equivalences():
    worst = 0.0
    for m in range(21):
        for lam in _closed_regime_grid(m):
            direct = chebyshev_hat(m, lam).value
            via = chebyshev_hat_via_kernel(m, lam)
            worst = max(worst, abs(direct - via) / max(abs(direct), abs(via)))
            direct = legendre_hat(m, lam).value
            via = legendre_hat_via_bessel(m, lam)
            worst = max(worst, abs(direct - via) / max(abs(direct), abs(via)))
    _line(4, worst <= 1e-10, f"kernel and Bessel routes, max relative deviation {worst:.2e}")


def test_criterion_05_bessel_sanity():
    worst = 0.0
    for lam in (0.5, 1.0, 2.0, 5.0, 10.0):
        ref0 = math.sqrt(2.0 / (math.pi * lam)) * math.sin(lam)
        ref1 = math.sqrt(2.0 / (math.pi * lam)) * (math.sin(lam) / lam - math.cos(lam))
        worst = max(worst, abs(bessel_half(0, lam) - ref0) / abs(ref0))
        worst = max(worst, abs(bessel_half(1, lam) - ref1) / abs(ref1))
    zero_ok = all(bessel_half(m, 0.0) == 0 for m in range(8))
    _line(5, worst <= 1e-10 and zero_ok,
          f"half-order identities, max relative deviation {worst:.2e}; J(0)=0")


def test_criterion_06_parity_conjugation_realness():
    worst = 0.0
    rot = (1.0, 1j, -1.0, -1j)
    for family in FAMILIES:
        for m in range(21):
            for lam in _grid(m):
                plus = transform_hat(family, m, lam).value
                minus = transform_hat(family, m, -lam).value
                denom = max(abs(plus), abs(minus))
                if denom > 0:
                    worst = max(worst, abs(minus - (-1) ** m * plus) / denom)
                if lam.imag == 0.0:
                    if denom > 0:
                        worst = max(worst, abs(plus.conjugate() - minus) / denom)
                    if lam.real > 0 and family is Family.LEGENDRE and plus != 0:
                        rotated = plus * rot[m % 4]
                        worst = max(worst, abs(rotated.imag) / abs(rotated))
    _line(6, worst <= 1e-12, f"parity/conjugation/realness, max relative residual {worst:.2e}")


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
        system = scale_system(assemble_system(n, collocation_points(m)))
        row_normed = np.sum(np.abs(system.matrix / system.row_scale[:, None]), axis=1)
        col_normed = np.sum(np.abs(system.scaled_matrix), axis=0)
        worst = max(worst, float(np.max(np.abs(row_normed - 1.0))))
        worst = max(worst, float(np.max(np.abs(col_normed - 1.0))))
    _line(10, worst <= 1e-14, f"row/column l1 norms after scaling deviate by {worst:.2e}")
