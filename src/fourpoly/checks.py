"""Invariant checks of the transform, Bessel and oracle modules.

`CHECKS` maps each check name to a generator of ``(residual, location)``
pairs over the degrees ``m <= max_m``, and to the tolerance that the worst
residual must meet at every degree; `run_check` keeps the worst pair.  NaN
counts as infinite.  Exactness checks yield 1.0 for any inexact value and
have tolerance 0.  `fourpoly verify` runs `run_checks` and the acceptance
suite `run_check`: the same code, grids and tolerances.  `bessel_route`
reads the Legendre transform on both sides, so it tests the Bessel factor,
its branch and the transform's parity; a wrong transform is
`oracle_agreement`'s to catch.

Checks read transform values through a memo, ``hat(family, m, lam)``, a
`functools.lru_cache` that `run_checks` shares across all checks.  Calls go
through module attributes (``transforms.transform_hat``, ...), so that a
tracer or a test can re-bind them.
"""
from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Callable, Iterator
from functools import lru_cache

import numpy as np

from . import bessel, coeffs, oracle, transforms
from .coeffs import Family

__all__ = ["CHECKS", "CheckResult", "closed_grid", "oracle_grid", "run_check", "run_checks"]

Residuals = Iterator[tuple[float, str]]
Hat = Callable[[Family, int, complex], complex]


# Zeros of J_0 below 66 and of J_1, J_2 below 72 (scipy.special.jn_zeros): there the
# minimal solution of the Chebyshev (J_0, J_1) or U (J_1, J_2) recurrence vanishes
# at one of its two anchors
_BESSEL_J_ZEROS = (
    (  # J_0
        2.4048255576957724, 5.520078110286311, 8.653727912911013, 11.791534439014281, 14.930917708487787,
        18.071063967910924, 21.21163662987926, 24.352471530749302, 27.493479132040253, 30.634606468431976,
        33.77582021357357, 36.917098353664045, 40.05842576462824, 43.19979171317673, 46.341188371661815,
        49.482609897397815, 52.624051841115, 55.76551075501998, 58.90698392608094, 62.048469190227166,
        65.18996480020687,
    ),
    (  # J_1
        3.8317059702075125, 7.015586669815619, 10.173468135062722, 13.323691936314223, 16.470630050877634,
        19.615858510468243, 22.760084380592772, 25.903672087618382, 29.046828534916855, 32.189679910974405,
        35.33230755008386, 38.474766234771614, 41.61709421281445, 44.75931899765282, 47.90146088718545,
        51.043535183571514, 54.18555364106132, 57.32752543790101, 60.46945784534749, 63.61135669848123,
        66.75322673409849, 69.89507183749578,
    ),
    (  # J_2
        5.135622301840683, 8.417244140399866, 11.61984117214906, 14.795951782351262, 17.959819494987826,
        21.116997053021844, 24.2701123135731, 27.420573549984557, 30.569204495516395, 33.7165195092227,
        36.86285651128381, 40.008446733478195, 43.153453778371464, 46.29799667723692, 49.442164110416876,
        52.58602350681596, 55.72962705320114, 58.87301577261216, 62.01622235921766, 65.1592731907578,
        68.30218978418345, 71.44498986635786,
    ),
)


def oracle_grid(m: int) -> list[complex]:
    """Points across every evaluation regime, mirrored in sign, for degree m,
    and the largest tabulated zero of each of J_0, J_1 and J_2 below m; from
    m = 72 on these are the table's last, 65.19, 69.90 and 71.44."""
    reals = [0.5, 1.0, 2.0, float(m + 1), float(m + 5), m - 0.5, m / 2]
    reals += [math.pi * max(1, round(m / (2 * math.pi))), math.pi * (m // math.pi + 1)]  # sin(lam) = 0
    grid = [complex(v) for v in reals] + [complex(-v) for v in reals]
    grid += [1j, -1j, 2j, 1 + 1j, 3 - 2j, complex(1e-3), 1e-6 * (1 + 1j)]
    # not mirrored: the checks evaluate -lam as well
    grid += [complex(max(z for z in zeros if z < m)) for zeros in _BESSEL_J_ZEROS if zeros[0] < m]
    return grid


def closed_grid(m: int) -> list[complex]:
    """Points above the `ClosedForm` label bound max(1, m) of degree m, at four phases;
    forward substitution serves most of them, the closed form only those from m^2/8 on."""
    phases = [1.0, -1.0, 1j, (1 + 1j) / abs(1 + 1j)]
    return [p * r for r in (m + 2.0, m + 6.0, 2.0 * m + 40.0) for p in phases]


class CheckResult(namedtuple("CheckResult", "name worst where tol")):
    __slots__ = ()

    def passed(self) -> bool:
        return self.worst <= self.tol


def _relative(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _memo_hat() -> Hat:
    """F_m(lam) by `transforms.transform_hat`, each (family, m, lam) once;
    lam keys compare with ==, so -0.0 and 0.0 parts share an entry."""
    return lru_cache(maxsize=None)(lambda fam, m, lam: transforms.transform_hat(fam, m, lam).value)


def _zero_lambda_values(max_m: int, hat: Hat) -> Residuals:
    for fam in Family:
        for m in range(max_m + 1):
            expected = complex(float(transforms.zero_lambda_value(fam, m)))
            got = hat(fam, m, 0.0)
            yield float(got != expected), f"({fam.value}, m={m}, lam=0)"


def _paper_tables(max_m: int, hat: Hat) -> Residuals:
    for fam in Family:
        for m in range(max_m + 1):
            table = (1, *coeffs.coefficient_table(fam, m).coeffs)  # c_0 = 1, so c_1 is the first ratio
            steps = zip(table, table[1:], transforms.closed_form_ratios(transforms._TWO_ALPHA[fam], m))
            yield float(not all(c * den == prev * num for prev, c, (num, den) in steps)), f"({fam.value}, m={m})"


def _oracle_points(max_m: int, families) -> Iterator[tuple[Family, int, complex, str]]:
    for fam in families:
        for m in range(max_m + 1):
            for lam in oracle_grid(m):
                yield fam, m, lam, f"({fam.value}, m={m}, lam={lam})"


def _oracle_agreement(max_m: int, hat: Hat) -> Residuals:
    for fam, m, lam, where in _oracle_points(max_m, Family):
        ref = oracle.quad_transform(fam, m, lam)
        yield abs(hat(fam, m, lam) - ref) / (1.0 + abs(ref)), where


def _parity(max_m: int, hat: Hat) -> Residuals:
    for fam, m, lam, where in _oracle_points(max_m, Family):
        plus = hat(fam, m, lam)
        yield _relative(hat(fam, m, -lam), (-1) ** m * plus), where


def _conjugation(max_m: int, hat: Hat) -> Residuals:
    for fam, m, lam, where in _oracle_points(max_m, Family):
        if lam.imag == 0.0:
            yield _relative(hat(fam, m, lam).conjugate(), hat(fam, m, -lam)), where


def _realness(max_m: int, hat: Hat) -> Residuals:
    rot = (1.0, 1j, -1.0, -1j)
    for fam, m, lam, where in _oracle_points(max_m, [Family.LEGENDRE]):
        if lam.imag == 0.0 and lam.real > 0.0:
            value = hat(fam, m, lam) * rot[m % 4]
            yield abs(value.imag) / max(abs(value), 1e-300), where


def _three_term(up: complex, mid: complex, down: complex, step: complex, drive: complex = 0) -> float:
    """|up + step mid - down - drive|, relative to the largest of its terms."""
    term = step * mid
    return abs(up + term - down - drive) / max(abs(up), abs(term), abs(down), abs(drive), 1e-300)


def _legendre_recurrence(max_m: int, hat: Hat) -> Residuals:
    for m in range(1, max_m + 1):
        for lam in closed_grid(m + 1):
            up, mid, down = (hat(Family.LEGENDRE, k, lam) for k in (m + 1, m, m - 1))
            yield _three_term(up, mid, down, (1j / lam) * (2 * m + 1)), f"(m={m}, lam={lam})"


def _kernel_recurrence(max_m: int, hat: Hat) -> Residuals:
    for m in range(1, max_m + 1):
        for z in closed_grid(m + 1):
            up, mid, down = (transforms.exp_cos_sine_integral(k, z) for k in (m + 1, m, m - 1))
            drive = (2.0 / z) * (cmath.exp(z) + (-1) ** (m - 1) * cmath.exp(-z))
            yield _three_term(up, mid, down, 2.0 * m / z, drive), f"(m={m}, z={z})"


def _kernel_route(max_m: int, hat: Hat) -> Residuals:
    for m in range(max_m + 1):
        # below m - 1 Olver's algorithm computes the kernel's U_{m-1}, so the
        # largest zero of each of J_1 and J_2 there tests its anchor
        zeros = [complex(max(z for z in js if z < m - 1)) for js in _BESSEL_J_ZEROS[1:] if js[0] < m - 1]
        for lam in closed_grid(m) + zeros:
            direct = hat(Family.CHEBYSHEV, m, lam)
            yield _relative(direct, transforms.chebyshev_hat_via_kernel(m, lam)), f"(m={m}, lam={lam})"


def _bessel_route(max_m: int, hat: Hat) -> Residuals:
    """`bessel_half` against J_{m+1/2}(lam) = sqrt(2 lam / pi) j_m(lam) (DLMF 10.47.3),
    with j_m(lam) = (-i)^m / 2 times the Legendre transform at -lam (DLMF 10.54.2)."""
    minus_i_pow = (1.0, -1j, -1.0, 1j)
    for m in range(max_m + 1):
        for lam in closed_grid(m):
            dlmf = cmath.sqrt(2.0 * lam / math.pi) * minus_i_pow[m % 4] / 2.0 * hat(Family.LEGENDRE, m, -lam)
            yield _relative(bessel.bessel_half(m, lam), dlmf), f"(m={m}, lam={lam})"


def _bessel_classical(max_m: int, hat: Hat) -> Residuals:
    for lam in [0.5, 1.0, 2.0, 5.0, 10.0]:
        j0 = math.sqrt(2.0 / (math.pi * lam)) * math.sin(lam)
        got0 = bessel.bessel_half(0, lam)
        yield abs(got0 - j0) / max(abs(j0), 1e-300), f"(m=0, lam={lam})"
        if max_m >= 1:
            j1 = math.sqrt(2.0 / (math.pi * lam)) * (math.sin(lam) / lam - math.cos(lam))
            got1 = bessel.bessel_half(1, lam)
            yield abs(got1 - j1) / max(abs(j1), 1e-300), f"(m=1, lam={lam})"
    for m in range(max_m + 1):
        yield float(bessel.bessel_half(m, 0.0) != 0), f"(m={m}, lam=0)"


def _quadrature_rule(max_m: int, hat: Hat) -> Residuals:
    for order in (40, 64, 128):
        rule = oracle.gauss_legendre_rule(order)
        yield abs(float(np.sum(rule.weights)) - 2.0), f"(order={order}, sum w)"
        yield float(np.any(np.diff(rule.nodes) <= 0)), f"(order={order}, node ordering)"
        for power in (2, 10, 2 * order - 1):
            exact = 2.0 / (power + 1) if power % 2 == 0 else 0.0
            got = float(np.sum(rule.weights * rule.nodes**power))
            yield abs(got - exact), f"(order={order}, x^{power})"


# In the order `fourpoly verify` prints them; the tolerances are acceptance criteria
# 1 (exact), 2 and 3 (1e-9), 4 and 5 (1e-10) and 6 (1e-12); none pins `quadrature_rule`.
CHECKS: dict[str, tuple[Callable[[int, Hat], Residuals], float]] = {
    "zero_lambda_values": (_zero_lambda_values, 0.0),
    "paper_tables": (_paper_tables, 0.0),
    "oracle_agreement": (_oracle_agreement, 1e-9),
    "parity": (_parity, 1e-12),
    "conjugation": (_conjugation, 1e-12),
    "realness": (_realness, 1e-12),
    "legendre_recurrence": (_legendre_recurrence, 1e-9),
    "kernel_recurrence": (_kernel_recurrence, 1e-9),
    "kernel_route": (_kernel_route, 1e-10),
    "bessel_route": (_bessel_route, 1e-10),
    "bessel_classical": (_bessel_classical, 1e-10),
    "quadrature_rule": (_quadrature_rule, 1e-9),
}


def _worst(name: str, max_m: int, hat: Hat) -> CheckResult:
    residuals, tol = CHECKS[name]
    worst, where = 0.0, "-"
    for residual, location in residuals(max_m, hat):
        if math.isnan(residual):
            residual = math.inf
        if residual > worst:
            worst, where = residual, location
    return CheckResult(name, worst, where, tol)


def run_check(name: str, max_m: int) -> CheckResult:
    """Worst residual of one check over m <= max_m, where it occurred, and the check's tolerance."""
    return _worst(name, max_m, _memo_hat())


def run_checks(max_m: int) -> list[CheckResult]:
    """Every check in registry order, sharing one transform memo."""
    hat = _memo_hat()
    return [_worst(name, max_m, hat) for name in CHECKS]
