"""High-precision references for the transform and J_{m+1/2} checks.

    F_m(lam) = int_{-1}^{1} e^{-i lam x} p_m(x) dx = sum_k (-i lam)^k / k! * mu_k,
    mu_k     = int_{-1}^{1} x^k p_m(x) dx,

for p_m = T_m or P_m.  The monomial coefficients of p_m come from the
three-term recurrences in `Fraction`s, so they do not depend on
`fourpoly.coeffs`; the moments are exact and the series is summed in
`decimal` with enough digits to absorb the e^{|lam|} size of its largest
terms.  The absolute error of a reference is below 1e-30.

The same sum gives the conditioning of a double-precision moment series at
lam: `cond` = sum_k |lam|^k / k! * |mu_k| / (1 + |F|).  A double evaluation
of that series can be off by about eps * cond, which is how the known
series-band failures are bounded (see workloads.py).

    J_{m+1/2}(z) = i^m sqrt(z / 2 pi) * F_m(z) for the Legendre family,
principal root (from j_m(z) = (1 / 2 i^m) int e^{izx} P_m(x) dx).
"""
from __future__ import annotations

import cmath
import math
from decimal import Decimal, localcontext
from fractions import Fraction

GUARD_DIGITS = 40  # digits kept beyond those the largest term cancels
_POLYS: dict[str, list[list[Fraction]]] = {"chebyshev": [[Fraction(1)], [Fraction(0), Fraction(1)]],
                                           "legendre": [[Fraction(1)], [Fraction(0), Fraction(1)]]}
_MOMENTS: dict[tuple[str, int], list[Fraction]] = {}


def poly(family: str, m: int) -> list[Fraction]:
    """Monomial coefficients of T_m or P_m, lowest power first."""
    rows = _POLYS[family]
    while len(rows) <= m:
        n = len(rows) - 1  # build p_{n+1} from p_n and p_{n-1}
        x_pn = [Fraction(0)] + rows[n]
        prev = rows[n - 1] + [Fraction(0), Fraction(0)]
        if family == "chebyshev":  # T_{n+1} = 2x T_n - T_{n-1}
            rows.append([2 * a - b for a, b in zip(x_pn, prev)])
        else:  # (n+1) P_{n+1} = (2n+1) x P_n - n P_{n-1}
            rows.append([((2 * n + 1) * a - n * b) / (n + 1) for a, b in zip(x_pn, prev)])
    return rows[m]


def moments(family: str, m: int, kmax: int) -> list[Fraction]:
    """mu_0 .. mu_kmax of p_m, exact."""
    mus = _MOMENTS.setdefault((family, m), [])
    coefficients = poly(family, m)
    for k in range(len(mus), kmax + 1):
        mus.append(sum((c * Fraction(2, j + k + 1) for j, c in enumerate(coefficients) if (j + k) % 2 == 0),
                       Fraction(0)))
    return mus


def transform(family: str, m: int, lam: complex) -> tuple[complex, float]:
    """F_m(lam) and the conditioning `cond` of its moment series."""
    alam = abs(lam)
    mus = moments(family, m, int(3 * alam) + 64)
    with localcontext() as ctx:
        ctx.prec = GUARD_DIGITS + int(alam / math.log(10)) + 1
        tiny = Decimal(10) ** -(GUARD_DIGITS - 5)
        w_re, w_im = Decimal(lam.imag), -Decimal(lam.real)  # w = -i lam, exactly
        t_re, t_im = Decimal(1), Decimal(0)  # w^k / k!
        s_re, s_im = Decimal(0), Decimal(0)
        mass = 0.0
        k = 0
        # past k = 2|lam| each term is at most half the one before, and |mu_k| <= 2
        while k < 2 * alam or abs(t_re) + abs(t_im) > tiny:
            if k >= len(mus):
                mus = moments(family, m, 2 * k)
            mu = mus[k]
            if mu:
                d = Decimal(mu.numerator) / Decimal(mu.denominator)
                s_re += t_re * d
                s_im += t_im * d
                mass += abs(complex(float(t_re), float(t_im))) * abs(float(mu))
            t_re, t_im = (t_re * w_re - t_im * w_im) / (k + 1), (t_re * w_im + t_im * w_re) / (k + 1)
            k += 1
        value = complex(float(s_re), float(s_im))
    return value, mass / (1.0 + abs(value))


def bessel_half(m: int, lam: complex) -> tuple[complex, float]:
    """J_{m+1/2}(lam) and the conditioning of the moment series behind it."""
    f, cond = transform("legendre", m, lam)
    factor = 1j**m * cmath.sqrt(lam) / math.sqrt(2.0 * math.pi)
    value = factor * f
    return value, cond * abs(factor) * (1.0 + abs(f)) / (1.0 + abs(value))
