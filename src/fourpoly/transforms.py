"""Numerically stable evaluation of the finite Fourier transforms

    int_{-1}^{1} e^{-i lam x} T_m(x) dx   and   int_{-1}^{1} e^{-i lam x} P_m(x) dx

for complex lam, with three regimes:

* lam == 0: exact rational value,
* |lam| >= max(1, m): the explicit closed form over the integer tables,
* otherwise: the three-term recurrence in the degree, solved as a
  boundary-value problem.

The closed form is an alternating sum whose largest term grows like
(2m-1)!!/|lam|^(m+1); below |lam| ~ m it cancels catastrophically in doubles.
Above the threshold its two part-sums can still cancel (near the imaginary
axis, and for larger m up to |lam| ~ 3m); where they do, the recurrence takes
over.  The closed form stays the first choice above the threshold because
its cost does not grow with |lam|.

The recurrence comes from integrating by parts the derivative identities
(2k+1) P_k = P'_{k+1} - P'_{k-1}, 2 T_k = T'_{k+1}/(k+1) - T'_{k-1}/(k-1)
and 2 U_k = (U'_{k+1} - U'_{k-1})/(k+1).  For F_k, the transform of the
degree-k polynomial p_k, this gives for k >= 1

    a_k F_k - i lam (alpha_k F_{k+1} - beta_k F_{k-1}) = d_k B_{k+1},
    d_k = alpha_k p_{k+1}(1) - beta_k p_{k-1}(1),
    B_j = e^{-i lam} - (-1)^j e^{i lam},   F_0 = 2 sin(lam) / lam,

with a = 2k+1, alpha = beta = 1 for Legendre, a = 2, alpha = 1/(k+1),
beta = 1/(k-1) (beta_1 = 0) for Chebyshev and a = 2, alpha = beta = 1/(k+1)
for U.  Once k > |lam| the other solutions grow factorially and F_k does
not, so it is computed by Olver's algorithm (F. W. J. Olver, J. Res. NBS
71B, 1967): forward elimination from F_0, then back substitution from a
truncation point chosen by the algorithm's own error estimate.

The kernel K(m, z) = int_0^pi e^{z cos w} sin(mw) dw of the paper's
integration-by-parts route to the Chebyshev transform is, with x = cos w,
the transform of U_{m-1}, the Chebyshev polynomial of the second kind, at
lam = iz.  It runs through the same closed form, recurrence and dispatch; its
integer table comes from the derivatives of U_k at x = 1, so the route checks
the Chebyshev table against an independent identity.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .coeffs import Family, as_family, coefficient_table

__all__ = [
    "EvalPath",
    "TransformResult",
    "regime_threshold",
    "zero_lambda_value",
    "chebyshev_hat",
    "legendre_hat",
    "transform_hat",
    "exp_cos_sine_integral",
    "chebyshev_hat_via_kernel",
]


class EvalPath(str, Enum):
    """Which regime of |lam| a transform value lies in.

    The strings name the regime, not the algorithm: below the threshold the
    value comes from the degree recurrence, and above it from the closed form
    unless that cancels, in which case the recurrence is used as well.
    """

    CLOSED_FORM = "ClosedForm"
    ZERO_LAMBDA = "ZeroLambda"
    SMALL_LAMBDA_SERIES = "SmallLambdaSeries"


@dataclass(frozen=True)
class TransformResult:
    value: complex
    path: EvalPath
    degree: int
    family: Family


def regime_threshold(m: int) -> float:
    """|lam| at or above which the closed form is used for degree m."""
    return float(max(1, m))


def zero_lambda_value(family: Family | str, m: int) -> Fraction:
    """Exact transform value at lam = 0."""
    if m < 0:
        raise ValueError("degree must be non-negative")
    if as_family(family) is Family.LEGENDRE:
        return Fraction(2) if m == 0 else Fraction(0)
    if m == 1:
        return Fraction(0)
    return Fraction((-1) ** (m + 1) - 1, m * m - 1)


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

# Once sum |term| exceeds this multiple of |e^{i lam} P| + |e^{-i lam} Q|,
# the part-sums P and Q have cancelled too far for double accumulation.
_CANCEL_LIMIT = 256.0


def _closed_form(coeffs: tuple[int, ...], m: int, lam: complex) -> tuple[complex, float]:
    """Closed-form value and the cancellation ratio of its part-sums.

    For real lam, w = 1/(i lam) is purely imaginary and every product keeps
    its zero component exactly, so parity, conjugation and realness hold
    exactly.
    """
    e_plus = cmath.exp(1j * lam)
    e_minus = cmath.exp(-1j * lam)
    w = 1.0 / (1j * lam)
    power = 1.0 + 0j
    sign = 1 if m % 2 else -1  # (-1)^(n+m) starting at n = 1
    part_plus = 0j  # P = sum c_n w^n, multiplies e^{i lam}
    part_minus = 0j  # Q = sum (-1)^(n+m) c_n w^n, multiplies e^{-i lam}
    magnitude = 0.0
    for n in range(1, m + 2):
        power *= w
        if n % 16 == 0:
            # repeated multiplication drifts ~n*eps; re-anchor occasionally
            power = w**n
        term = float(coeffs[n - 1]) * power
        part_plus += term
        part_minus += sign * term
        magnitude += abs(term.real) + abs(term.imag)
        sign = -sign
    plus = e_plus * part_plus
    minus = e_minus * part_minus
    kept = abs(plus) + abs(minus)
    scale = (abs(e_plus) + abs(e_minus)) * magnitude
    return plus + minus, scale / kept if kept else math.inf


_U = "U"  # table and row key of U_k; not a `Family`, so no command or check sees it


@lru_cache(maxsize=None)
def _u_table(k: int) -> tuple[int, ...]:
    """Closed-form coefficients of U_k: c_n = (-1)^(k+n+1) U_k^(n-1)(1), where
    U_k^(j)(1) = (k+1) prod_{i=1..j} ((k+1)^2 - i^2) / (2i+1), an integer."""
    table, derivative = [], k + 1
    for n in range(1, k + 2):
        table.append(derivative if (k + n) % 2 else -derivative)
        derivative = derivative * ((k + 1) ** 2 - n * n) // (2 * n + 1)
    return tuple(table)


# ---------------------------------------------------------------------------
# degree recurrence (Olver's algorithm)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _rows(kind: Family | str, size: int) -> tuple[tuple[float, float, float], ...]:
    """(alpha_k, beta_k, d_k) / a_k for k < size; row 0 is unused."""
    if kind is Family.LEGENDRE:
        return tuple((1.0 / (2 * k + 1), 1.0 / (2 * k + 1), 0.0) for k in range(size))
    if kind == _U:
        # a_k = 2, alpha_k = beta_k = 1/(k+1), d_k = ((k+2) - k)/(k+1)
        return tuple((0.5 / (k + 1), 0.5 / (k + 1), 1.0 / (k + 1)) for k in range(size))
    # a_k = 2; alpha_k = 1/(k+1), beta_k = 1/(k-1), except beta_1 = 0 (T'_0 = 0)
    head = ((0.0, 0.0, 0.0), (0.25, 0.0, 0.25))
    return head + tuple((0.5 / (k + 1), 0.5 / (k - 1), -1.0 / (k * k - 1)) for k in range(2, size))


def _recurrence(kind: Family | str, m: int, lam: complex) -> complex:
    """F_m from the degree recurrence in the module docstring.

    Forward elimination writes each row as F_k = g_k + h_k F_{k+1}.  It stops
    once k >= max(m, |lam|) and |h_m ... h_k|, the factor by which the
    neglected F_{k+1} still reaches F_m, is below 1e-17 * min(1, |lam|); the
    min covers the Chebyshev F_{k+1}, up to 1/|lam| times F_m for small lam.
    Back substitution from F_{k+1} = 0 then yields F_m.
    """
    sine = cmath.sin(lam)
    f = 2.0 * sine / lam  # F_0
    if m == 0:
        return f
    z = 1j * lam
    drive = (2.0 * cmath.cos(lam), -2j * sine)  # B_{k+1} for k even, odd
    alam = abs(lam)
    tol = 1e-17 * min(1.0, alam)
    size = 2 * math.ceil(max(m, alam)) + 64
    rows = _rows(kind, 1 << (size - 1).bit_length())
    g, h = f, 0j
    gs, hs = [], []
    reach = 1.0
    for k in range(1, size):
        alpha, beta, diff = rows[k]
        z_beta = z * beta
        pivot = 1.0 + z_beta * h
        # an exact zero pivot is a zero of the truncated determinant; a
        # round-off-sized one gives the limit the next row needs
        pivot = pivot if pivot else 1e-16
        h = z * alpha / pivot
        g = (diff * drive[k & 1] - z_beta * g) / pivot
        if k >= m:
            gs.append(g)
            hs.append(h)
            reach *= abs(h)
            if k >= alam and reach <= tol:
                break
    else:
        raise RuntimeError("degree recurrence failed to converge")
    top = len(gs) - 1
    f1 = f2 = 0j  # F_{k+1}, F_{k+2}
    for j in range(top, -1, -1):
        h = hs[j]
        if abs(h) > 1.0 and j < top:
            # a small pivot made g and h large, and g + h F_{k+1} would
            # cancel; take F_k from row k + 1 instead
            k = m + j + 1
            alpha, beta, diff = rows[k]
            f = (diff * drive[k & 1] - f1 + z * alpha * f2) / (z * beta)
        else:
            f = gs[j] + h * f1
        f1, f2 = f, f1
    return f1


# ---------------------------------------------------------------------------
# public transform evaluation
# ---------------------------------------------------------------------------


def _value(kind: Family | str, m: int, lam: complex) -> complex:
    """F_m at lam != 0: the closed form at or above `regime_threshold(m)`
    unless its part-sums cancel, the degree recurrence otherwise."""
    if abs(lam) >= regime_threshold(m):
        coeffs = _u_table(m) if kind == _U else coefficient_table(kind, m).coeffs
        value, cancellation = _closed_form(coeffs, m, lam)
        if cancellation <= _CANCEL_LIMIT:
            return value
    return _recurrence(kind, m, lam)


def transform_hat(family: Family | str, m: int, lam: complex) -> TransformResult:
    """Finite Fourier transform of the degree-m polynomial, regime-selected."""
    fam = as_family(family)
    if m < 0:
        raise ValueError("degree must be non-negative")
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise ValueError("lam must be finite")
    if lam == 0:
        return TransformResult(complex(float(zero_lambda_value(fam, m))), EvalPath.ZERO_LAMBDA, m, fam)
    path = EvalPath.CLOSED_FORM if abs(lam) >= regime_threshold(m) else EvalPath.SMALL_LAMBDA_SERIES
    return TransformResult(_value(fam, m, lam), path, m, fam)


def chebyshev_hat(m: int, lam: complex) -> TransformResult:
    """int_{-1}^{1} e^{-i lam x} T_m(x) dx."""
    return transform_hat(Family.CHEBYSHEV, m, lam)


def legendre_hat(m: int, lam: complex) -> TransformResult:
    """int_{-1}^{1} e^{-i lam x} P_m(x) dx."""
    return transform_hat(Family.LEGENDRE, m, lam)


# ---------------------------------------------------------------------------
# auxiliary kernel and the integration-by-parts route
# ---------------------------------------------------------------------------


def exp_cos_sine_integral(m: int, z: complex) -> complex:
    """K(m, z) = int_0^pi e^{z cos w} sin(m w) dw, z != 0.

    K(0, z) = 0; for m >= 1, K is the transform of U_{m-1} at lam = iz (see
    the module docstring).
    """
    z = complex(z)
    if z == 0:
        raise ValueError("kernel integral requires z != 0")
    if not cmath.isfinite(z):
        raise ValueError("z must be finite")
    if m < 0:
        raise ValueError("degree must be non-negative")
    return _value(_U, m - 1, 1j * z) if m else 0j


def chebyshev_hat_via_kernel(m: int, lam: complex) -> complex:
    """Chebyshev transform through the kernel route (integration by parts).

    Uses the U_{m-1} table, not the Chebyshev one; used to cross-check
    `chebyshev_hat` on the closed-form regime.
    """
    lam = complex(lam)
    if lam == 0:
        raise ValueError("kernel route requires lam != 0")
    sign = -1.0 if m % 2 else 1.0
    kernel = exp_cos_sine_integral(m, -1j * lam)
    return (cmath.exp(1j * lam) * sign - cmath.exp(-1j * lam) + m * kernel) / (1j * lam)
