"""Numerically stable evaluation of the finite Fourier transforms

    F_m(lam) = int_{-1}^{1} e^{-i lam x} p_m(x) dx

for complex lam, where p_m is the Gegenbauer polynomial C^(alpha)_m scaled to
p_m(1) = 1, with a = 2 alpha: T_m at a = 0, P_m at a = 1 and U_m/(m+1) at
a = 2 (DLMF 18.9).  `_sweep` gives F_low ... F_m by the cheapest stable
algorithm: the closed form (F_m alone) where |lam| >= max(1, m, m^2/8) unless
it cancels, else forward substitution in the degree (m rows) where |lam| > m
and m^2 |Im lam| <= 2 |lam|^2, else Olver's algorithm (about max(m, |lam|) rows
near the real axis, fewer off it), exact at lam = 0 up to one rounding.

The closed form sum_n c_n [e^{i lam} + (-1)^(n+m) e^{-i lam}] (i lam)^-n reads
none of the paper's integer tables (`coeffs`): as c_n = (-1)^(m+n+1)
p_m^(n-1)(1), c_1 = (-1)^m and each term is the one before it times

    r_n = c_{n+1}/c_n = -(m-n+1)(m+n-1+a)/(2n-1+a)

over i lam.  Its terms grow until n ~ m^2/(2|lam|), so in doubles it cancels
below |lam| ~ m^2/8 on the real axis and m^2/4 on the imaginary one.  All
three take e^{+-i lam}, sin and cos at `_capped(lam)`, and `_sweep` restores
the factor (`_uncapped`), so only a value beyond the double range overflows.

The recurrence comes from integrating by parts the derivative identity
p_k = alpha_k p'_{k+1} - beta_k p'_{k-1}, with alpha_k = (k+a)/((k+1)(2k+a))
and beta_k = k/((k+a-1)(2k+a)).  For k >= 1 this gives

    F_k - i lam (alpha_k F_{k+1} - beta_k F_{k-1}) = d_k B_{k+1},
    d_k = alpha_k - beta_k = (a-1)/((k+1)(k+a-1)),
    B_j = e^{-i lam} - (-1)^j e^{i lam},   F_0 = 2 sin(lam) / lam,

except at a = 0, k = 1, where T_1 = T'_2/4 gives (1/4, 0, 1/4).  Each
coefficient is one division of exact integers, so it is the double nearest
its rational value.  While k < |lam|, every solution oscillates, and the
ratio of two grows only like e^{m^2 |Im lam|/|lam|^2} up to k = m; there
F_0 = 2 sin(lam)/lam and F_1 = i(2 cos lam - F_0)/lam, the transform of
p_1 = x, give F_m by forward substitution (W. Gautschi, SIAM Rev. 9, 1967).
Once k > |lam| the other solutions grow factorially and F_k does not, so it
is computed by Olver's algorithm (F. W. J. Olver, J. Res. NBS 71B, 1967):
forward elimination from an exact anchor, then back substitution from a
truncation point chosen by the algorithm's own error estimate.  An anchor
where the minimal solution is small loses F_m (Legendre at lam = n pi, where
F_0 = 0).  That solution goes like sin(lam - (a-1) pi/4) at F_0 (at a = 0,
row 1 of the recurrence) and like cos(lam - (a-1) pi/4) at F_1, so where the
second is larger and |lam| > 1 the anchor is F_1.

The kernel K(m, z) = int_0^pi e^{z cos w} sin(mw) dw of the paper's
integration-by-parts route to the Chebyshev transform is, with x = cos w,
the transform of U_{m-1}, the Chebyshev polynomial of the second kind, at
lam = iz: m times F_{m-1} at a = 2.  It runs through the same three
algorithms and dispatch; its ratios come from the derivatives of U_k at
x = 1, so the route checks the T_m ratios against an independent identity.
"""
from __future__ import annotations

import cmath
import math
from collections import namedtuple
from enum import Enum
from functools import lru_cache

from .coeffs import Family, as_degree, as_family, coefficient_table  # noqa: F401 (re-bound by bench/tracing.py)

__all__ = [
    "EvalPath",
    "TransformResult",
    "zero_lambda_value",
    "chebyshev_hat",
    "legendre_hat",
    "transform_hat",
    "exp_cos_sine_integral",
    "chebyshev_hat_via_kernel",
]


class EvalPath(str, Enum):
    """Which regime of (m, lam) a transform value lies in.

    The strings name the regime, not the algorithm, as the benchmark keys its
    checks and spans by them: `CLOSED_FORM` at |lam| >= max(1, m), else
    `SMALL_LAMBDA_SERIES` (`ZERO_LAMBDA` at lam = 0).  Below that bound the
    value comes from Olver's algorithm (F_0 itself at m = 0), at or above it
    from whichever algorithm `_sweep` picks.
    """

    CLOSED_FORM = "ClosedForm"
    ZERO_LAMBDA = "ZeroLambda"
    SMALL_LAMBDA_SERIES = "SmallLambdaSeries"


class TransformResult(namedtuple("TransformResult", "value path")):
    """A transform value (complex) and the `EvalPath` of its regime."""

    __slots__ = ()


def zero_lambda_value(family: Family | str, m: int):
    """Exact transform value at lam = 0, as a `fractions.Fraction`; the checks' reference."""
    from fractions import Fraction  # here, so that importing transforms does not load it

    m = as_degree(m)
    if as_family(family) is Family.LEGENDRE:
        return Fraction(2) if m == 0 else Fraction(0)
    if m == 1:
        return Fraction(0)
    return Fraction((-1) ** (m + 1) - 1, m * m - 1)


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

# Once sum |term| exceeds this multiple of |e^{i lam} P| + |e^{-i lam} Q|,
# the part-sums P and Q have cancelled too far for double accumulation: at
# ratio 244 (T_16 at a zero of J_2) the closed form is off by 7.4e-13
# relative, the recurrence by 1.6e-14; `_sweep` then takes another algorithm.
_CANCEL_LIMIT = 64.0

# The closed form is tried only where |lam| >= max(1, m, m^2/_CLOSED_FORM_REACH): at 4523
# random points (|lam| >= max(1, m), m <= 1000, a <= 2) it cancelled at all
# but 2 of the 1758 beyond, both with m^2 < 8.9 |lam|, and served 2260 of 2765.
_CLOSED_FORM_REACH = 8.0

# Forward substitution needs g = m^2 |Im lam|/|lam|^2 <= _FORWARD_GROWTH: at
# 2860 random points (a <= 2, m <= 1000, m < |lam| <= 60m, off zeros of F_m)
# its worst error against Olver's was 1.3e-13 to g = 2.4, 1.1e-10 at g ~ 8.
_FORWARD_GROWTH = 2.0

_LN2 = math.log(2.0)

# a = 2 alpha of each family; a = 2 (U_k/(k+1)) serves only the kernel
_TWO_ALPHA = {Family.CHEBYSHEV: 0, Family.LEGENDRE: 1}


@lru_cache(maxsize=256)
def closed_form_ratios(a: int, m: int) -> tuple[tuple[int, int], ...]:
    """c_1, then r_n = c_{n+1}/c_n for n = 1..m, as (numerator, denominator);
    r_n is minus the ratio of consecutive derivatives of p_m at x = 1."""
    return ((-1) ** m, 1), *((-(m - n + 1) * (m + n - 1 + a), 2 * n - 1 + a) for n in range(1, m + 1))


def _closed_form(a: int, m: int, lam: complex) -> tuple[complex, float]:
    """Closed-form value and the cancellation ratio of its part-sums.

    For real lam, w = 1/(i lam) is purely imaginary and every product keeps
    its zero component exactly, so parity, conjugation and realness hold
    exactly.  Like the other two algorithms, it works at `_capped(lam)`.
    """
    near = _capped(lam)
    e_plus = cmath.exp(1j * near)
    e_minus = cmath.exp(-1j * near)
    w = 1.0 / (1j * lam)
    if not w:  # the division overflowed, so |Im lam| > 1e300 and F_m ~ e^{|Im lam|} too
        raise OverflowError("closed form beyond the double range")
    term = 1.0 + 0j  # c_0 w^0, so that c_1 is the first ratio
    sign = 1 if m % 2 else -1  # (-1)^(n+m) starting at n = 1
    part_plus = 0j  # P = sum c_n w^n, multiplies e^{i lam}
    part_minus = 0j  # Q = sum (-1)^(n+m) c_n w^n, multiplies e^{-i lam}
    magnitude = 0.0
    for num, den in closed_form_ratios(a, m):
        term *= num / den * w
        part_plus += term
        part_minus += sign * term
        magnitude += abs(term.real) + abs(term.imag)
        sign = -sign
    plus = e_plus * part_plus
    minus = e_minus * part_minus
    kept = abs(plus) + abs(minus)
    scale = (abs(e_plus) + abs(e_minus)) * magnitude
    return plus + minus, scale / kept if kept else math.inf


def _capped(lam: complex) -> complex:
    """lam with |Im lam| capped at 700: e^{+-i lam} there lacks e^{|Im lam| - 700}."""
    return complex(lam.real, math.copysign(700.0, lam.imag)) if abs(lam.imag) > 700.0 else lam


def _uncapped(lam: complex, values: list[complex]) -> list[complex]:
    """values, taken at `_capped(lam)`, times e^{|Im lam| - 700} as e^r 2^k
    with r < ln 2: the factor, which overflows from |Im lam| = 1409.78 on, is
    never formed, so only a product beyond the double range raises (ldexp)."""
    excess = abs(lam.imag) - 700.0
    if excess <= 0.0:
        return values
    k = int(excess / _LN2)
    factor = math.exp(excess - k * _LN2)
    return [complex(math.ldexp(v.real * factor, k), math.ldexp(v.imag * factor, k)) for v in values]


# ---------------------------------------------------------------------------
# degree recurrence: Olver's algorithm and forward substitution
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _rows(a: int, size: int) -> tuple[tuple[float, float, float], ...]:
    """(alpha_k, beta_k, d_k) for k < size; row 0 is unused, and at a = 0
    row 1 is (1/4, 0, 1/4) because T'_0 = 0."""
    head = ((0.0, 0.0, 0.0), (0.25, 0.0, 0.25)) if a == 0 else ((0.0, 0.0, 0.0),)
    return head + tuple(
        ((k + a) / ((k + 1) * (2 * k + a)), k / ((k + a - 1) * (2 * k + a)), (a - 1) / ((k + 1) * (k + a - 1)))
        for k in range(len(head), size)
    )


def _start(lam: complex) -> tuple[complex, tuple[complex, complex]]:
    """F_0 (2 at lam = 0) and the drive B_{k+1} for k even, odd, at `_capped(lam)`."""
    near = _capped(lam)
    sine = cmath.sin(near)
    return 2.0 * sine / lam if lam else 2.0 + 0j, (2.0 * cmath.cos(near), -2j * sine)


def _recurrence(a: int, m: int, lam: complex, low: int) -> list[complex]:
    """F_low ... F_m (low <= m), at `_capped(lam)`, by Olver's algorithm.

    Forward elimination writes each row as F_k = g_k + h_k F_{k+1}.  From
    k = m on it stops once |h_m ... h_k|, the factor by which the neglected
    F_{k+1} still reaches F_m, is below 1e-17 * min(1, |lam|); the min covers
    the Chebyshev F_{k+1}, up to F_m/|lam| for small lam.  No k >= |lam| wait
    is needed: near the real axis |h_k| stays near 1 until k passes |lam|.
    Back substitution from F_{k+1} = 0 then yields F_m and every lower degree.
    At lam = 0, F_0 = 2 and every h_k is 0, so F_k = d_k B_{k+1} exactly
    (rounded once), and the elimination stops at row max(1, m).
    """
    f, drive = _start(lam)
    z = 1j * lam
    alam = abs(lam)
    tol = 1e-17 * min(1.0, alam)
    rows = _rows(a, 1 << (m + 64).bit_length())  # up to |lam| = 40 the stop comes by row m + 64
    folded = complex(abs(lam.real), abs(lam.imag))  # the same anchor at lam, -lam and conj(lam)
    g, h, start = f, 0j, 1  # the anchor (module docstring): F_0, or row 1 is F_1 = g_1 with h_1 = 0
    if alam > 1.0 and abs(cmath.tan(folded - (a - 1) * math.pi / 4)) < 1.0:
        g, start = 1j * (drive[0] - f) / lam, 2
    gs = [f, g][:start] + [0j] * (low - start)  # by degree: rows 0 (and 1), then padding up to low
    hs = [h] * len(gs)
    reach = 1.0
    for k in range(start, 2 * math.ceil(max(m, alam)) + 64):
        try:
            alpha, beta, diff = rows[k]
        except IndexError:  # double the table: no length test per row
            rows = _rows(a, 2 * len(rows))
            alpha, beta, diff = rows[k]
        z_beta = z * beta
        pivot = 1.0 + z_beta * h
        # an exact zero pivot is a zero of the truncated determinant; a
        # round-off-sized one gives the limit the next row needs
        pivot = pivot if pivot else 1e-16
        h = z * alpha / pivot
        g = (diff * drive[k & 1] - z_beta * g) / pivot
        if k >= low:
            gs.append(g)
            hs.append(h)
            if k >= m and (reach := reach * abs(h)) <= tol:
                break
    else:
        raise RuntimeError("degree recurrence failed to converge")
    top = len(gs) - 1
    f1 = f2 = 0j  # F_{k+1}, F_{k+2}
    for k in range(top, low - 1, -1):
        h = hs[k]
        if abs(h) > 1.0 and k < top:
            # a small pivot made g and h large, and g + h F_{k+1} would
            # cancel; take F_k from row k + 1 instead
            alpha, beta, diff = rows[k + 1]
            f = (diff * drive[(k + 1) & 1] - f1 + z * alpha * f2) / (z * beta)
        else:
            f = gs[k] + h * f1
        f1, f2 = f, f1
        gs[k] = f  # g_k is not read again
    return gs[low:m + 1]


def _forward(a: int, m: int, lam: complex, low: int) -> list[complex]:
    """F_low ... F_m (low <= m), at `_capped(lam)`, by forward substitution from the exact
    F_0 and F_1: F_{k+1} = (F_k - d_k B_{k+1} + i lam beta_k F_{k-1}) / (i lam alpha_k)."""
    f0, drive = _start(lam)
    z, f1 = 1j * lam, 1j * (drive[0] - f0) / lam
    rows = _rows(a, 1 << m.bit_length())
    swept = [f0, f1]
    for k in range(1, m):
        alpha, beta, diff = rows[k]
        f0, f1 = f1, (f1 - diff * drive[k & 1] + z * beta * f0) / (z * alpha)
        swept.append(f1)
    return swept[low:m + 1]


# ---------------------------------------------------------------------------
# public transform evaluation
# ---------------------------------------------------------------------------


def _sweep(a: int, m: int, lam: complex, low: int) -> list[complex]:
    """F_low ... F_m (low <= m) by the cheapest stable algorithm at (m, lam) (module docstring)."""
    alam = abs(lam)
    if (low == m and alam >= max(1, m, m * m / _CLOSED_FORM_REACH)
            and (closed := _closed_form(a, m, lam))[1] <= _CANCEL_LIMIT):
        values = [closed[0]]
    else:
        forward = alam > m and m * m * abs(lam.imag) <= _FORWARD_GROWTH * alam * alam
        values = (_forward if forward else _recurrence)(a, m, lam, low)
    return _uncapped(lam, values)


def _checked(quantity: str, m, name: str, arg, evaluate, nonzero: bool = False) -> complex:
    """evaluate(m, arg) for an entry point called with degree m and a finite
    (and, if asked, nonzero) complex argument `name`.  A result that is not
    finite raises an `OverflowError` naming `quantity`, m and arg; so does an
    `OverflowError` raised on the way, by an inner entry point or by math or
    cmath, as `_uncapped`'s ldexp does for a product beyond the double range)."""
    m, arg = as_degree(m), complex(arg)
    if not cmath.isfinite(arg):
        raise ValueError(f"{name} must be finite")
    if nonzero and arg == 0:
        raise ValueError(f"{quantity} requires {name} != 0")
    try:
        value = evaluate(m, arg)
    except OverflowError:
        value = math.inf
    if cmath.isfinite(value):
        return value
    raise OverflowError(f"{quantity} beyond the double range at m={m}, {name}={arg}")


def transform_hat(family: Family | str, m: int, lam: complex) -> TransformResult:
    """Finite Fourier transform of the degree-m polynomial, by `_sweep` for every lam, and its regime."""
    fam = as_family(family)
    lam = complex(lam)
    value = _checked("transform value", m, "lam", lam, lambda m, lam: _sweep(_TWO_ALPHA[fam], m, lam, m)[0])
    path = EvalPath.CLOSED_FORM if abs(lam) >= max(1, m) else EvalPath.SMALL_LAMBDA_SERIES
    return TransformResult(value, path if lam else EvalPath.ZERO_LAMBDA)


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
    """K(m, z) = int_0^pi e^{z cos w} sin(m w) dw.

    K(0, z) = 0; for m >= 1, K is the transform of U_{m-1} at lam = iz (see
    the module docstring), and K(m, 0) = (1 - (-1)^m)/m.
    """
    return _checked("kernel value", m, "z", z, lambda m, z: m * _sweep(2, m - 1, 1j * z, m - 1)[0] if m else 0j)


def _via_kernel(m: int, lam: complex) -> complex:
    sign = -1.0 if m % 2 else 1.0
    kernel = exp_cos_sine_integral(m, -1j * lam)
    # e^{+-i lam} and m * kernel may overflow before the division: divide first
    w, plus, minus = 1.0 / (1j * lam), cmath.exp(0.5j * lam), cmath.exp(-0.5j * lam)
    return plus * (plus * w) * sign - minus * (minus * w) + kernel * w * m


def chebyshev_hat_via_kernel(m: int, lam: complex) -> complex:
    """Chebyshev transform through the kernel route (integration by parts).

    Uses the U_{m-1} ratios, not the Chebyshev ones; used to cross-check
    `chebyshev_hat` on the closed-form regime.
    """
    return _checked("kernel route", m, "lam", lam, _via_kernel, nonzero=True)
