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
three work at `_capped(lam)`, |Im lam| capped at 700, and `_sweep` puts
e^{|Im lam| - 700} back on (`_finished`); only values beyond doubles raise.

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
truncation point chosen by the algorithm's own error estimate.  At a = 1
(d_k = 0) the recurrence is homogeneous: where F_k decays from k = m on, as
at |lam| <= m or g = m^2 |Im lam|/|lam|^2 > 2, the neglected F_{k+1} is about
the estimate times F_m, so the error of F_m is its square.  An anchor
where the minimal solution is small loses F_m (Legendre at lam = n pi, where
F_0 = 0).  That solution goes like sin(lam - (a-1) pi/4) at F_0 (at a = 0,
row 1 of the recurrence) and like cos(lam - (a-1) pi/4) at F_1, so where the
second is larger and |lam| > 1 the anchor is F_1.

Both sweeps run in floats on the axes, as CPython's float operations cost
about a third of complex ones; the closed form is complex for every lam.  At
lam = iy (or 0), i lam = -y, F_0 = 2 sinh(y)/y and the drive (2 cosh y,
2 sinh y) are real, and so is every F_k.  At real lam = x, R_k = i^k F_k is
real: R_k - x (alpha_k R_{k+1} + beta_k R_{k-1}) = d_k D_k, D_k = 2 cos x,
2 sin x, -2 cos x, -2 sin x by k mod 4.  Each map back (`_finished`) is a
product with +-1 or +-i, and complex arithmetic rounds the part beside an
exact zero as float arithmetic does: the values equal the complex sweep's
but for zero signs.

The kernel K(m, z) = int_0^pi e^{z cos w} sin(mw) dw of the paper's
integration-by-parts route to the Chebyshev transform is, with x = cos w,
the transform of U_{m-1}, the Chebyshev polynomial of the second kind, at
lam = iz: m times F_{m-1} at a = 2.  It runs through the same three
algorithms and dispatch; its ratios come from the derivatives of U_k at
x = 1, so the route (check `kernel_route`) tests the T_m ratios independently.
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
    "chebyshev_hat",
    "legendre_hat",
    "transform_hat",
    "exp_cos_sine_integral",
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
# Near zeros of a Chebyshev F_m on the imaginary axis it does worse: 1.2e-12
# (Olver's 3.0e-13) at T_32, lam = 602.34j, g = 1.70, and 1.2e-11 (1.9e-12)
# at T_19, lam = 211.54j, g = 1.71.
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
    """F_m = e^{i lam} P + e^{-i lam} Q, P = sum c_n w^n, Q = sum (-1)^(n+m) c_n w^n, w = 1/(i lam),
    and the cancellation ratio of its part-sums, with e^{+-i lam} at `_capped(lam)`."""
    near = _capped(lam)
    w = 1.0 / (1j * lam)
    if not w:  # 1/(i lam) rounded to 0: both parts of lam are near 1e308, and F_m ~ e^{|Im lam|} too
        raise OverflowError("closed form beyond the double range")
    term, magnitude, sign = 1.0, 0.0, (1 if m % 2 else -1)  # c_0 w^0; (-1)^(n+m) at n = 1
    plus = minus = 0j
    for num, den in closed_form_ratios(a, m):
        term *= num / den * w
        plus += term
        minus += sign * term
        magnitude += abs(term.real) + abs(term.imag)
        sign = -sign
    e_plus, e_minus = cmath.exp(1j * near), cmath.exp(-1j * near)
    plus, minus = e_plus * plus, e_minus * minus
    kept = abs(plus) + abs(minus)
    return plus + minus, (abs(e_plus) + abs(e_minus)) * magnitude / kept if kept else math.inf


def _capped(lam: complex) -> complex:
    """lam with |Im lam| capped at 700, where all three algorithms work."""
    return complex(lam.real, math.copysign(700.0, lam.imag)) if abs(lam.imag) > 700.0 else lam


def _finished(lam: complex, values: list, low: int, units) -> list[complex]:
    """F_low ... from values taken at `_capped(lam)`: R_low ... times the units
    F_k / R_k of `_start` (None: all 1), then times e^{|Im lam| - 700} as
    e^r 2^k with r < ln 2: the factor, which overflows from |Im lam| = 1409.78
    on, is never formed, so only a product beyond the double range raises (ldexp)."""
    if units is not None:
        values = [units[k & 3] * v for k, v in enumerate(values, low)]
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


def _start(lam: complex) -> tuple:
    """R_0 = F_0 (2 at lam = 0), p and q of R_k - p alpha_k R_{k+1} + q beta_k R_{k-1} = d_k D_k,
    D_k and F_k / R_k by k & 3 (None: all 1), all at `_capped(lam)`.
    Off the axes R_k = F_k, p = q = i lam, D_k = B_{k+1}; on them, floats."""
    near = _capped(lam)
    sine, cosine, z = cmath.sin(near), cmath.cos(near), 1j * lam
    if not lam.real:  # lam = iy, or 0: z = -y and F_k are real
        y, drive = lam.imag, (2.0 * cosine.real, 2.0 * sine.imag)
        return drive[1] / y if y else 2.0, z.real, z.real, drive * 2, (1 + 0j,) * 4
    if not lam.imag:  # lam = x: R_k = i^k F_k is real
        x, drive = lam.real, (2.0 * cosine.real, 2.0 * sine.real)
        return drive[1] / x, x, -x, drive + (-drive[0], -drive[1]), (1 + 0j, -1j, -1 + 0j, 1j)
    return 2.0 * sine / lam, z, z, (2.0 * cosine, -2j * sine) * 2, None


def _recurrence(a: int, m: int, lam: complex, low: int, f, p, q, drive) -> list:
    """R_low ... R_m (low <= m) by Olver's algorithm, from R_0 = f, p, q and the drive of `_start`.

    Forward elimination writes each row as F_k = g_k + h_k F_{k+1}.  From
    k = m on it stops once |h_m ... h_k|, the factor by which the neglected
    F_{k+1} still reaches F_m, is below 1e-17 * min(1, |lam|); the min covers
    the Chebyshev F_{k+1}, up to F_m/|lam| for small lam.  Legendre stops below
    1e-17 ** 0.5, as its error is the estimate squared where F_k decays from
    k = m on (module docstring): wherever `_sweep` calls this, not on the real
    axis beyond the degree.  No k >= |lam| wait is needed: near the real axis
    |h_k| stays near 1 until k passes |lam|.  Back substitution from F_{k+1} = 0
    then yields F_m and every lower degree.
    At lam = 0, F_0 = 2 and every h_k is 0, so F_k = d_k B_{k+1} exactly
    (rounded once), and the elimination stops at row max(1, m).
    """
    alam = abs(lam)
    tol = 1e-17 ** 0.5 if a == 1 else 1e-17 * min(1.0, alam)
    rows = _rows(a, 1 << (m + 64).bit_length())  # up to |lam| = 40 the stop comes by row m + 64
    folded = complex(abs(lam.real), abs(lam.imag))  # the same anchor at lam, -lam and conj(lam)
    g, h, start = f, 0.0, 1  # the anchor (module docstring): F_0, or row 1 is F_1 = g_1 with h_1 = 0
    if alam > 1.0 and abs(cmath.tan(folded - (a - 1) * math.pi / 4)) < 1.0:
        g, start = (f - drive[0]) / p, 2
    gs = [f, g][:start] + [0j] * (low - start)  # by degree: rows 0 (and 1), then padding up to low
    hs = [h] * len(gs)
    reach = 1.0
    for k in range(start, 2 * math.ceil(max(m, alam)) + 64):
        try:
            alpha, beta, diff = rows[k]
        except IndexError:  # double the table: no length test per row
            rows = _rows(a, 2 * len(rows))
            alpha, beta, diff = rows[k]
        q_beta = q * beta
        pivot = 1.0 + q_beta * h
        # an exact zero pivot is a zero of the truncated determinant; a
        # round-off-sized one gives the limit the next row needs
        pivot = pivot if pivot else 1e-16
        h = p * alpha / pivot
        g = (diff * drive[k & 3] - q_beta * g) / pivot
        if k >= low:
            gs.append(g)
            hs.append(h)
            if k >= m and (reach := reach * abs(h)) <= tol:
                break
    else:
        raise RuntimeError("degree recurrence failed to converge")
    top = len(gs) - 1
    f1 = f2 = 0.0  # R_{k+1}, R_{k+2}
    for k in range(top, low - 1, -1):
        h = hs[k]
        if abs(h) > 1.0 and k < top:
            # a small pivot made g and h large, and g + h F_{k+1} would
            # cancel; take F_k from row k + 1 instead
            alpha, beta, diff = rows[k + 1]
            f = (diff * drive[(k + 1) & 3] - f1 + p * alpha * f2) / (q * beta)
        else:
            f = gs[k] + h * f1
        f1, f2 = f, f1
        gs[k] = f  # g_k is not read again
    return gs[low:m + 1]


def _forward(a: int, m: int, lam: complex, low: int, f0, p, q, drive) -> list:
    """R_low ... R_m (low <= m) by forward substitution from the exact R_0 = f0 and R_1,
    as `_recurrence`: R_{k+1} = (R_k - d_k D_k + q beta_k R_{k-1}) / (p alpha_k)."""
    f1 = (f0 - drive[0]) / p
    rows = _rows(a, 1 << m.bit_length())
    swept = [f0, f1]
    for k in range(1, m):
        alpha, beta, diff = rows[k]
        f0, f1 = f1, (f1 - diff * drive[k & 3] + q * beta * f0) / (p * alpha)
        swept.append(f1)
    return swept[low:m + 1]


# ---------------------------------------------------------------------------
# public transform evaluation
# ---------------------------------------------------------------------------


def _sweep(a: int, m: int, lam: complex, low: int) -> list[complex]:
    """F_low ... F_m (low <= m) by the cheapest stable algorithm at (m, lam) (module docstring);
    it starts each degree sweep (`_start`) and finishes every value (`_finished`)."""
    alam = abs(lam)
    if (low == m and alam >= max(1, m, m * m / _CLOSED_FORM_REACH)
            and (closed := _closed_form(a, m, lam))[1] <= _CANCEL_LIMIT):
        return _finished(lam, [closed[0]], m, None)
    *start, units = _start(lam)
    forward = alam > m and m * m * abs(lam.imag) <= _FORWARD_GROWTH * alam * alam
    return _finished(lam, (_forward if forward else _recurrence)(a, m, lam, low, *start), low, units)


def _checked(quantity: str, m, name: str, arg, evaluate) -> complex:
    """evaluate(m, arg) for an entry point called with degree m and a finite
    complex argument `name`.  A result that is not finite raises an
    `OverflowError` naming `quantity`, m and arg; so does an `OverflowError`
    raised on the way by math, cmath or ldexp, as `_finished`'s ldexp raises
    for a product beyond the double range."""
    m, arg = as_degree(m), complex(arg)
    if not cmath.isfinite(arg):
        raise ValueError(f"{name} must be finite")
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
# auxiliary kernel
# ---------------------------------------------------------------------------


def exp_cos_sine_integral(m: int, z: complex) -> complex:
    """K(m, z) = int_0^pi e^{z cos w} sin(m w) dw.

    K(0, z) = 0; for m >= 1, K is the transform of U_{m-1} at lam = iz (see
    the module docstring), and K(m, 0) = (1 - (-1)^m)/m.
    """
    return _checked("kernel value", m, "z", z, lambda m, z: m * _sweep(2, m - 1, 1j * z, m - 1)[0] if m else 0j)

