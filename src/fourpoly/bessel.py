"""Half-order Bessel functions J_{m+1/2} via the Legendre transform.

The Legendre transform and J_{m+1/2} differ only by the factor
i^{-m} sqrt(2 pi / lam), so J_{m+1/2}(lam) = i^m sqrt(lam / (2 pi)) times the
transform, evaluated by `legendre_hat` in whichever regime lam falls.  All
square roots are principal, which makes the transform <-> Bessel conversion
an exact inverse pair everywhere including the negative real axis.
"""
from __future__ import annotations

import cmath
import math

# Unused here, but bench/tracing.py re-binds `bessel.coefficient_table` along
# with `transforms.transform_hat` and `helmholtz.legendre_hat` to count calls.
from .coeffs import coefficient_table  # noqa: F401
from .transforms import legendre_hat

__all__ = ["bessel_half", "legendre_hat_via_bessel"]

_I_POW = (1.0, 1j, -1.0, -1j)  # i**k for k mod 4, exact

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def bessel_half(m: int, lam: complex) -> complex:
    """J_{m+1/2}(lam) for complex lam; J_{m+1/2}(0) = 0."""
    if m < 0:
        raise ValueError("order index must be non-negative")
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise ValueError("lam must be finite")
    if lam == 0:
        return 0j
    return _I_POW[m % 4] * cmath.sqrt(lam) / _SQRT_2PI * legendre_hat(m, lam).value


def legendre_hat_via_bessel(m: int, lam: complex) -> complex:
    """Legendre transform recovered from J_{m+1/2}; requires lam != 0.

    Route-equivalence oracle for `legendre_hat`: both sides use the
    principal square root of lam.
    """
    lam = complex(lam)
    if lam == 0:
        raise ValueError("Bessel route requires lam != 0")
    return _I_POW[(-m) % 4] * _SQRT_2PI / cmath.sqrt(lam) * bessel_half(m, lam)
