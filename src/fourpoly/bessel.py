"""Half-order Bessel functions J_{m+1/2} via the Legendre transform.

The Legendre transform and J_{m+1/2} differ only by the factor
i^{-m} sqrt(2 pi / lam), so J_{m+1/2}(lam) = i^m sqrt(lam / (2 pi)) times the
transform, swept by `transforms._sweep` inside this function's one check.
The square root is principal, also on the negative real axis.  The check
`bessel_route` compares this with the spherical Bessel route of DLMF 10.47.3
and 10.54.2, which reads the transform at -lam.
"""
from __future__ import annotations

import cmath
import math

# `coefficient_table` is unused here, but bench/tracing.py re-binds it along
# with `transforms.transform_hat` and `helmholtz.legendre_hat` to count calls.
from .coeffs import coefficient_table  # noqa: F401
from .transforms import _checked, _sweep

__all__ = ["bessel_half"]

_I_POW = (1.0, 1j, -1.0, -1j)  # i**k for k mod 4, exact

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def bessel_half(m: int, lam: complex) -> complex:
    """J_{m+1/2}(lam) for complex lam; J_{m+1/2}(0) = 0.  A value that is
    not finite raises `OverflowError`."""
    return _checked("J_(m+1/2)", m, "lam", lam,  # a = 1: Legendre
                    lambda m, lam: _I_POW[m % 4] * cmath.sqrt(lam) / _SQRT_2PI * _sweep(1, m, lam, m)[0])
