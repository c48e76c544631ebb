"""Exact integer coefficient tables for the closed-form finite Fourier
transforms of Chebyshev and Legendre polynomials.

For lam != 0 the transform of a degree-m polynomial from either family is

    sum_{n=1}^{m+1} c_n * [e^{i lam} + (-1)^(n+m) e^{-i lam}] / (i lam)^n

with coefficients c_n that are exact integers depending only on the family
and the degree.  This module constructs those integers.  The top Legendre
entry equals the double factorial (2m-1)!!, which leaves 64-bit range near
m = 17, so tables are built in Python's arbitrary-precision integers.  No
transform evaluation reads them: `transforms` steps from c_n to c_{n+1} by a ratio.
"""
from __future__ import annotations

import math
import operator
from collections import namedtuple
from enum import Enum
from functools import lru_cache

__all__ = [
    "Family",
    "CoefficientTable",
    "as_family",
    "as_degree",
    "product_range",
    "chebyshev_coeffs",
    "legendre_coeffs",
    "coefficient_table",
    "coefficients_csv",
    "CSV_HEADER",
]

CSV_HEADER = "family,m,n,coefficient"


class Family(str, Enum):
    """Orthogonal polynomial family on [-1, 1]."""

    CHEBYSHEV = "chebyshev"
    LEGENDRE = "legendre"


_FAMILIES = {member.value: member for member in Family}  # a dict lookup costs a third of Family(name)


def as_family(family: Family | str) -> Family:
    """Normalize a family given as enum member or (case-insensitive) string."""
    if isinstance(family, Family):
        return family
    try:
        return _FAMILIES[str(family).lower()]
    except KeyError:
        raise ValueError(f"unknown polynomial family: {family!r}") from None


def as_degree(m) -> int:
    """A polynomial degree (or Bessel order index) as an int: `TypeError`
    unless m is an integer, `ValueError` if it is negative."""
    m = operator.index(m)
    if m < 0:
        raise ValueError("degree must be non-negative")
    return m


class CoefficientTable(namedtuple("CoefficientTable", "family degree coeffs")):
    """Exact coefficients c_1..c_{m+1} for one polynomial degree.

    ``coeffs[n-1]`` multiplies 1/(i*lam)^n in the closed-form transform.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that `_replace` checks the length too

    def __new__(cls, family: Family, degree: int, coeffs: tuple[int, ...]):
        if len(coeffs) != degree + 1:
            raise ValueError("table must hold exactly m+1 coefficients")
        return super().__new__(cls, family, degree, coeffs)


def product_range(s: int, t: int, r: int) -> int:
    """Product of 2(r-k)+1 over k = s..t; empty product (s > t) is 1."""
    value = 1
    for k in range(s, t + 1):
        value *= 2 * (r - k) + 1
    return value


@lru_cache(maxsize=None)
def chebyshev_coeffs(m: int) -> CoefficientTable:
    """Exact transform coefficients for the Chebyshev polynomial T_m."""
    m = as_degree(m)
    sign = -1 if m % 2 else 1
    entries = [sign]
    for n in range(2, m + 2):
        total = 0
        for k in range(1, m - n + 3):
            # (m-k)(m-k-1)...(m-k-n+3), n-2 factors, all positive as m-k >= n-2
            total += math.comb(n + k - 3, k - 1) * math.perm(m - k, n - 2)
        entries.append((-1) ** (m + n - 1) * 2 ** (n - 2) * m * total)
    return CoefficientTable(Family.CHEBYSHEV, m, tuple(entries))


@lru_cache(maxsize=None)
def legendre_coeffs(m: int) -> CoefficientTable:
    """Exact transform coefficients for the Legendre polynomial P_m.

    Index n runs over 1..m+1; each n is produced by exactly one of the three
    construction rules, split by the parity of m+n.
    """
    m = as_degree(m)
    entries = []
    for n in range(1, m + 2):
        if (m + n) % 2 == 1:
            if n == 1:
                # m even: the first coefficient is 1.
                entries.append(1)
            else:
                h = (m + n - 3) // 2
                entries.append(
                    ((m + n) * math.comb(h, n - 1) + math.comb(h, n - 2))
                    * product_range((m - n + 3) // 2, h, m)
                )
        else:
            h = (m + n) // 2 - 1
            entries.append(
                -math.comb(h, n - 1) * product_range((m - n) // 2 + 1, h, m)
            )
    return CoefficientTable(Family.LEGENDRE, m, tuple(entries))


def coefficient_table(family: Family | str, m: int) -> CoefficientTable:
    """Table for either family; results are cached per (family, degree)."""
    fam = as_family(family)
    if fam is Family.CHEBYSHEV:
        return chebyshev_coeffs(m)
    return legendre_coeffs(m)


def coefficients_csv(table: CoefficientTable) -> str:
    """CSV dump (header + one row per coefficient, exact decimal integers)."""
    lines = [CSV_HEADER]
    for n, c in enumerate(table.coeffs, start=1):
        lines.append(f"{table.family.value},{table.degree},{n},{c}")
    return "\n".join(lines) + "\n"
