"""Independent brute-force check: Gauss-Legendre quadrature of the defining
transform integrals.

One three-term loop gives the polynomial values at the nodes and the Newton
step of the node iteration, and `gauss_legendre_rule` caches the rules it builds.
Nothing here touches the coefficient tables or the regime-split evaluators,
so agreement between `quad_transform` and `transforms` validates both sides.
"""
from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

import numpy as np

from .coeffs import Family, as_degree, as_family

__all__ = ["QuadratureRule", "gauss_legendre_rule", "quad_transform"]

_MAX_QUAD_ORDER = 4096


class QuadratureRule(namedtuple("QuadratureRule", "nodes weights")):
    """Gauss-Legendre nodes/weights on (-1, 1); exact through degree 2*order-1."""

    __slots__ = ()


def _recurrence_pair(m: int, x: np.ndarray, chebyshev: bool) -> tuple[np.ndarray, np.ndarray]:
    """(p_m, p_{m+1}) at x by the three-term recurrence."""
    prev = np.ones_like(x)
    cur = np.asarray(x, dtype=float).copy()
    for k in range(1, m + 1):
        if chebyshev:
            prev, cur = cur, 2.0 * x * cur - prev
        else:
            prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
    return prev, cur


@lru_cache(maxsize=256)
def gauss_legendre_rule(order: int) -> QuadratureRule:
    """Nodes and weights of the order-point Gauss-Legendre rule, cached: Newton
    iteration on P_order from the Tricomi asymptotic approximation of the roots."""
    if order < 1:
        raise ValueError("order must be positive")
    n = order
    k = np.arange(1, n + 1)
    theta = math.pi * (4 * k - 1) / (4 * n + 2)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(theta)
    converged = False
    for _ in range(101):  # up to 100 steps, then the weights at the last x
        p_prev, p = _recurrence_pair(n - 1, x, chebyshev=False)
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        if converged:
            break
        dx = p / dp
        x -= dx
        converged = np.max(np.abs(dx)) < 1e-15
    else:
        raise RuntimeError("node iteration failed to converge")
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    idx = np.argsort(x)
    nodes = x[idx]
    weights = w[idx]
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes, weights)


@lru_cache(maxsize=512)
def _weighted_poly(family: Family, m: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of the order-point rule and weights * p_m(nodes), read-only."""
    rule = gauss_legendre_rule(order)
    weighted = rule.weights * _recurrence_pair(m, rule.nodes, chebyshev=family is Family.CHEBYSHEV)[0]
    weighted.setflags(write=False)
    return rule.nodes, weighted


def _integrate(family: Family, m: int, lam: complex, order: int) -> tuple[complex, float]:
    nodes, weighted = _weighted_poly(family, m, order)
    samples = weighted * np.exp(-1j * lam * nodes)
    return complex(np.sum(samples)), float(np.sum(np.abs(samples)))


def quad_transform(family: Family | str, m: int, lam: complex) -> complex:
    """Transform integral by quadrature, with an internal doubling check.

    The starting order grows with |lam| because the exponential oscillates
    ~|lam|/pi times across the interval; it is the power of two at or above
    max(40, m + |lam| + 20), so all calls share the rules 64, 128, ..., 4096.
    Convergence is judged against the integral of |integrand|, the scale
    roundoff actually permits (for imaginary lam the result can sit far below
    the integrand's peak).  Raises if order 4096 is still not converged to
    ~1e-13, before building any rule if the start order is above 2048.
    """
    fam = as_family(family)
    m = as_degree(m)
    lam = complex(lam)
    if not abs(lam) < math.inf:  # also rejects NaN
        raise ValueError("lam must be finite")
    order = 1 << (max(40, m + math.ceil(abs(lam)) + 20) - 1).bit_length()
    if 2 * order <= _MAX_QUAD_ORDER:
        value, _ = _integrate(fam, m, lam, order)
        while order < _MAX_QUAD_ORDER:
            order *= 2
            refined, mass = _integrate(fam, m, lam, order)
            if abs(refined - value) <= 1e-13 * (1.0 + abs(refined) + mass):
                return refined
            value = refined
    raise RuntimeError("quadrature failed to converge by order 4096")
