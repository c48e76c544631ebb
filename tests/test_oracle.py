import math

import numpy as np
import pytest

from fourpoly import oracle
from fourpoly.checks import run_check
from fourpoly.coeffs import Family
from fourpoly.oracle import gauss_legendre_rule, quad_transform


# the polynomial values the quadrature weights and the node iteration use
def chebyshev(m, x):
    return oracle._recurrence_pair(m, x, chebyshev=True)[0]


def legendre(m, x):
    return oracle._recurrence_pair(m, x, chebyshev=False)[0]


def test_chebyshev_values():
    assert chebyshev(0, 0.3) == 1.0
    assert abs(chebyshev(2, 0.5) - (-0.5)) <= 1e-15
    assert abs(chebyshev(7, math.cos(math.pi / 7)) - (-1.0)) <= 1e-12


def test_chebyshev_matches_trigonometric_definition():
    rng = np.random.default_rng(20240817)
    for m in range(31):
        x = rng.uniform(-1.0, 1.0, size=1000)
        direct = chebyshev(m, x)
        trig = np.cos(m * np.arccos(x))
        assert np.max(np.abs(direct - trig)) <= 1e-12


def test_legendre_values():
    assert legendre(3, 1.0) == 1.0
    assert legendre(3, -1.0) == -1.0
    for m in range(12):
        assert abs(legendre(m, 1.0) - 1.0) <= 1e-13
        assert abs(legendre(m, -1.0) - (-1.0) ** m) <= 1e-13
    assert abs(legendre(2, 0.0) - (-0.5)) <= 1e-15


def test_domain_errors():
    with pytest.raises(ValueError):
        gauss_legendre_rule(0)


@pytest.mark.parametrize("family", list(Family))
def test_quad_transform_rejects_negative_degree(family):
    with pytest.raises(ValueError, match="degree must be non-negative"):
        quad_transform(family, -1, 1.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf, complex(0.0, -math.inf), complex(math.nan, 1.0)])
def test_quad_transform_rejects_non_finite_lambda(lam):
    with pytest.raises(ValueError, match="lam must be finite"):
        quad_transform("legendre", 2, lam)


@pytest.mark.parametrize("order", [1, 2, 8, 40, 81, 160])
def test_rule_invariants(order):
    rule = gauss_legendre_rule(order)
    assert abs(float(np.sum(rule.weights)) - 2.0) <= 1e-14
    assert np.all(rule.weights > 0)
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(np.abs(rule.nodes) < 1.0)
    # exactness on monomials up to degree 2*order-1
    for power in range(0, min(2 * order, 30)):
        exact = 2.0 / (power + 1) if power % 2 == 0 else 0.0
        got = float(np.sum(rule.weights * rule.nodes**power))
        assert abs(got - exact) <= 1e-13
    top = 2 * order - 1
    exact = 2.0 / (top + 1) if top % 2 == 0 else 0.0
    assert abs(float(np.sum(rule.weights * rule.nodes**top)) - exact) <= 1e-12


def test_rule_against_numpy_reference():
    for order in (12, 64, 200):
        rule = gauss_legendre_rule(order)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(order)
        assert np.max(np.abs(rule.nodes - ref_nodes)) <= 5e-15
        assert np.max(np.abs(rule.weights - ref_weights)) <= 2e-14


def test_quad_transform_at_zero():
    assert abs(quad_transform("legendre", 0, 0.0) - 2.0) <= 1e-14
    assert abs(quad_transform("legendre", 4, 0.0)) <= 1e-14
    assert abs(quad_transform("chebyshev", 2, 0.0) - (-2.0 / 3.0)) <= 1e-14


def test_quad_transform_converges_and_is_stable():
    for lam in (3.0, 40.0, 2 + 1j, -5j):
        first = quad_transform("legendre", 6, lam)
        second = quad_transform("legendre", 6, lam)
        assert first == second
    # classical value: transform of P_0 is 2 sin(lam)/lam
    lam = 7.25
    assert abs(quad_transform("legendre", 0, lam) - 2 * math.sin(lam) / lam) <= 1e-13


def test_quad_transform_order_cap():
    oracle.gauss_legendre_rule.cache_clear()
    with pytest.raises(RuntimeError):
        quad_transform("legendre", 0, 9000.0)
    assert oracle.gauss_legendre_rule.cache_info().currsize == 0  # failed before building a rule


def test_oracle_agreement_builds_one_rule_per_power_of_two():
    oracle.gauss_legendre_rule.cache_clear()
    oracle._weighted_poly.cache_clear()
    assert run_check("oracle_agreement", 32).worst <= 1e-13
    assert oracle.gauss_legendre_rule.cache_info().misses <= 4


def test_cached_weighted_samples_are_read_only():
    nodes, weighted = oracle._weighted_poly(Family.CHEBYSHEV, 5, 64)
    for array in (nodes, weighted):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_quad_transform_doubles_until_two_orders_agree(monkeypatch):
    # only the start order's value is off, so order 2n differs from it and
    # order 4n agrees with 2n: the rule doubles twice and returns the 4n value
    integrate = oracle._integrate
    orders = []

    def perturbed(family, m, lam, order):
        orders.append(order)
        value, mass = integrate(family, m, lam, order)
        return (value + 1e-6 if len(orders) == 1 else value), mass

    monkeypatch.setattr(oracle, "_integrate", perturbed)
    lam = 7.25
    value = quad_transform("legendre", 0, lam)
    assert orders == [64, 128, 256]
    assert value == integrate(Family.LEGENDRE, 0, lam, 256)[0]
    assert abs(value - 2 * math.sin(lam) / lam) <= 1e-13
