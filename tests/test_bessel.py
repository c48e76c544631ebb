import cmath
import math

import pytest

from fourpoly import bessel, transforms
from fourpoly.bessel import bessel_half
from fourpoly.checks import run_check
from fourpoly.transforms import legendre_hat


def test_frozen_sample_values():
    assert abs(bessel_half(0, math.pi / 2) - 2.0 / math.pi) <= 1e-14
    expected = math.sqrt(2.0 / math.pi) * (math.sin(1.0) - math.cos(1.0))
    assert abs(bessel_half(1, 1.0) - expected) <= 1e-14


def test_route_on_negative_real_axis_uses_principal_branch():
    # J_nu(-x + 0i) = e^{i nu pi} J_nu(x) for x > 0 (DLMF 10.11.1), nu = m + 1/2
    for m in (0, 1, 2, 7):
        for x in (2.0, m + 3.0):
            positive = bessel_half(m, x)
            assert abs(bessel_half(m, -x) - 1j * (-1) ** m * positive) <= 1e-13 * abs(positive)


def test_bessel_route_fails_with_the_inverse_phase(monkeypatch):
    # i^{-m} in place of i^m flips the sign of every odd order
    monkeypatch.setattr(bessel, "_I_POW", (1, -1j, -1, 1j))
    assert run_check("bessel_route", 4).worst > 1e-10


@pytest.mark.parametrize("m", range(1, 20))
def test_three_term_recurrence(m):
    # J_{m+3/2} = ((2m+1)/lam) J_{m+1/2} - J_{m-1/2}
    for lam in (m + 2.0, m + 6.0, 2.0 * m + 40.0):
        up = bessel_half(m + 1, lam)
        mid = bessel_half(m, lam)
        down = bessel_half(m - 1, lam)
        residual = up - (2 * m + 1) / lam * mid + down
        scale = max(abs(up), abs((2 * m + 1) / lam * mid), abs(down))
        assert abs(residual) <= 1e-9 * scale, (m, lam)


@pytest.mark.parametrize("m", range(21))
def test_real_for_positive_real_argument(m):
    for lam in (0.25, 1.0, m + 2.0):
        value = bessel_half(m, lam)
        if value == 0:
            continue
        assert abs(value.imag) <= 1e-12 * abs(value)


def test_domain_errors():
    with pytest.raises(ValueError):
        bessel_half(-1, 1.0)
    with pytest.raises(ValueError):
        bessel_half(2, complex(math.inf, 0.0))
    with pytest.raises(ValueError):
        bessel_half(2, complex(0.0, math.nan))
    with pytest.raises(TypeError):  # orders are integers, not integral floats
        bessel_half(2.5, 0.0)
    with pytest.raises(TypeError):
        bessel_half(2.0, 1.0)


def test_values_beyond_double_range_raise_overflow_error():
    # the transform is finite at each point; the factor sqrt(lam) or its
    # product with it is not
    with pytest.raises(OverflowError):
        bessel_half(0, 715j)  # J_{1/2}(715i) ~ 3.5e308 (1 + i)
    with pytest.raises(OverflowError):
        bessel_half(174, 96 - 736j)
    assert cmath.isfinite(legendre_hat(0, 715j).value)  # 4.6e307
    reference = 4.7404099397002216e307 * (1 + 1j)  # 30-digit mpmath besselj(0.5, 713j)
    assert abs(bessel_half(0, 713j) - reference) <= 1e-13 * abs(reference)


def test_values_come_from_one_sweep_under_one_check(monkeypatch):
    # `bessel_half` sweeps the Legendre transform itself: at 0, on both axes,
    # off them and beyond |Im lam| = 700 it never calls the public transform
    points = [(0, 0j), (4, 0j), (3, 2.5), (20, 30.0), (7, -12.0), (10, 4j), (5, -60j),
              (3, 2.5 + 1j), (30, -40 + 25j), (2, 705j)]
    expected = [bessel_half(m, lam) for m, lam in points]

    def public(family, m, lam):
        raise AssertionError(f"transform_hat called at m={m}, lam={lam}")

    monkeypatch.setattr(transforms, "transform_hat", public)
    assert [bessel_half(m, lam) for m, lam in points] == expected
