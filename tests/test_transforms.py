import cmath
import math
from fractions import Fraction

import pytest

from fourpoly.checks import run_check
from fourpoly.coeffs import Family, chebyshev_coeffs
from fourpoly.oracle import quad_transform
from fourpoly.transforms import (
    EvalPath,
    chebyshev_hat,
    chebyshev_hat_via_kernel,
    exp_cos_sine_integral,
    legendre_hat,
    regime_threshold,
    transform_hat,
    zero_lambda_value,
    _closed_form,
    _u_table,
)
from fourpoly.coeffs import coefficient_table

FAMILIES = list(Family)

# directions x magnitudes spanning real, imaginary and generic complex values
DIRECTIONS = [1.0, -1.0, 1j, (1 + 1j) / abs(1 + 1j), (3 - 2j) / abs(3 - 2j)]
MAGNITUDES = [1e-6, 1e-3, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0]


def full_grid():
    return [complex(m * d) for m in MAGNITUDES for d in DIRECTIONS]


def closed_grid(m):
    return [p * r for r in (m + 2.0, m + 6.0, 2.0 * m + 40.0) for p in DIRECTIONS[:4]]


# ---------------------------------------------------------------------------
# lam = 0
# ---------------------------------------------------------------------------


def test_zero_lambda_rationals():
    assert zero_lambda_value("chebyshev", 0) == Fraction(2)
    assert zero_lambda_value("chebyshev", 1) == Fraction(0)
    assert zero_lambda_value("chebyshev", 2) == Fraction(-2, 3)
    assert zero_lambda_value("legendre", 0) == Fraction(2)
    for m in range(1, 31):
        assert zero_lambda_value("legendre", m) == 0


@pytest.mark.parametrize("family", FAMILIES)
def test_zero_lambda_values_match_exactly(family):
    for m in range(31):
        result = transform_hat(family, m, 0.0)
        assert result.path is EvalPath.ZERO_LAMBDA
        assert result.value == complex(float(zero_lambda_value(family, m)))


def test_path_selection_obeys_threshold():
    assert regime_threshold(0) == 1.0
    assert regime_threshold(7) == 7.0
    assert legendre_hat(5, 5.0).path is EvalPath.CLOSED_FORM
    assert legendre_hat(5, 4.999).path is EvalPath.SMALL_LAMBDA_SERIES
    assert chebyshev_hat(0, 0.5).path is EvalPath.SMALL_LAMBDA_SERIES
    assert chebyshev_hat(0, 1.0).path is EvalPath.CLOSED_FORM


# ---------------------------------------------------------------------------
# oracle agreement
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("m", range(21))
def test_quadrature_agreement_on_full_grid(family, m):
    for lam in full_grid():
        reference = quad_transform(family, m, lam)
        value = transform_hat(family, m, lam).value
        assert abs(value - reference) <= 1e-9 * (1 + abs(reference)), (family, m, lam)
        assert cmath.isfinite(value)


def test_specific_values():
    # m=0 closed form collapses to 2 sin(lam)/lam
    assert abs(chebyshev_hat(0, math.pi).value) < 1e-15
    got = chebyshev_hat(3, 2 + 1j).value
    ref = quad_transform("chebyshev", 3, 2 + 1j)
    assert abs(got - ref) <= 1e-10 * abs(ref)
    # antiderivative of x e^{-i lam x}: 2i (cos(lam)/lam - sin(lam)/lam^2)
    got = legendre_hat(1, 1.0).value
    ref = 2j * (math.cos(1.0) - math.sin(1.0))
    assert abs(got - ref) <= 1e-14


# ---------------------------------------------------------------------------
# small-lam regime
# ---------------------------------------------------------------------------


def test_series_examples_against_oracle():
    val = transform_hat("legendre", 2, 1e-3).value
    lead = -((1e-3) ** 2) * (4.0 / 15.0) / 2.0
    # leading term approximates to O(lam^2) relative; the oracle pins the value
    assert abs(val - lead) <= 1e-5 * abs(lead)
    assert abs(val - quad_transform("legendre", 2, 1e-3)) <= 1e-12
    assert abs(transform_hat("chebyshev", 1, 1e-4).value - quad_transform("chebyshev", 1, 1e-4)) <= 1e-12
    near = transform_hat("legendre", 0, 1e-8).value
    assert abs(near - 2.0) <= 1e-15


@pytest.mark.parametrize("family", FAMILIES)
def test_series_limit_matches_zero_value(family):
    for m in range(21):
        tiny = 1e-13 * (1 + 1j) / abs(1 + 1j)
        series_value = transform_hat(family, m, tiny).value
        assert abs(series_value - float(zero_lambda_value(family, m))) <= 1e-12


# ---------------------------------------------------------------------------
# band regression: 16 <= |lam| < m on the real axis, and just above m near
# the imaginary axis, against the closed form summed exactly
# ---------------------------------------------------------------------------


def exact_closed_form(family, m, lam):
    """Closed form over the exact integer table, summed in 60-digit mpmath.

    Quadrature is no reference here: near the imaginary axis its own error
    reaches ~3e-9.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        z = mpmath.mpc(lam.real, lam.imag)
        e_plus, e_minus, w = mpmath.exp(1j * z), mpmath.exp(-1j * z), 1 / (1j * z)
        total = mpmath.mpc(0)
        for n, c in enumerate(coefficient_table(family, m).coeffs, start=1):
            total += c * (e_plus + (-1) ** (n + m) * e_minus) * w**n
        return complex(total)


def band_points(m):
    return [complex(lam) for lam in (
        m - 0.5, -(m - 0.5), m / 2,
        (m - 0.5) * cmath.exp(1j * math.pi / 4),
        (m + 2) * cmath.exp(1j * (math.pi / 2 - 0.2)),
        1j * (m + 2),
    )]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("m", [24, 32, 40, 48, 64])
def test_band_matches_exact_closed_form(family, m):
    for lam in band_points(m):
        reference = exact_closed_form(family, m, lam)
        value = transform_hat(family, m, lam).value
        assert abs(value - reference) <= 1e-12 * (1 + abs(reference)), (family, m, lam)


@pytest.mark.parametrize("lam", [39.5, 30 + 5j])
def test_chebyshev_band_anchors(lam):
    # the two Chebyshev anchors of the benchmark, in and near the band
    reference = exact_closed_form(Family.CHEBYSHEV, 40, complex(lam))
    value = chebyshev_hat(40, lam).value
    assert abs(value - reference) <= 1e-12 * (1 + abs(reference))


def test_recurrence_survives_small_and_zero_pivots():
    # lam = sqrt(15) makes a pivot of the Legendre elimination exactly zero;
    # the two Chebyshev points make one ~1e-7 at k >= m, where plain back
    # substitution would lose 1e-10
    cases = [(Family.LEGENDRE, m, math.sqrt(15)) for m in (4, 5, 8)]
    cases += [(Family.CHEBYSHEV, 24, 30.4326), (Family.CHEBYSHEV, 24, 34.1082)]
    for family, m, lam in cases:
        reference = exact_closed_form(family, m, complex(lam))
        value = transform_hat(family, m, lam).value
        assert abs(value - reference) <= 1e-12 * (1 + abs(reference)), (family, m, lam)


def test_tiny_lambda_keeps_relative_accuracy():
    # odd Chebyshev transforms are O(lam) while their even neighbours are O(1)
    for lam, rtol in ((1e-20, 1e-14), (1e-20j, 1e-14), (1e-310, 1e-12)):  # 1e-310 is subnormal
        expected = -2j * lam / 3  # T_1 = P_1 = x
        for family in FAMILIES:
            assert abs(transform_hat(family, 1, lam).value - expected) <= rtol * abs(expected)
    assert abs(chebyshev_hat(3, 1e-20).value - 0.4e-20j) <= 1e-14 * 0.4e-20


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("m", range(21))
def test_parity(family, m):
    for lam in full_grid():
        plus = transform_hat(family, m, lam).value
        minus = transform_hat(family, m, -lam).value
        expected = (-1) ** m * plus
        denom = max(abs(plus), abs(minus))
        if denom == 0:
            continue
        assert abs(minus - expected) <= 1e-13 * denom, (family, m, lam)


@pytest.mark.parametrize("m", range(21))
def test_conjugation_for_real_lambda(m):
    for lam in (1e-3, 0.5, 1.0, 2.0, m + 1.0, m + 5.0):
        plus = legendre_hat(m, lam).value
        minus = legendre_hat(m, -lam).value
        denom = max(abs(plus), abs(minus))
        if denom == 0:
            continue
        assert abs(plus.conjugate() - minus) <= 1e-13 * denom


@pytest.mark.parametrize("m", range(21))
def test_rotated_transform_is_real_for_positive_real_lambda(m):
    rot = (1.0, 1j, -1.0, -1j)
    for lam in (1e-3, 0.5, 1.0, 2.0, m + 1.0, m + 5.0):
        value = legendre_hat(m, lam).value * rot[m % 4]
        if value == 0:
            continue
        assert abs(value.imag) <= 1e-12 * abs(value)


@pytest.mark.parametrize("m", range(1, 21))
def test_legendre_three_term_recurrence(m):
    for lam in closed_grid(m + 1):
        up = legendre_hat(m + 1, lam).value
        mid = legendre_hat(m, lam).value
        down = legendre_hat(m - 1, lam).value
        residual = up + (1j / lam) * (2 * m + 1) * mid - down
        scale = max(abs(up), abs((2 * m + 1) * mid / abs(lam)), abs(down))
        assert abs(residual) <= 1e-9 * scale, (m, lam)


# ---------------------------------------------------------------------------
# kernel K(m, z), the transform of U_{m-1} at lam = iz, and the kernel route
# ---------------------------------------------------------------------------


def test_kernel_base_cases():
    assert exp_cos_sine_integral(0, 1.0) == 0
    k1 = exp_cos_sine_integral(1, 1.0)
    assert abs(k1 - (math.e - 1.0 / math.e)) <= 1e-15
    k2 = exp_cos_sine_integral(2, 1.0)
    expected = 2 * (math.e + 1 / math.e) - 2 * (math.e - 1 / math.e)
    assert abs(k2 - expected) <= 1e-14
    assert abs(k2 - 1.4715177646857693) <= 1e-14
    with pytest.raises(ValueError):
        exp_cos_sine_integral(3, 0.0)
    with pytest.raises(ValueError):
        exp_cos_sine_integral(-1, 1.0)


def quad_kernel(m, z):
    """K(m, z) by 20-digit mpmath quadrature of its defining integral."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(20):
        zz = mpmath.mpc(z.real, z.imag)
        return complex(mpmath.quad(lambda w: mpmath.exp(zz * mpmath.cos(w)) * mpmath.sin(m * w), [0, mpmath.pi]))


@pytest.mark.parametrize("m", [13, 20, 32, 64])
def test_kernel_matches_quadrature(m):
    # off the checks' grid: small z, where the closed form cancels, and the
    # imaginary axis and a generic phase just above |z| = m
    for z in (1e-3, 1, 0.3 + 0.1j, 34, -34j, 46 + 46j, m + 2, (2 * m + 40) * cmath.exp(0.7j)):
        z = complex(z)
        reference = quad_kernel(m, z)
        assert abs(exp_cos_sine_integral(m, z) - reference) <= 1e-13 * (1 + abs(reference)), (m, z)


def test_kernel_checks_pass_to_degree_64():
    assert run_check("kernel_recurrence", 64).worst <= 1e-9
    assert run_check("kernel_route", 64).worst <= 1e-10


def test_u_table_is_the_chebyshev_table_integrated_by_parts():
    # T_m' = m U_{m-1}, so c_{n+1}(T_m) = m c_n(U_{m-1}), exactly in integers
    for m in range(1, 65):
        table, coeffs = _u_table(m - 1), chebyshev_coeffs(m).coeffs
        assert all(table[n - 1] * m == coeffs[n] for n in range(1, m + 1)), m


@pytest.mark.parametrize("m", range(1, 21))
def test_kernel_recurrence(m):
    for z in closed_grid(m + 1):
        up = exp_cos_sine_integral(m + 1, z)
        mid = exp_cos_sine_integral(m, z)
        down = exp_cos_sine_integral(m - 1, z)
        drive = (2.0 / z) * (cmath.exp(z) + (-1) ** (m - 1) * cmath.exp(-z))
        residual = up + (2.0 * m / z) * mid - down - drive
        scale = max(abs(up), abs(2.0 * m / z * mid), abs(down), abs(drive))
        assert abs(residual) <= 1e-9 * scale, (m, z)


def test_kernel_route_examples():
    assert abs(chebyshev_hat_via_kernel(0, 1.0) - 2 * math.sin(1.0)) <= 1e-15
    assert abs(chebyshev_hat_via_kernel(1, 1.0) - chebyshev_hat(1, 1.0).value) <= 1e-12
    lam = 0.5 - 2j
    via = chebyshev_hat_via_kernel(4, lam)
    forced, _ = _closed_form(coefficient_table("chebyshev", 4).coeffs, 4, lam)
    reference = quad_transform("chebyshev", 4, lam)
    assert abs(via - forced) <= 1e-9 * abs(reference)
    assert abs(via - reference) <= 1e-9 * (1 + abs(reference))
    with pytest.raises(ValueError):
        chebyshev_hat_via_kernel(2, 0.0)


@pytest.mark.parametrize("m", range(21))
def test_kernel_route_equivalence_on_closed_regime(m):
    for lam in closed_grid(m):
        direct = chebyshev_hat(m, lam).value
        via = chebyshev_hat_via_kernel(m, lam)
        denom = max(abs(direct), abs(via))
        assert abs(direct - via) <= 1e-9 * denom, (m, lam)


def test_exponential_overflow_raises_range_error():
    with pytest.raises(OverflowError):
        chebyshev_hat(0, 1e6j)
    with pytest.raises(OverflowError):
        legendre_hat(2, -1e6j)


def test_non_finite_argument_rejected():
    with pytest.raises(ValueError):
        legendre_hat(2, complex(float("nan"), 0.0))
    with pytest.raises(ValueError):
        chebyshev_hat(2, complex(float("inf"), 1.0))
    with pytest.raises(ValueError):
        exp_cos_sine_integral(2, complex(float("nan"), 0.0))
