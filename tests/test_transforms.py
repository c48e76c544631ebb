import cmath
import math
import random
from fractions import Fraction
from itertools import accumulate
from operator import mul

import numpy as np
import pytest

from fourpoly import transforms
from fourpoly.bessel import bessel_half
from fourpoly.checks import _memo_hat, _worst, closed_grid, run_check
from fourpoly.coeffs import Family, chebyshev_coeffs, coefficient_table, legendre_coeffs
from fourpoly.helmholtz import collocation_points
from fourpoly.oracle import quad_transform
from fourpoly.transforms import (
    EvalPath,
    chebyshev_hat,
    chebyshev_hat_via_kernel,
    exp_cos_sine_integral,
    legendre_hat,
    transform_hat,
    zero_lambda_value,
    _closed_form,
    _sweep,
    closed_form_ratios,
)

FAMILIES = list(Family)
FAMILY_OF = {0: Family.CHEBYSHEV, 1: Family.LEGENDRE}
# the evaluator's ultraspherical parameter a = 2 alpha: T_k, P_k and U_k/(k+1)
EACH_A = pytest.mark.parametrize("a", [0, 1, 2], ids=["chebyshev", "legendre", "U"])

# directions x magnitudes spanning real, imaginary and generic complex values
DIRECTIONS = [1.0, -1.0, 1j, (1 + 1j) / abs(1 + 1j), (3 - 2j) / abs(3 - 2j)]
MAGNITUDES = [1e-6, 1e-3, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0]


def full_grid():
    return [complex(m * d) for m in MAGNITUDES for d in DIRECTIONS]


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
    for m in range(401):
        result = transform_hat(family, m, 0.0)
        assert result.path is EvalPath.ZERO_LAMBDA
        assert result.value == complex(float(zero_lambda_value(family, m)))


def test_zero_lambda_check_reads_the_recurrence(monkeypatch):
    # lam = 0 values come from the degree recurrence, so a recurrence whose
    # lam = 0 rows are one ulp off fails the check
    recurrence = transforms._recurrence

    def one_ulp_off(a, m, lam, low):
        rows = recurrence(a, m, lam, low)
        return [complex(math.nextafter(v.real, math.inf), v.imag) for v in rows] if lam == 0 else rows

    monkeypatch.setattr(transforms, "_recurrence", one_ulp_off)
    assert run_check("zero_lambda_values", 8).worst == 1.0


def test_path_selection_obeys_threshold():
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
# the imaginary axis, against the closed form summed exactly (quadrature is
# no reference here: near the imaginary axis its own error reaches ~3e-9)
# ---------------------------------------------------------------------------


def u_table(k):
    """Closed-form coefficients of U_k: c_n = (-1)^(k+n+1) U_k^(n-1)(1), where
    U_k^(j)(1) = (k+1) prod_{i=1..j} ((k+1)^2 - i^2) / (2i+1), an integer."""
    table, derivative = [], k + 1
    for n in range(1, k + 2):
        table.append(derivative if (k + n) % 2 else -derivative)
        derivative = derivative * ((k + 1) ** 2 - n * n) // (2 * n + 1)
    return tuple(table)


def exact_value(coeffs, m, lam):
    """F = e^{i lam} P(w) + (-1)^m e^{-i lam} P(-w) in mpmath, where P(w) =
    sum_n c_n w^n over an integer table c_1 .. c_{m+1} (ints or integral
    Fractions) and w = 1/(i lam) = g/s.

    s^(m+1) P(w) and s^(m+1) P(-w) are exact Gaussian integers, so all the
    cancellation is in the final sum, which takes log10(largest part / |F|)
    + 30 digits.  |F| is not known beforehand: start as if it were 1, accept
    a value that a re-evaluation 20 digits higher matches to 1e-18, and
    double the digits otherwise.  Returns 0 for |F| below about 1e-290.
    """
    mpmath = pytest.importorskip("mpmath")
    (x, dx), (y, dy) = lam.real.as_integer_ratio(), lam.imag.as_integer_ratio()
    d = max(dx, dy)  # dx and dy are powers of two; lam = (x + iy)/d
    x, y = x * (d // dx), y * (d // dy)
    s, gr, gi = x * x + y * y, -d * y, -d * x
    pr = pi = qr = qi = 0
    scale = 1  # s^(m+1) at the end
    for c in reversed(coeffs):  # Horner: acc = (acc + c_n s^(m+1-n)) g
        assert c.denominator == 1, c
        t = int(c) * scale
        scale *= s
        pr, pi = (pr + t) * gr - pi * gi, (pr + t) * gi + pi * gr
        qr, qi = -((qr + t) * gr - qi * gi), -((qr + t) * gi + qi * gr)
    bits = max(abs(v).bit_length() for v in (pr, pi, qr, qi)) - scale.bit_length()
    big = max(0.0, bits * math.log10(2) + abs(lam.imag) / math.log(10))
    digits = big + 30
    while digits < big + 330:
        values = []
        for extra in (0, 20):
            with mpmath.workdps(int(digits) + extra):
                z = mpmath.mpc(lam.real, lam.imag)
                total = mpmath.exp(1j * z) * mpmath.mpc(pr, pi) + (-1) ** m * mpmath.exp(-1j * z) * mpmath.mpc(qr, qi)
                values.append(total / scale)
        low, high = values
        with mpmath.workdps(int(digits) + 20):
            if high != 0 and abs(low - high) <= 1e-18 * abs(high):
                return complex(high)
        digits *= 2
    return 0j


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
        reference = exact_value(coefficient_table(family, m).coeffs, m, lam)
        value = transform_hat(family, m, lam).value
        assert abs(value - reference) <= 1e-12 * (1 + abs(reference)), (family, m, lam)


@pytest.mark.parametrize("lam", [39.5, 30 + 5j])
def test_chebyshev_band_anchors(lam):
    # the two Chebyshev anchors of the benchmark, in and near the band
    reference = exact_value(chebyshev_coeffs(40).coeffs, 40, complex(lam))
    value = chebyshev_hat(40, lam).value
    assert abs(value - reference) <= 1e-12 * (1 + abs(reference))


def test_recurrence_survives_small_and_zero_pivots():
    # at lam = +-sqrt(35) the Legendre pivot of row 3, 1 - lam^2 alpha_2 beta_3
    # = 1 - 35/35, is exactly zero from the F_1 anchor, for every m >= 6 (below
    # that the closed form serves); the two Chebyshev points make one ~1e-7 at
    # k >= m, where plain back substitution would lose 1e-10
    cases = [(Family.LEGENDRE, m, sign * math.sqrt(35)) for m in (6, 8, 12) for sign in (1, -1)]
    cases += [(Family.CHEBYSHEV, 24, 30.4326), (Family.CHEBYSHEV, 24, 34.1082)]
    for family, m, lam in cases:
        reference = exact_value(coefficient_table(family, m).coeffs, m, complex(lam))
        value = transform_hat(family, m, lam).value
        assert abs(value - reference) <= 1e-12 * (1 + abs(reference)), (family, m, lam)


def test_tiny_lambda_keeps_relative_accuracy():
    # odd Chebyshev transforms are O(lam) while their even neighbours are O(1)
    for lam, rtol in ((1e-20, 1e-14), (1e-20j, 1e-14), (1e-310, 1e-12)):  # 1e-310 is subnormal
        expected = -2j * lam / 3  # T_1 = P_1 = x
        for family in FAMILIES:
            assert abs(transform_hat(family, 1, lam).value - expected) <= rtol * abs(expected)
    assert abs(chebyshev_hat(3, 1e-20).value - 0.4e-20j) <= 1e-14 * 0.4e-20


def test_degree_160_matches_exact_closed_form():
    # the paper's top coefficients exceed the double range at m = 160; the
    # ratio loop never forms them
    cases = [
        (legendre_hat(160, 161.0).value, legendre_coeffs(160).coeffs),
        (chebyshev_hat(160, 161.0).value, chebyshev_coeffs(160).coeffs),
        (exp_cos_sine_integral(161, -161j), u_table(160)),  # U_160 at lam = 161
    ]
    for kind, (value, coeffs) in enumerate(cases):
        reference = exact_value(coeffs, 160, 161 + 0j)
        assert abs(value - reference) <= 1e-13 * (1 + abs(reference)), kind


def test_quad_transform_matches_exact_closed_form():
    # the points where the benchmark checks quadrature against its reference
    for family, m, lam in [("chebyshev", 5, 2.0 + 0j), ("legendre", 7, 1 + 1j),
                           ("chebyshev", 12, -15 + 3j), ("legendre", 0, 3j)]:
        reference = exact_value(coefficient_table(family, m).coeffs, m, lam)
        assert abs(quad_transform(family, m, lam) - reference) <= 1e-13 * (1 + abs(reference))


# ---------------------------------------------------------------------------
# lam = n pi, where F_0 = 2 sin(lam) / lam vanishes and the recurrence
# anchors at F_1 instead
# ---------------------------------------------------------------------------


def exact_real_closed_form(coeffs, m, lam):
    """Closed form over an exact table at real lam: the sums over n are exact
    integers, and mpmath combines them with cos and sin at enough digits for
    their cancellation.

    `exact_value` gives the same reference at any complex lam; this one is
    kept as the fast path for the thousands of real points below, which
    through `exact_value` take about 3.5 s longer.
    """
    mpmath = pytest.importorskip("mpmath")
    num, den = lam.as_integer_ratio()
    # num^(m+1) c_n w^n = c_n (-i)^n den^n num^(m+1-n): real at even n, imaginary at odd n
    even = odd = 0
    power = 1
    for n, c in enumerate(coeffs, start=1):
        even, odd, power = even * num, odd * num, power * den
        term = c * power if n % 4 < 2 else -c * power  # (-i)^n = -i, -1, i, 1 for n = 1, 2, 3, 0 mod 4
        if n % 2:
            odd -= term
        else:
            even += term
    whole = num ** (m + 1)
    digits = 20 + max(0.0, math.log10(abs(even) + abs(odd) + 1) - math.log10(abs(whole)))
    with mpmath.workdps(int(digits)):
        x = mpmath.mpf(lam)
        e, o = mpmath.mpf(even) / whole, mpmath.mpf(odd) / whole
        if m % 2:
            return complex(0, 2 * (e * mpmath.sin(x) + o * mpmath.cos(x)))
        return complex(2 * (e * mpmath.cos(x) - o * mpmath.sin(x)))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("m", [1, 2, 5, 10, 20, 40, 69, 80])
def test_multiples_of_pi_match_exact_closed_form(family, m):
    coeffs = coefficient_table(family, m).coeffs
    for n in range(1, math.ceil(2.5 * m / math.pi) + 1):
        offsets = [0.0] + [s * 10.0**-j for j in (4, 6, 8, 10, 12) for s in (1, -1)]
        for lam in (n * math.pi + d for d in offsets):
            reference = exact_real_closed_form(coeffs, m, lam)
            value = transform_hat(family, m, lam).value
            assert abs(value - reference) <= 1e-13 * (1 + abs(reference)), (family, m, lam)


def test_chebyshev_spike_and_kernel_points_match_exact_closed_form():
    # row 1 of the Chebyshev recurrence was its anchor; the minimal solution
    # nearly vanishes there at lam = 84.0390907765 for m = 69
    reference = exact_real_closed_form(chebyshev_coeffs(69).coeffs, 69, 84.0390907765)
    assert abs(chebyshev_hat(69, 84.0390907765).value - reference) <= 1e-13 * (1 + abs(reference))
    for k in range(10, 40):
        for lam in (25.3, 31.7, 38.474):
            reference = exact_real_closed_form(u_table(k), k, lam)
            value = exp_cos_sine_integral(k + 1, -1j * lam)
            assert abs(value - reference) <= 1e-13 * (1 + abs(reference)), (k, lam)


def test_cancelled_closed_form_falls_to_recurrence_at_a_zero_of_j2():
    # at this zero of J_2 the Chebyshev closed form of degree 16 sums terms 244
    # times its two part-sums, and is off by 7.4e-13 relative
    lam = 21.116997053021844
    assert _closed_form(0, 16, lam)[1] > transforms._CANCEL_LIMIT
    reference = exact_real_closed_form(chebyshev_coeffs(16).coeffs, 16, lam)
    assert abs(chebyshev_hat(16, lam).value - reference) <= 1e-13 * abs(reference)


@EACH_A
def test_zeros_of_bessel_j_match_exact_closed_form(a):
    # the minimal solutions go like J_0, J_1 (Chebyshev) and J_1, J_2 (U) at
    # the two anchors; each must be avoided where it vanishes
    special = pytest.importorskip("scipy.special")
    for m in (20, 80):
        coeffs = u_table(m) if a == 2 else coefficient_table(FAMILY_OF[a], m).coeffs
        for order in (0, 1, 2):
            for lam in special.jn_zeros(order, 80):
                if 1.0 < lam < 2.5 * m:
                    reference = exact_real_closed_form(coeffs, m, float(lam))
                    value = exp_cos_sine_integral(m + 1, -1j * float(lam)) if a == 2 else _sweep(a, m, float(lam), m)[0]
                    assert abs(value - reference) <= 1e-13 * (1 + abs(reference)), (a, m, order, lam)


@EACH_A
def test_anchor_choice_keeps_parity_and_conjugation_exact(a):
    # F(-lam) = (-1)^m F(lam) and F(-conj(lam)) = conj(F(lam)) hold exactly
    # only if lam, -lam and -conj(lam) get the same anchor
    rng = random.Random(3)
    for _ in range(200):
        m = rng.randint(1, 60)
        lam = rng.uniform(1, 2.5 * m + 2) * cmath.exp(1j * rng.choice([0.0, rng.uniform(0, math.pi / 2)]))
        value = _sweep(a, m, lam, m)[0]
        assert _sweep(a, m, -lam, m)[0] == (-1) ** m * value, (a, m, lam)
        assert _sweep(a, m, -lam.conjugate(), m)[0] == value.conjugate(), (a, m, lam)


def test_bessel_at_four_pi_matches_scipy():
    special = pytest.importorskip("scipy.special")
    reference = special.jv(20.5, 4 * math.pi)
    assert abs(bessel_half(20, 4 * math.pi) - reference) <= 1e-13 * (1 + abs(reference))


# ---------------------------------------------------------------------------
# one degree sweep yields every degree
# ---------------------------------------------------------------------------


def sweep_points():
    """mu = i(s + 1/s) at s = lam, -i lam, i lam for the solver's 40 default
    points (mu = 0 excluded), random complex mu with |mu| <= 100, real mu
    with 63 < |mu| <= 4000, where forward substitution serves the whole
    sweep to degree 63, and mu with 700 < |Im mu| <= 709 + ln |mu|, where
    each F_k is finite only once `_uncapped` puts e^{|Im mu| - 700} back on:
    forward substitution serves those with |mu| >= 63 sqrt(|Im mu|/2),
    Olver's algorithm the others."""
    points = [1j * (s + 1 / s) for lam in collocation_points(40) for s in (lam, -1j * lam, 1j * lam)]
    rng = random.Random(5)
    points += [10 ** rng.uniform(-3, 2) * cmath.exp(2j * math.pi * rng.random()) for _ in range(40)]
    points += [rng.choice((1, -1)) * 10 ** rng.uniform(math.log10(64), math.log10(4000)) for _ in range(20)]
    for _ in range(20):
        r = 10 ** rng.uniform(math.log10(701), math.log10(4000))
        imag = rng.choice((1, -1)) * rng.uniform(700.5, 709 + math.log(r))
        points.append(complex(rng.choice((1, -1)) * math.sqrt(r * r - imag * imag), imag))
    return [complex(mu) for mu in points if mu != 0]


@EACH_A
def test_sweep_from_degree_zero_matches_scalar_path(a):
    for mu in sweep_points():
        swept = _sweep(a, 63, mu, 0)
        assert len(swept) == 64
        for k, value in enumerate(swept):
            reference = _sweep(a, k, mu, k)[0]
            assert abs(value - reference) <= 1e-13 * (1 + abs(reference)), (a, k, mu)


# ---------------------------------------------------------------------------
# envelope out to m = 400, against the closed form summed exactly
# ---------------------------------------------------------------------------


def envelope_points(seed, count=250):
    """Half m <= 40, half 41 <= m <= 400; |lam| log-uniform in [1e-3, 6m + 10]
    on random, near-real and near-imaginary rays, with |Im lam| <= 650."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        m = rng.randint(0, 40) if len(points) < count // 2 else rng.randint(41, 400)
        family = rng.choice(FAMILIES)
        r = math.exp(rng.uniform(math.log(1e-3), math.log(6 * m + 10)))
        ray = rng.choice((None, 0.0, math.pi, math.pi / 2, -math.pi / 2))
        angle = rng.uniform(-math.pi, math.pi) if ray is None else ray + rng.uniform(-1e-3, 1e-3)
        lam = cmath.rect(r, angle)
        # |P_m-hat| <= 2 |lam|^m e^{|Im lam|} / m!, as P_m is orthogonal to x^k, k < m
        tiny = math.log(2) + m * math.log(r) + abs(lam.imag) - math.lgamma(m + 1) < -290 * math.log(10)
        if abs(lam.imag) <= 650 and not (family is Family.LEGENDRE and tiny):
            points.append((family, m, lam))
    return points


def test_envelope_to_degree_400_matches_exact_closed_form():
    # No point of this seed lies near a zero of F, where the relative error
    # would grow with F's own condition number (eps |lam cot lam| for F_0).
    checked = 0
    for family, m, lam in envelope_points(20261018):
        reference = exact_value(exact_ratio_table(0 if family is Family.CHEBYSHEV else 1, m), m, lam)
        if abs(reference) < 1e-290:  # gradual underflow costs the double value its digits
            continue
        value = transform_hat(family, m, lam).value
        assert abs(value - reference) <= 1e-12 * abs(reference), (family, m, lam)
        checked += 1
    assert checked >= 240
    # a far ring at |lam| = m^2/4 + 40, where the closed form serves at every
    # angle: it cancels below about m^2/8 on the real axis, m^2/4 on the
    # imaginary one
    rng = random.Random(20261019)
    for _ in range(32):
        family, m = rng.choice(FAMILIES), rng.randint(1, 400)
        r = m * m / 4 + 40
        imag = rng.uniform(-1, 1) * min(r, 650)
        lam = complex(rng.choice((1, -1)) * math.sqrt(r * r - imag * imag), imag)
        reference = exact_value(exact_ratio_table(0 if family is Family.CHEBYSHEV else 1, m), m, lam)
        value = transform_hat(family, m, lam).value
        assert abs(value - reference) <= 1e-12 * abs(reference), (family, m, lam)


# ---------------------------------------------------------------------------
# the dispatch between closed form, forward substitution and Olver's algorithm
# ---------------------------------------------------------------------------


def legendre_bessel_reference(m, lam):
    """2 (-i)^m sqrt(pi/(2 lam)) J_{m+1/2}(lam) in mpmath (DLMF 10.54.2).

    Above |lam| = m, mpmath sums J's Hankel expansion, which for half-integer
    order ends after m + 1 terms, only with more than m bits of precision;
    with fewer it falls back to the power series, which takes seconds at
    |lam| ~ 8000, |Im lam| ~ 600."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(max(100, m + 50) if abs(lam) > m else 100):
        z = mpmath.mpc(lam.real, lam.imag)
        return complex(2 * (-1j) ** m * mpmath.sqrt(mpmath.pi / (2 * z)) * mpmath.besselj(m + 0.5, z))


def dispatch_points(seed, count=150):
    """Legendre m <= 1000 and Chebyshev m <= 400; |lam| log-uniform in
    [0.5m, 50m] on random and near-real rays, with |Im lam| <= 690."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        family = rng.choice(FAMILIES)
        m = rng.randint(1, 400 if family is Family.CHEBYSHEV else 1000)
        r = math.exp(rng.uniform(math.log(0.5 * m), math.log(50 * m)))
        ray = rng.choice((None, 0.0, math.pi))
        lam = cmath.rect(r, rng.uniform(-math.pi, math.pi) if ray is None else ray + rng.uniform(-0.02, 0.02))
        if abs(lam.imag) <= 690:
            points.append((family, m, lam))
    return points


def test_each_algorithm_meets_1e_12_from_half_to_fifty_times_the_degree():
    checked = 0
    for family, m, lam in dispatch_points(20261019):
        if family is Family.LEGENDRE:
            reference = legendre_bessel_reference(m, lam)
        else:
            reference = exact_value(exact_ratio_table(0, m), m, lam)
        # Where F oscillates, F_m and F_{m+1} are about a quarter period out
        # of phase, so |F_m| < |F_{m+1}|/20 puts lam within about 0.05 of a
        # zero of F_m, where any evaluator's relative error grows like
        # 1/|F_m|; such points are skipped.
        if abs(reference) < 0.05 * abs(transform_hat(family, m + 1, lam).value):
            continue
        value = transform_hat(family, m, lam).value
        assert abs(value - reference) <= 1e-12 * abs(reference), (family, m, lam)
        checked += 1
    assert checked >= 140


def test_closed_form_and_forward_substitution_serve_far_above_the_degree(monkeypatch):
    def olver(a, m, lam, low):
        raise AssertionError(f"Olver's algorithm ran at a={a}, m={m}, lam={lam}")

    monkeypatch.setattr(transforms, "_recurrence", olver)
    legendre_hat(1000, 20000.0)
    legendre_hat(3000, 60000.0)
    # beyond |Im lam| = 700 forward substitution runs at the capped argument
    legendre_hat(1000, 50000 + 705j)
    legendre_hat(1000, 50000 - 705j)
    chebyshev_hat(1000, -50000 + 705j)
    exp_cos_sine_integral(1000, -1j * (50000 + 705j))
    for m in (40, 200, 1000):
        for lam in (1.15 * m, 1.5 * m, 2.5 * m, 4 * m, 7.9 * m):
            chebyshev_hat(m, lam)
            legendre_hat(m, lam)
            exp_cos_sine_integral(m, -1j * lam)


@EACH_A
@pytest.mark.parametrize("m", [0, 1, 3, 7, 8, 9, 20, 40])
def test_closed_form_is_tried_exactly_from_its_reach(monkeypatch, a, m):
    # the closed form is tried for F_m alone, from |lam| = max(1, m, m^2/8) on
    tried = []
    closed_form = transforms._closed_form

    def recorder(a, m, lam):
        tried.append((a, m, lam))
        return closed_form(a, m, lam)

    monkeypatch.setattr(transforms, "_closed_form", recorder)
    bound = max(1.0, m, m * m / 8)
    for r in (bound, math.nextafter(bound, 0.0)):
        for lam in (complex(r), 1j * r):
            tried.clear()
            _sweep(a, m, lam, m)
            assert tried == ([(a, m, lam)] if r >= bound else []), (r, lam)
            for low in range(m):
                _sweep(a, m, lam, low)
            assert len(tried) <= 1, (r, lam)


def beyond_700_points(seed, count=400):
    """Legendre m <= 1000 at lam with 700 < |Im lam| <= 709 + ln |lam|, where
    F_m is finite but e^{+-i lam} is taken at |Im lam| = 700, and
    |lam| >= 19m, so g = m^2 |Im lam|/|lam|^2 <= 2; |lam| log-uniform up to 60m + 1000."""
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        m = rng.randint(0, 1000)
        r = math.exp(rng.uniform(math.log(max(701, 19 * m)), math.log(60 * m + 1000)))
        imag = rng.uniform(700.001, min(709 + math.log(r), r))
        points.append((m, complex(rng.choice((1, -1)) * math.sqrt(r * r - imag * imag), rng.choice((1, -1)) * imag)))
    return points


def test_band_beyond_700_meets_1e_12():
    for m, lam in beyond_700_points(20261020):
        reference = legendre_bessel_reference(m, lam)
        value = legendre_hat(m, lam).value
        assert abs(value - reference) <= 1e-12 * abs(reference), (m, lam)


@pytest.fixture
def row_use(monkeypatch):
    """Patches `transforms._rows`; returns the table sizes asked for and the rows read."""
    asked, read = [], []

    class Rows(tuple):
        def __getitem__(self, k):
            row = tuple.__getitem__(self, k)
            read.append(k)  # after the read: an index past a table that then grows is not counted
            return row

    rows = transforms._rows

    def recorded(a, size):
        asked.append(size)
        return Rows(rows(a, size))

    monkeypatch.setattr(transforms, "_rows", recorded)
    return asked, read


@pytest.mark.parametrize("m, lam, low", [(40, 300j, 40), (63, 500j, 0), (1000, 3000 + 600j, 1000)])
def test_olver_stops_on_its_estimate_far_off_the_real_axis(row_use, m, lam, low):
    # g = m^2 |Im lam|/|lam|^2 > 2 sends these to Olver's algorithm, whose
    # estimate |h_m ... h_k| falls below its tolerance well before k = |lam|
    _, read = row_use
    values = _sweep(1, m, lam, low)
    assert max(read) < abs(lam), max(read)
    assert len(values) == m + 1 - low
    for k, value in enumerate(values, start=low):
        reference = legendre_bessel_reference(k, lam)
        assert abs(value - reference) <= 1e-12 * abs(reference), k


@pytest.mark.parametrize("call, overflow", [
    (lambda: _sweep(1, 127, 700j, 0), None),
    (lambda: _sweep(1, 63, 500j, 0), None),
    (lambda: legendre_hat(40, 300j), None),
    (lambda: legendre_hat(2000, 1e5j), "transform value beyond the double range at m=2000, lam=100000j"),
    (lambda: legendre_hat(4000, 4e5j), "transform value beyond the double range at m=4000, lam=400000j"),
], ids=["sweep-127-700i", "sweep-63-500i", "legendre-40-300i", "legendre-2000-1e5i", "legendre-4000-4e5i"])
def test_olver_builds_only_the_rows_it_reads(row_use, call, overflow):
    # the table starts at the power of two above m + 64 and doubles as the sweep
    # passes its end, so it stays within twice the rows read, however far
    # 2 max(m, |lam|) lies
    asked, read = row_use
    if overflow:
        with pytest.raises(OverflowError, match=f"^{overflow}$"):
            call()
    else:
        call()
    assert max(asked) <= 2 * (max(read) + 1), (asked, max(read))


def test_decaying_values_below_the_cap_keep_1e_12():
    # Legendre m >= 1.2 |lam| near the imaginary axis, |lam| <= 700: F_m is
    # far below e^{|Im lam|} there, so a scale of e^{-|Im lam|} on the
    # algorithm's start values would underflow; the 700 cap scales none of them
    rng = random.Random(20261026)
    checked = 0
    while checked < 40:
        r = rng.uniform(300, 700)
        m = round(math.exp(rng.uniform(math.log(math.ceil(1.2 * r)), math.log(3000))))
        lam = cmath.rect(r, rng.choice((1, -1)) * math.pi / 2 + rng.uniform(-0.3, 0.3))
        reference = legendre_bessel_reference(m, lam)
        if abs(reference) < 1e-290:  # gradual underflow costs the double value its digits
            continue
        value = legendre_hat(m, lam).value
        assert abs(value - reference) <= 1e-12 * abs(reference), (m, lam)
        checked += 1


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


SHARED_HAT = _memo_hat()  # each transform value once across the cases below


def check_holds(name, max_m, tol):
    """A `fourpoly.checks` check over every degree <= max_m: a parametrized
    test's first failing case names the lowest degree that breaks it."""
    result = _worst(name, max_m, SHARED_HAT)
    assert result.worst <= tol, result


@pytest.mark.parametrize("m", range(21))
def test_conjugation_for_real_lambda(m):
    check_holds("conjugation", m, 1e-13)  # criterion 6 allows 1e-12


@pytest.mark.parametrize("m", range(1, 21))
def test_legendre_three_term_recurrence(m):
    check_holds("legendre_recurrence", m, 1e-9)


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
    for m in range(8):  # K(m, 0) = int_0^pi sin(m w) dw, from the recurrence at lam = 0
        assert exp_cos_sine_integral(m, 0.0) == ((1 - (-1) ** m) / m if m else 0.0), m
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


def exact_ratio_table(a, m):
    """c_1 .. c_{m+1} as exact running products of the evaluator's ratios."""
    return list(accumulate((Fraction(*r) for r in closed_form_ratios(a, m)), mul))


def test_u_table_is_the_chebyshev_table_integrated_by_parts():
    # T_m' = m U_{m-1}, so c_{n+1}(T_m) = m c_n(U_{m-1}), exactly in integers;
    # the evaluator's ratios at a = 2 give the table of U_{m-1}/m
    for m in range(1, 65):
        table, coeffs = [m * c for c in exact_ratio_table(2, m - 1)], chebyshev_coeffs(m).coeffs
        assert list(u_table(m - 1)) == table, m
        assert all(table[n - 1] * m == coeffs[n] for n in range(1, m + 1)), m


@pytest.mark.parametrize("m", range(1, 21))
def test_kernel_recurrence(m):
    check_holds("kernel_recurrence", m, 1e-9)


@pytest.mark.parametrize("m", range(21))
def test_kernel_route_equivalence_on_closed_regime(m):
    check_holds("kernel_route", m, 1e-10)


def test_kernel_checks_pass_to_degree_64():
    check_holds("kernel_recurrence", 64, 1e-9)
    check_holds("kernel_route", 64, 1e-10)


def test_kernel_route_examples():
    assert abs(chebyshev_hat_via_kernel(0, 1.0) - 2 * math.sin(1.0)) <= 1e-15
    assert abs(chebyshev_hat_via_kernel(1, 1.0) - chebyshev_hat(1, 1.0).value) <= 1e-12
    lam = 0.5 - 2j
    via = chebyshev_hat_via_kernel(4, lam)
    forced, _ = _closed_form(0, 4, lam)
    reference = quad_transform("chebyshev", 4, lam)
    assert abs(via - forced) <= 1e-9 * abs(reference)
    assert abs(via - reference) <= 1e-9 * (1 + abs(reference))
    with pytest.raises(ValueError):
        chebyshev_hat_via_kernel(2, 0.0)


def test_exponential_overflow_raises_range_error():
    with pytest.raises(OverflowError):
        chebyshev_hat(0, 1e6j)
    with pytest.raises(OverflowError):
        legendre_hat(2, -1e6j)
    with pytest.raises(OverflowError):  # the value itself is beyond double range
        legendre_hat(300, 5000j)


def test_only_non_finite_values_raise_overflow_error():
    # e^{+-i lam} (closed form, kernel route) and sin, cos (recurrence, m = 800)
    # pass the double range before the value does; references from 30-digit mpmath
    cases = [
        (lambda: legendre_hat(3, 710j).value, 3.1199750961627040e305),
        (lambda: chebyshev_hat(3, -710j).value, -3.1067362428799814e305),
        (lambda: chebyshev_hat_via_kernel(3, -710j), -3.1067362428799814e305),
        (lambda: chebyshev_hat_via_kernel(3, 710j), 3.1067362428799814e305),
        (lambda: bessel_half(3, 710j), 2.3451756152565601501e306 * (1 - 1j)),
        (lambda: exp_cos_sine_integral(3, 710), 9.4040112389747350e305),
        (lambda: legendre_hat(0, 710j).value, 3.1464715016362125e305),
        (lambda: legendre_hat(800, 709.9j).value, 8.3091705499106588e124),
    ]
    for case, reference in cases:
        assert abs(case() - reference) <= 1e-13 * abs(reference), reference
    with pytest.raises(OverflowError):  # about 6.8e309
        legendre_hat(0, 720j)
    # K = m F_{m-1} at a = 2: the factor m takes these beyond the double range
    with pytest.raises(OverflowError):
        exp_cos_sine_integral(120, 715.7)
    with pytest.raises(OverflowError):
        chebyshev_hat_via_kernel(155, 715.66j)
    with pytest.raises(OverflowError):  # K(0, z) = 0, and e^{+-i lam} / (i lam) is beyond the range
        chebyshev_hat_via_kernel(0, 717j)


@pytest.mark.parametrize("call, error, message", [
    (lambda: exp_cos_sine_integral(120, 715.7), OverflowError,
     "kernel value beyond the double range at m=120, z=(715.7+0j)"),
    (lambda: chebyshev_hat_via_kernel(155, 715.66j), OverflowError,
     "kernel route beyond the double range at m=155, lam=715.66j"),
    (lambda: chebyshev_hat_via_kernel(3, math.nan), ValueError, "lam must be finite"),
    (lambda: bessel_half(0, 720j), OverflowError, "J_(m+1/2) beyond the double range at m=0, lam=720j"),
    (lambda: legendre_hat(2, 1410j), OverflowError, "transform value beyond the double range at m=2, lam=1410j"),
    (lambda: exp_cos_sine_integral(3, 1e6), OverflowError,
     "kernel value beyond the double range at m=3, z=(1000000+0j)"),
], ids=["kernel-factor-m", "kernel-route", "kernel-route-nan", "bessel", "legendre-1410i", "kernel-1e6"])
def test_each_entry_point_names_its_own_error(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message


# |Im lam| beyond 1409.78, and a point where 1/(i lam) overflows to 0
BEYOND_1409 = [1410j, -1410j, 1e6j, -1e6j, 9e307 + 9e307j]


@pytest.mark.parametrize("evaluate, quantity, name, args", [
    (lambda m, x: chebyshev_hat(m, x).value, "transform value", "lam", BEYOND_1409),
    (lambda m, x: legendre_hat(m, x).value, "transform value", "lam", BEYOND_1409),
    (exp_cos_sine_integral, "kernel value", "z", [1410, -1410, 1e6, -1e6, 9e307 - 9e307j]),  # lam = iz
    (chebyshev_hat_via_kernel, "kernel route", "lam", BEYOND_1409),
    (bessel_half, "J_(m+1/2)", "lam", BEYOND_1409),
], ids=["chebyshev", "legendre", "kernel", "kernel_route", "bessel"])
def test_overflow_beyond_1409_names_the_entry_point(evaluate, quantity, name, args):
    # at these degrees the values, about e^{|Im lam|}/|lam|, are beyond the
    # double range; the entry point reports the OverflowError of ldexp or
    # cmath.exp under its own name, not as "math range error", and at
    # 9e307 + 9e307j raises at once instead of sizing the recurrence by |lam|
    for m in (1, 3, 40) if evaluate is exp_cos_sine_integral else (0, 3, 40):  # K(0, z) = 0
        for arg in args:
            with pytest.raises(OverflowError) as raised:
                evaluate(m, arg)
            assert str(raised.value) == f"{quantity} beyond the double range at m={m}, {name}={complex(arg)}"


def test_values_within_the_double_range_are_returned_beyond_700():
    # e^{|Im lam| - 700} overflows from |Im lam| = 1409.78 on, but is applied
    # as e^r 2^k; at 740j the closed form cancels, and its noise times e^40
    # would be beyond the range.  References 2 sqrt(pi/2y) I_{m+1/2}(y) by
    # 40-digit mpmath
    assert not _closed_form(1, 228, 740j)[1] <= transforms._CANCEL_LIMIT
    finite = [((2000, 1410j), 3.2987802445605862933e61), ((1800, 1450j), 4.1349206395790844249e185),
              ((228, 740j), 1.9768523745216031317e303), ((230, 740j), 1.072925511394481366e303)]
    for (m, lam), reference in finite:
        assert abs(legendre_hat(m, lam).value - reference) <= 1e-12 * reference, (m, lam)
    for m, lam in [(5000, 1410j), (3000, 1420j), (4000, 1500j)]:  # 2.9e-2044, 5.1e-508, 2.9e-1115
        assert legendre_hat(m, lam).value == 0.0, (m, lam)
    for m, lam in [(0, 1000j), (3, 1410j)]:  # about e^1000/1000 and e^1410/1410
        with pytest.raises(OverflowError):
            legendre_hat(m, lam)


def test_closed_form_terms_beyond_double_range_fall_to_recurrence():
    # the largest term at m = 2000, lam = 2000 is ~10^400: the closed form is
    # NaN, fails the cancellation test, and the recurrence gives the value
    _, cancellation = _closed_form(1, 2000, 2000.0)
    assert not cancellation <= transforms._CANCEL_LIMIT
    assert legendre_hat(2000, 2000.0).value == 0.0019173714582724126


def test_evaluation_builds_no_paper_table():
    chebyshev_coeffs.cache_clear()
    legendre_coeffs.cache_clear()
    for m in range(65):
        for lam in closed_grid(m):
            for family in FAMILIES:
                transform_hat(family, m, lam)
            exp_cos_sine_integral(m, -1j * lam)
    assert chebyshev_coeffs.cache_info().misses == 0
    assert legendre_coeffs.cache_info().misses == 0


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        transform_hat("legendre", -1, 1.0)
    with pytest.raises(ValueError):
        zero_lambda_value("chebyshev", -2)


def test_non_integer_degree_is_type_error():
    # an integral float is rejected as well: the degree indexes the recurrence
    for m in (2.5, 2.0):
        with pytest.raises(TypeError):
            legendre_hat(m, 0.0)
        with pytest.raises(TypeError):
            chebyshev_hat(m, 3.0)
        with pytest.raises(TypeError):
            zero_lambda_value("legendre", m)
        with pytest.raises(TypeError):
            exp_cos_sine_integral(m, 1.0)
    # integer-like degrees keep working
    assert legendre_hat(np.int64(3), 2.0) == legendre_hat(3, 2.0)
    assert chebyshev_hat(True, 0.5) == chebyshev_hat(1, 0.5)


def test_non_finite_argument_rejected():
    with pytest.raises(ValueError):
        legendre_hat(2, complex(float("nan"), 0.0))
    with pytest.raises(ValueError):
        chebyshev_hat(2, complex(float("inf"), 1.0))
    with pytest.raises(ValueError):
        exp_cos_sine_integral(2, complex(float("nan"), 0.0))
