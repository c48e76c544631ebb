import cmath
import math
from fractions import Fraction

import pytest

from fourpoly.coeffs import (
    CSV_HEADER,
    Family,
    binom_clamped,
    chebyshev_coeffs,
    coefficient_table,
    coefficients_csv,
    legendre_coeffs,
    product_range,
)
from fourpoly.oracle import quad_transform


def test_product_range_examples():
    assert product_range(2, 1, 5) == 1  # empty product
    assert product_range(1, 1, 1) == 1  # single factor 2(1-1)+1
    assert product_range(1, 3, 4) == 7 * 5 * 3


def test_binom_clamped_examples():
    assert binom_clamped(3, 5) == 0
    assert binom_clamped(4, 0) == 1
    assert binom_clamped(6, 2) == 15
    assert binom_clamped(5, -1) == 0
    assert binom_clamped(-2, 3) == 0


def test_chebyshev_small_tables():
    assert chebyshev_coeffs(0).coeffs == (1,)
    assert chebyshev_coeffs(1).coeffs == (-1, 1)
    assert chebyshev_coeffs(2).coeffs == (1, -4, 4)


def test_legendre_small_tables():
    assert legendre_coeffs(0).coeffs == (1,)
    assert legendre_coeffs(1).coeffs == (-1, 1)
    table = legendre_coeffs(2).coeffs
    assert table[0] == 1
    assert table == (1, -3, 3)


@pytest.mark.parametrize("m", range(0, 33))
def test_chebyshev_leading_entries(m):
    table = chebyshev_coeffs(m).coeffs
    assert table[0] == (-1) ** m
    if m >= 1:
        assert table[1] == (-1) ** (m + 1) * m * m


@pytest.mark.parametrize("m", range(0, 33))
def test_legendre_first_entry_parity(m):
    first = legendre_coeffs(m).coeffs[0]
    assert first == (1 if m % 2 == 0 else -1)


def test_families_agree_at_low_degree():
    for m in (0, 1):
        assert chebyshev_coeffs(m).coeffs == legendre_coeffs(m).coeffs


def test_top_legendre_entry_is_double_factorial():
    # independent check: the last coefficient must be (2m-1)!!
    for m in range(1, 25):
        dfact = 1
        for odd in range(1, 2 * m, 2):
            dfact *= odd
        assert legendre_coeffs(m).coeffs[m] == dfact


def derivatives_at_one(family, m):
    """p_m^(j)(1) for j = 0..m: T_m^(j)(1) = prod_{i<j} (m^2 - i^2)/(2i+1) and
    P_m^(j)(1) = (m+j)! / (2^j j! (m-j)!)."""
    if family is Family.LEGENDRE:
        f = math.factorial
        return [Fraction(f(m + j), 2**j * f(j) * f(m - j)) for j in range(m + 1)]
    values = [Fraction(1)]
    for i in range(m):
        values.append(values[-1] * Fraction(m * m - i * i, 2 * i + 1))
    return values


@pytest.mark.parametrize("family", list(Family))
def test_tables_are_signed_derivatives_at_one(family):
    # integrating the transform by parts m+1 times: c_n = (-1)^(m+n+1) p_m^(n-1)(1)
    for m in range(65):
        table = coefficient_table(family, m).coeffs
        for n, derivative in enumerate(derivatives_at_one(family, m), start=1):
            assert table[n - 1] == (-1) ** (m + n + 1) * derivative, (family, m, n)


def test_construction_is_exact_and_deterministic_up_to_64():
    for m in range(65):
        a1 = chebyshev_coeffs(m)
        b1 = legendre_coeffs(m)
        assert len(a1.coeffs) == m + 1
        assert len(b1.coeffs) == m + 1
        assert all(isinstance(c, int) for c in a1.coeffs)
        assert all(isinstance(c, int) for c in b1.coeffs)
        assert chebyshev_coeffs(m).coeffs == a1.coeffs
        assert legendre_coeffs(m).coeffs == b1.coeffs


def test_legendre_parity_rules_cover_each_index_once():
    for m in range(0, 40):
        covered = set()
        if m % 2 == 0:
            covered.add(1)
            covered.update(range(3, m + 2, 2))
            covered.update(range(2, m + 1, 2))
        else:
            covered.update(range(2, m + 2, 2))
            covered.update(range(1, m + 1, 2))
        assert covered == set(range(1, m + 2))
        # the binomial arguments of the two rules are integers on their branches
        for n in range(1, m + 2):
            if (m + n) % 2 == 1 and n != 1:
                assert (m + n - 3) % 2 == 0
            elif (m + n) % 2 == 0:
                assert (m + n) % 2 == 0 and (m - n) % 2 == 0


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 8])
def test_tables_reproduce_the_transform_integral(family, m):
    # evaluate the closed form directly from the raw integers and compare
    # against quadrature of the defining integral; |lam| stays above the
    # degree so the plain alternating sum is still well conditioned
    table = coefficient_table(family, m).coeffs
    for lam in (m + 1.5, m + 4.0, (m + 2) * (2 + 1j) / abs(2 + 1j), -(m + 3) - 0.5j):
        lam = complex(lam)
        total = 0j
        for n in range(1, m + 2):
            term = (1j * lam) ** (-n)
            total += table[n - 1] * (
                cmath.exp(1j * lam) * term + (-1) ** (n + m) * cmath.exp(-1j * lam) * term
            )
        reference = quad_transform(family, m, lam)
        assert abs(total - reference) <= 1e-11 * (1 + abs(reference))


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        chebyshev_coeffs(-1)
    with pytest.raises(ValueError):
        legendre_coeffs(-2)


def test_csv_dump_format():
    text = coefficients_csv(chebyshev_coeffs(1))
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1] == "chebyshev,1,1,-1"
    assert lines[2] == "chebyshev,1,2,1"
    assert coefficients_csv(legendre_coeffs(0)).strip().split("\n")[1] == "legendre,0,1,1"
    # huge entries print as exact decimal integers
    big = coefficients_csv(legendre_coeffs(40)).strip().split("\n")[-1]
    assert big == f"legendre,40,41,{legendre_coeffs(40).coeffs[40]}"
