import cmath
import math
import re
import time
import warnings

import numpy as np
import pytest

from fourpoly import helmholtz
from fourpoly.coeffs import Family
from fourpoly.helmholtz import (
    CollocationSystem,
    NeumannExpansion,
    SQRT3,
    _cosh_integral,
    assemble_system,
    collocation_points,
    dirichlet_hat,
    dirichlet_trace,
    exact_neumann,
    relative_error_einf,
    scale_system,
    solve,
)
from fourpoly.oracle import _recurrence_pair, gauss_legendre_rule
from fourpoly.transforms import _sweep, legendre_hat, zero_lambda_value


def legendre(l, x):
    """P_l(x) by the quadrature oracle's three-term recurrence."""
    return _recurrence_pair(l, x, chebyshev=False)[0]


def frequencies(lam):
    """The two frequencies of a point, z1 = lam - 1/lam and z2 = i(lam + 1/lam)."""
    lam = complex(lam)
    return lam - 1.0 / lam, 1j * (lam + 1.0 / lam)


def legendre_sweep(n, mu):
    """The Legendre columns p_k-hat(mu), k < n, from one degree sweep, as assembly takes them."""
    return np.array(_sweep(1, n - 1, mu, 0))


def neumann_column(k, lam):
    """Contribution of Legendre mode k to N(lam), one scalar transform."""
    return legendre_hat(k, 1j * (lam + 1.0 / lam)).value


def exact_u(x, y):
    return np.cosh(x) * np.cosh(SQRT3 * y) + np.cosh(SQRT3 * x) * np.cosh(y)


# ---------------------------------------------------------------------------
# the error oracle itself
# ---------------------------------------------------------------------------


def test_exact_solution_satisfies_pde():
    # fourth-order finite-difference Laplacian on a 101x101 grid; the
    # discretization error of this stencil at h=0.02 stays below 1e-6
    grid = np.linspace(-1.0, 1.0, 101)
    h = grid[1] - grid[0]
    x, y = np.meshgrid(grid, grid, indexing="ij")
    u = exact_u(x, y)

    def d2_axis0(a):
        return (-a[:-4] + 16 * a[1:-3] - 30 * a[2:-2] + 16 * a[3:-1] - a[4:]) / (12 * h * h)

    u_xx = d2_axis0(u)[:, 2:-2]
    u_yy = d2_axis0(u.T)[:, 2:-2].T
    residual = u_xx + u_yy - 4.0 * u[2:-2, 2:-2]
    assert np.max(np.abs(residual)) <= 1e-6


def test_exact_solution_matches_boundary_data_on_all_sides():
    y = np.linspace(-1.0, 1.0, 33)
    trace = dirichlet_trace(y)
    assert np.max(np.abs(exact_u(-1.0, y) - trace)) <= 1e-14
    assert np.max(np.abs(exact_u(1.0, y) - trace)) <= 1e-14
    assert np.max(np.abs(exact_u(y, -1.0) - trace)) <= 1e-14
    assert np.max(np.abs(exact_u(y, 1.0) - trace)) <= 1e-14


def test_exact_neumann_values_and_symmetry():
    assert abs(exact_neumann(0.0) - (-(math.sinh(1.0) + SQRT3 * math.sinh(SQRT3)))) <= 1e-14
    expected_at_one = -(math.sinh(1.0) * math.cosh(SQRT3) + SQRT3 * math.sinh(SQRT3) * math.cosh(1.0))
    assert abs(exact_neumann(1.0) - expected_at_one) <= 1e-14
    y = np.linspace(0.0, 1.0, 17)
    assert np.max(np.abs(exact_neumann(y) - exact_neumann(-y))) == 0.0


def test_exact_neumann_agrees_with_finite_difference_of_u():
    h = 1e-3
    for y in (-0.7, 0.0, 0.31, 1.0):
        fd = (-exact_u(-1 + 2 * h, y) + 8 * exact_u(-1 + h, y)
              - 8 * exact_u(-1 - h, y) + exact_u(-1 - 2 * h, y)) / (12 * h)
        assert abs(fd - exact_neumann(y)) <= 1e-9


# ---------------------------------------------------------------------------
# boundary transforms
# ---------------------------------------------------------------------------


def test_cosh_integral_exact_zero_branch():
    # a - b = 0 exactly: int e^y cosh(y) dy = sinh(2)/2 + 1
    assert abs(_cosh_integral(1.0, 1.0) - (math.sinh(2.0) / 2.0 + 1.0)) <= 1e-15


def _dirichlet_quad(mu, nodes=80):
    """D^(mu) = int e^{-i mu y} u(-1, y) dy by a Gauss-Legendre rule."""
    rule = gauss_legendre_rule(nodes)
    return complex(np.sum(rule.weights * np.exp(-1j * mu * rule.nodes) * dirichlet_trace(rule.nodes)))


def test_dirichlet_hat_values():
    expected_at_zero = 2 * math.cosh(1.0) * math.sinh(SQRT3) / SQRT3 + 2 * math.cosh(SQRT3) * math.sinh(1.0)
    assert abs(dirichlet_hat(0) - expected_at_zero) <= 1e-13 * expected_at_zero
    for mu in (0, 2.0, -1.5, 3j, 0.7 + 0.9j):
        ref = _dirichlet_quad(complex(mu))
        assert abs(dirichlet_hat(mu) - ref) <= 1e-11 * (1 + abs(ref)), mu


def test_dirichlet_hat_near_removable_singularity():
    # at mu = +-i sqrt(3) and +-i the exponent a = -i mu is exactly +-sqrt(3)
    # or +-1, so one of a +- b vanishes and _sinhc takes its zero branch
    for mu in (1j * SQRT3, -1j * SQRT3, 1j, -1j):
        assert any(-1j * mu + s * b == 0 for s in (1, -1) for b in (SQRT3, 1.0)), mu
        ref = _dirichlet_quad(mu)
        assert abs(dirichlet_hat(mu) - ref) <= 1e-10 * (1 + abs(ref)), mu


def test_dirichlet_hat_domain_error():
    for mu in (complex(math.nan, 0.0), complex(0.0, math.inf), -math.inf):
        with pytest.raises(ValueError, match="mu"):
            dirichlet_hat(mu)
    # e^{|Im mu|} is beyond the double range, with cosh and sinh
    for mu in (709.5j, -800j, 1e308j):
        message = f"boundary transform beyond the double range at mu={complex(mu)}"
        with pytest.raises(OverflowError, match=re.escape(message)):
            dirichlet_hat(mu)
    # no 1/mu is taken, so tiny and huge real frequencies stay finite
    for mu in (1e-320j, 1e-320, 1e308):
        assert cmath.isfinite(dirichlet_hat(mu)), mu


def test_dirichlet_hat_is_even_under_mu_to_minus_mu_bitwise():
    # the relation at i lam reads D^(-z1); its row is the conjugate of the
    # row at conj(lam), which reads D^(z1) there (see the bitwise test below)
    rng = np.random.default_rng(11)
    mus = [*collocation_points(256), *(rng.uniform(-300, 300, 200) + 1j * rng.uniform(-300, 300, 200))]
    for mu in mus:
        assert np.complex128(dirichlet_hat(1j * mu)).tobytes() == np.complex128(dirichlet_hat(-1j * mu)).tobytes(), mu


@pytest.mark.parametrize("points", [[704.0], [709.0], [1e-320], [1.0, 704.0, 709.0]])
def test_assembly_beyond_the_double_range_names_the_first_such_point(points):
    # at 704 the right-hand side overflows, from 709 cos, sin and D^(z2)
    # raise a range error, and at 1e-320 the term 1/lam is infinite
    bad = next(p for p in points if p != 1.0)
    with pytest.raises(OverflowError, match=re.escape(f"lam={complex(bad)}")):
        assemble_system(8, points)


def test_neumann_hat_column_values():
    assert neumann_column(0, 1j) == 2.0
    assert neumann_column(3, 1j) == 0.0
    rule = gauss_legendre_rule(60)
    ref = complex(np.sum(rule.weights * np.exp(2.0 * rule.nodes) * legendre(2, rule.nodes)))
    assert abs(neumann_column(2, 1.0) - ref) <= 1e-10 * abs(ref)


# ---------------------------------------------------------------------------
# collocation points
# ---------------------------------------------------------------------------


def test_default_collocation_points():
    assert collocation_points(1) == [1.0]
    assert collocation_points(4) == [1.0, 2.0, 3.0, 4.0]
    assert collocation_points(8) == [1.0 + 0.5 * k for k in range(8)]
    # spacing floor: beyond 8 points the radii keep extending
    pts = collocation_points(40)
    assert pts[1] - pts[0] == 0.5
    assert pts[-1] == 1.0 + 39 * 0.5
    assert all(p != 0 for p in pts)
    with pytest.raises(ValueError):
        collocation_points(0)


def rotated_points(count, angles=(0.0, 0.6, 1.2)):
    """The default radii with the angles cycled, points off the real axis."""
    return [lam * cmath.exp(1j * angles[k % len(angles)]) for k, lam in enumerate(collocation_points(count))]


# ---------------------------------------------------------------------------
# assembly and scaling
# ---------------------------------------------------------------------------


def test_assemble_single_point_hand_value():
    # at lam = i the frequency lam + 1/lam vanishes, so the first basis
    # column reduces to cosh(2) * 2 + 1 * sinh(2) in both relations: in the
    # row at i, and in the other relation, the conjugate of the row at -i
    system = assemble_system(1, [1j])
    assert system.matrix.shape == (1, 1) and system.rhs.shape == (1,)
    other = assemble_system(1, [-1j])
    expected_entry = 2.0 * math.cosh(2.0) + math.sinh(2.0)
    expected_rhs = -2.0 * math.sinh(2.0) * (
        2 * math.cosh(1.0) * math.sinh(SQRT3) / SQRT3 + 2 * math.cosh(SQRT3) * math.sinh(1.0)
    )
    for entry, rhs in ((system.matrix[0, 0], system.rhs[0]), (other.matrix[0, 0].conj(), other.rhs[0].conj())):
        assert abs(entry - expected_entry) <= 1e-13 * expected_entry
        assert abs(rhs - expected_rhs) <= 1e-12 * abs(expected_rhs)


@pytest.mark.parametrize("n_basis", [1, 2, 20, 64])
@pytest.mark.parametrize("rule", [collocation_points, rotated_points], ids=["rule0", "rule1"])
def test_assembled_rows_match_scalar_columns(n_basis, rule):
    # the scalar column loop the sweep replaced is the reference, at the
    # turned point -i lam for row r and at i lam for the conjugate of the
    # row assembled at conj(lam)
    points = rule(40)
    system = assemble_system(n_basis, points)
    assert system.matrix.shape == (len(points), n_basis)
    conjugate = assemble_system(n_basis, [lam.conjugate() for lam in points]).matrix.conj()
    for r, lam in enumerate(points):
        c1 = cmath.cos(lam - 1.0 / lam)
        c2 = cmath.cos(1j * lam - 1.0 / (1j * lam))
        for rows, rot in ((system.matrix, -1j), (conjugate, 1j)):
            for col in range(n_basis):
                own = c1 * neumann_column(col, lam)
                rotated = c2 * neumann_column(col, rot * lam)
                got = rows[r, col]
                assert abs(got - (own + rotated)) <= 1e-12 * (1 + abs(own) + abs(rotated)), (r, rot, col)


@pytest.mark.parametrize("rule", [collocation_points, rotated_points], ids=["rule0", "rule1"])
def test_assembled_rhs_matches_quadrature(rule):
    # each frequency's factor z sin z pairs with the other frequency's
    # transform, in row r and in the conjugate of the row at conj(lam), whose
    # relation reads D^(-z1) = D^(z1) (the data are even in y)
    points = rule(40)
    system = assemble_system(1, points)
    conjugate = assemble_system(1, [lam.conjugate() for lam in points]).rhs.conj()
    for r, lam in enumerate(points):
        z1, z2 = frequencies(lam)
        first = z1 * cmath.sin(z1) * _dirichlet_quad(z2, 128)
        second = z2 * cmath.sin(z2) * _dirichlet_quad(z1, 128)
        for rhs in (system.rhs, conjugate):
            assert abs(rhs[r] - (first + second)) <= 1e-12 * (abs(first) + abs(second)), r


def test_columns_at_zero_frequency_are_exact():
    # z1 = 0 at lam = 1 and z2 = 0 at lam = i, where the degree sweep gives
    # the exact values bit for bit (signed zeros included): p_0 integrates to
    # 2 and the other Legendre modes to 0
    zeros = (frequencies(1.0)[0], frequencies(1j)[1])
    for n in (1, 2, 20, 64, 200):
        expected = np.zeros(n, dtype=complex)
        expected[0] = 2.0
        for mu in zeros:
            assert legendre_sweep(n, mu).tobytes() == expected.tobytes(), (n, mu)
    # the same sweep at a = 0, 1, 2: T_k, P_k (zero_lambda_value) and
    # U_k/(k+1), whose integral is 2/(k+1)^2 for even k and 0 for odd k
    exact = {
        0: [complex(float(zero_lambda_value(Family.CHEBYSHEV, k))) for k in range(200)],
        1: [complex(float(zero_lambda_value(Family.LEGENDRE, k))) for k in range(200)],
        2: [complex(0.0 if k % 2 else 2 / (k + 1) ** 2) for k in range(200)],
    }
    for a, values in exact.items():
        for n in (1, 2, 20, 64, 200):
            swept = np.array(_sweep(a, n - 1, 0j, 0))
            assert swept.tobytes() == np.array(values[:n]).tobytes(), (a, n)


def test_turned_columns_differ_by_parity_exactly():
    # p_k-hat(-mu) = (-1)^k p_k-hat(mu) bit for bit, and the frequency at
    # i lam is -z1, so the relation at i lam takes its columns from the z1 sweep
    rng = np.random.default_rng(11)
    randoms = rng.uniform(-20.0, 20.0, 40) + 1j * rng.uniform(-20.0, 20.0, 40)
    lams = [*collocation_points(40), *rotated_points(40), *randoms]
    parity = (-1.0) ** np.arange(40)
    for lam in lams:
        z1 = frequencies(lam)[0]
        assert np.array_equal(legendre_sweep(40, -z1), parity * legendre_sweep(40, z1)), lam


def test_second_relation_is_the_conjugate_row_at_conj_lam_exactly():
    # the relation at i lam reads N^(-z1) and D^(-z1); built as a second row
    # the way assembly once did (the z1 sweep times (-1)^k, and D^(z1)), it
    # equals the conjugate of the row assembled at conj(lam), so for a real
    # unknown it adds no equation that the point conj(lam) does not give
    rng = np.random.default_rng(31)
    lams = rng.uniform(0.2, 30.0, 300) * np.exp(1j * rng.uniform(-np.pi, np.pi, 300))
    parity = (-1.0) ** np.arange(24)
    for lam in map(complex, lams):
        z1 = lam - 1.0 / lam
        z2 = 1j * lam - 1.0 / (1j * lam)
        row = cmath.cos(z1) * legendre_sweep(24, z2) + parity * (cmath.cos(z2) * legendre_sweep(24, z1))
        rhs = z1 * cmath.sin(z1) * dirichlet_hat(z2) + z2 * cmath.sin(z2) * dirichlet_hat(z1)
        conjugate = assemble_system(24, [lam.conjugate()])
        assert np.array_equal(row, conjugate.matrix[0].conj()), lam
        assert rhs == conjugate.rhs[0].conjugate(), lam


def record_sweeps(monkeypatch):
    """Patch assembly's degree sweep to record each frequency it is called at."""
    calls = []
    sweep = helmholtz._sweep

    def recorded(a, m, mu, low):
        calls.append(mu)
        # a sweep sizes its table at about 2|mu| rows; fail instead of building it
        assert abs(mu) < 1e6, f"sweep at mu={mu}"
        return sweep(a, m, mu, low)

    monkeypatch.setattr(helmholtz, "_sweep", recorded)
    return calls


def test_assembly_sweeps_twice_per_point(monkeypatch):
    calls = record_sweeps(monkeypatch)
    points = rotated_points(12)
    assemble_system(8, points)
    expected = [z for lam in points for z in reversed(frequencies(lam))]  # z2, then z1
    assert np.array(calls).tobytes() == np.array(expected).tobytes()


def test_assembly_checks_a_point_before_sweeping_it(monkeypatch):
    # at lam = 1e-300 the z2 sweep raises a bare range error, so the point
    # must fail its range checks, which name it, before any sweep at it starts
    calls = record_sweeps(monkeypatch)
    with pytest.raises(OverflowError, match=re.escape(f"lam={complex(1e-300)}")):
        assemble_system(8, [1.0, 1e-300])
    assert np.array(calls).tobytes() == np.array(list(reversed(frequencies(1.0)))).tobytes()


def test_assemble_zero_dirichlet_data_gives_zero_rhs():
    system = assemble_system(3, [1.0, 2.0], dirichlet=lambda mu: 0.0)
    assert np.all(system.rhs == 0)
    assert np.any(system.matrix != 0)


def test_assemble_rejects_zero_point():
    with pytest.raises(ValueError):
        assemble_system(2, [1.0, 0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1.0, math.nan), complex(math.nan, math.inf)])
def test_assemble_rejects_non_finite_point_as_bad_input(bad):
    # a bad point, not a value beyond the double range: rejected before any row is swept
    def dirichlet(mu):
        raise AssertionError("no work before the points are checked")

    with pytest.raises(ValueError, match="collocation points must be finite and nonzero"):
        assemble_system(3, [1.0, bad], dirichlet=dirichlet)


def test_assemble_rejects_empty_basis_or_points():
    with pytest.raises(ValueError):
        assemble_system(0, [1.0])
    with pytest.raises(ValueError):
        assemble_system(2, [])


def test_small_system_has_full_numerical_rank():
    scaled, _ = scale_system(assemble_system(2, collocation_points(2)))
    singular = np.linalg.svd(scaled.matrix, compute_uv=False)
    assert singular[-1] > 1e-8


def test_scaling_identity_unchanged():
    eye = CollocationSystem(np.eye(2, dtype=complex), np.ones(2, dtype=complex))
    scaled, col_norms = scale_system(eye)
    assert np.allclose(col_norms, 1.0)
    assert np.array_equal(scaled.matrix, np.eye(2))
    assert np.array_equal(scaled.rhs, np.ones(2))


def test_scaling_uses_l1_norm_of_complex_entries():
    system = CollocationSystem(
        np.array([[3.0, 4.0j]], dtype=complex),
        np.array([1.0 + 0j]),
    )
    scaled, _ = scale_system(system)
    assert scaled.rhs[0] == 1.0 / 7.0


def test_scaling_degenerate_inputs():
    zero_row = CollocationSystem(
        np.array([[0.0, 0.0], [1.0, 2.0]], dtype=complex),
        np.zeros(2, dtype=complex),
    )
    with pytest.raises(np.linalg.LinAlgError):
        scale_system(zero_row)
    zero_col = CollocationSystem(
        np.array([[1.0, 0.0], [2.0, 0.0]], dtype=complex),
        np.zeros(2, dtype=complex),
    )
    with pytest.raises(np.linalg.LinAlgError):
        scale_system(zero_col)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solver_accuracy_progression():
    errors = {}
    for n, m in ((4, 8), (8, 16), (12, 24), (20, 40)):
        expansion, report = solve(n, m)
        errors[n] = report.e_inf
        assert report.e_inf >= 0
        assert report.cond >= 1
        assert report.basis_size == n and report.point_count == m
    assert errors[4] < 1e-1
    assert errors[12] < 1e-6
    assert errors[20] < 1e-10
    assert errors[4] > errors[8] > errors[12] > errors[20]


def test_report_states_numerical_rank():
    _, report = solve(20, 40)
    assert report.rank == 20


@pytest.mark.parametrize("n, m", [(12, 24), (20, 40), (64, 256)])
def test_real_solve_matches_complex_lstsq_of_both_relations(n, m):
    # the reference keeps both relations at each real point as complex rows,
    # [S; conj S], and the real part of their complex least-squares solution
    scaled, col_norms = scale_system(assemble_system(n, collocation_points(m)))
    stacked = np.concatenate((scaled.matrix, scaled.matrix.conj()))
    rhs = np.concatenate((scaled.rhs, scaled.rhs.conj()))
    solution, _, rank, singular = np.linalg.lstsq(stacked, rhs, rcond=None)
    reference = solution.real / col_norms
    expansion, report = solve(n, m)
    assert np.linalg.norm(expansion.coefficients - reference) <= 1e-8 * np.linalg.norm(reference)
    assert abs(report.cond - singular[0] / singular[-1]) <= 1e-6 * report.cond
    assert report.rank == rank


def test_solver_requires_enough_points():
    with pytest.raises(ValueError):
        solve(4, 1)
    with pytest.raises(ValueError):
        solve(9, 4)
    with pytest.raises(ValueError, match="need at least one basis function"):  # from assemble_system
        solve(0, 3)


def test_well_posed_solves_do_not_warn():
    # with M = 2N these sizes resolve q: cond * residual stays below 1e-8
    for n, m in ((12, 24), (16, 32), (20, 40)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve(n, m)
        assert not caught, (n, m)


@pytest.mark.parametrize("n, m", [(16, 16), (20, 20), (24, 24), (24, 36), (32, 48), (48, 96), (64, 128)])
def test_under_resolved_solves_warn(n, m):
    # sizes where the rank is full, or at (64, 128) one short, but the
    # condition number times the residual exceeds 1e-8
    with pytest.warns(UserWarning, match="under-resolved"):
        solve(n, m)


def test_half_point_count_runs_but_degrades():
    # at M = N/2 the imaginary row at lam = 1 is zero, so the system is
    # rank-deficient and warns
    with pytest.warns(UserWarning, match="under-resolved"):
        _, under = solve(16, 8)
    assert under.rank < 16
    _, over = solve(16, 32)
    assert under.e_inf > over.e_inf
    assert under.cond > over.cond


def test_singular_system_reports_cond_of_one_over_eps():
    # at (4, 2) the smallest singular value is below eps times the largest
    # (here it is 0.0); cond stays finite, as the CSV row of every study cell
    # must be, and the solve warns
    with pytest.warns(UserWarning, match="under-resolved"):
        _, report = solve(4, 2)
    assert report.cond == 1.0 / np.finfo(float).eps
    assert report.rank == 3


def test_odd_modes_come_out_near_zero():
    # the data is even in y, and the pair of global relations forces the odd
    # coefficients to zero without restricting the basis
    expansion, _ = solve(16, 32)
    coeffs = expansion.coefficients
    assert np.max(np.abs(coeffs[1::2])) <= 1e-10 * np.max(np.abs(coeffs))


def test_global_relation_residual_at_non_collocated_points():
    expansion, report = solve(16, 32)
    c = expansion.coefficients.astype(complex)
    for lam in np.linspace(1.1, 4.9, 50):
        # the row at lam, and the other relation: the conjugate of the row at conj(lam)
        single = assemble_system(16, [complex(lam)])
        other = assemble_system(16, [complex(lam).conjugate()])
        for row, rhs in ((single.matrix[0], single.rhs[0]), (other.matrix[0].conj(), other.rhs[0].conj())):
            norm = np.sum(np.abs(row))
            residual = abs(np.dot(row, c) - rhs) / norm
            assert residual <= 10.0 * report.residual_norm, lam


# ---------------------------------------------------------------------------
# error functional
# ---------------------------------------------------------------------------


def _projection_coefficients(n):
    rule = gauss_legendre_rule(80)
    values = exact_neumann(rule.nodes)
    return np.array([
        (2 * l + 1) / 2.0 * float(np.sum(rule.weights * values * legendre(l, rule.nodes)))
        for l in range(n)
    ])


def test_einf_of_exact_projection_is_tiny():
    expansion = NeumannExpansion(_projection_coefficients(20))
    assert relative_error_einf(expansion) < 1e-10


def test_einf_of_zero_expansion_is_one():
    assert relative_error_einf(NeumannExpansion(np.zeros(5))) == 1.0


def test_reconstruct_matches_direct_legendre_sum():
    coeffs = np.array([0.3, -1.2, 0.0, 2.5, -0.7])
    expansion = NeumannExpansion(coeffs)
    y = np.linspace(-1, 1, 7)
    direct = sum(c * legendre(l, y) for l, c in enumerate(coeffs))
    assert np.max(np.abs(expansion.reconstruct(y) - direct)) <= 1e-14


def test_empty_expansion_reconstructs_to_zeros():
    y = np.linspace(-1, 1, 5)
    assert np.array_equal(NeumannExpansion(np.zeros(0)).reconstruct(y), np.zeros(5))


# each stage time of a solve report and the function that stage calls
STAGES = {
    "assembly_s": "assemble_system",
    "scale_s": "scale_system",
    "lstsq_s": "lstsq",
    "error_s": "relative_error_einf",
}


@pytest.mark.parametrize("field", STAGES)
def test_report_times_each_stage_within_the_total(monkeypatch, field):
    # a stage held up by 20 ms shows in its own field; the four sum to `seconds`
    owner = np.linalg if STAGES[field] == "lstsq" else helmholtz
    stage = getattr(owner, STAGES[field])

    def held(*args, **kwargs):
        time.sleep(0.02)
        return stage(*args, **kwargs)

    monkeypatch.setattr(owner, STAGES[field], held)
    _, report = solve(8, 16)
    times = [getattr(report, name) for name in STAGES]
    assert all(t >= 0.0 for t in times), times
    assert getattr(report, field) >= 0.02, times
    assert sum(times) <= report.seconds, (times, report.seconds)


def test_report_csv_row_format():
    _, report = solve(4, 8)
    row = report.csv_row()
    parts = row.split(",")
    assert len(parts) == 6
    assert int(parts[0]) == 4 and int(parts[1]) == 8
    for part in parts[2:]:
        float(part)
        assert "e" in part
