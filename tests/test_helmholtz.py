import cmath
import math
import warnings

import numpy as np
import pytest

from fourpoly.helmholtz import (
    DegenerateSystemError,
    CollocationSystem,
    NeumannExpansion,
    RayRule,
    SQRT3,
    _cosh_integral,
    assemble_system,
    collocation_points,
    dirichlet_hat,
    dirichlet_trace,
    exact_neumann,
    neumann_hat_column,
    relative_error_einf,
    scale_system,
    solve,
)
from fourpoly.oracle import eval_legendre, gauss_legendre_rule


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


def _dirichlet_quad(lam):
    rule = gauss_legendre_rule(80)
    a = lam + 1.0 / lam
    return complex(np.sum(rule.weights * np.exp(a * rule.nodes) * dirichlet_trace(rule.nodes)))


def test_dirichlet_hat_values():
    expected_at_i = 2 * math.cosh(1.0) * math.sinh(SQRT3) / SQRT3 + 2 * math.cosh(SQRT3) * math.sinh(1.0)
    assert abs(dirichlet_hat(1j) - expected_at_i) <= 1e-13 * expected_at_i
    for lam in (1.0, 2.5, 1j, 0.7 + 0.9j):
        ref = _dirichlet_quad(complex(lam))
        assert abs(dirichlet_hat(lam) - ref) <= 1e-11 * (1 + abs(ref))


def test_dirichlet_hat_near_removable_singularity():
    # lam + 1/lam passes through sqrt(3), where one denominator vanishes
    lam = complex(SQRT3 / 2.0, 0.5)
    ref = _dirichlet_quad(lam)
    assert abs(dirichlet_hat(lam) - ref) <= 1e-10 * (1 + abs(ref))


def test_dirichlet_hat_domain_error():
    with pytest.raises(ValueError):
        dirichlet_hat(0.0)


def test_neumann_hat_column_values():
    assert neumann_hat_column(0, 1j) == 2.0
    assert neumann_hat_column(3, 1j) == 0.0
    rule = gauss_legendre_rule(60)
    ref = complex(np.sum(rule.weights * np.exp(2.0 * rule.nodes) * eval_legendre(2, rule.nodes)))
    assert abs(neumann_hat_column(2, 1.0) - ref) <= 1e-10 * abs(ref)
    with pytest.raises(ValueError):
        neumann_hat_column(1, 0.0)


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


def test_ray_rule_angles_cycle():
    rule = RayRule(angles=(0.0, math.pi))
    pts = collocation_points(4, rule)
    assert pts[0] == 1.0
    assert abs(pts[1] - 2.0 * cmath.exp(1j * math.pi)) <= 1e-15
    assert abs(pts[3] + 4.0) <= 1e-15
    with pytest.raises(ValueError):
        collocation_points(0)


# ---------------------------------------------------------------------------
# assembly and scaling
# ---------------------------------------------------------------------------


def test_assemble_single_point_hand_value():
    # at lam = i the frequency lam + 1/lam vanishes, so the first basis
    # column reduces to cosh(2) * 2 + 1 * sinh(2) in both relation rows
    system = assemble_system(1, [1j])
    expected_entry = 2.0 * math.cosh(2.0) + math.sinh(2.0)
    assert abs(system.matrix[0, 0] - expected_entry) <= 1e-13 * expected_entry
    assert abs(system.matrix[1, 0] - expected_entry) <= 1e-13 * expected_entry
    expected_rhs = -2.0 * math.sinh(2.0) * (
        2 * math.cosh(1.0) * math.sinh(SQRT3) / SQRT3 + 2 * math.cosh(SQRT3) * math.sinh(1.0)
    )
    assert abs(system.rhs[0] - expected_rhs) <= 1e-12 * abs(expected_rhs)
    assert abs(system.rhs[1] - expected_rhs) <= 1e-12 * abs(expected_rhs)


def test_assemble_zero_dirichlet_data_gives_zero_rhs():
    system = assemble_system(3, [1.0, 2.0], dirichlet=lambda lam: 0.0)
    assert np.all(system.rhs == 0)
    assert np.any(system.matrix != 0)


def test_assemble_rejects_zero_point():
    with pytest.raises(ValueError):
        assemble_system(2, [1.0, 0.0])


def test_small_system_has_full_numerical_rank():
    system = scale_system(assemble_system(2, collocation_points(2)))
    singular = np.linalg.svd(system.scaled_matrix, compute_uv=False)
    assert singular[-1] > 1e-8


def test_scaling_identity_unchanged():
    eye = CollocationSystem((1.0 + 0j,), np.eye(2, dtype=complex), np.ones(2, dtype=complex))
    scaled = scale_system(eye)
    assert np.allclose(scaled.row_scale, 1.0)
    assert np.allclose(scaled.col_scale, 1.0)
    assert np.array_equal(scaled.scaled_matrix, np.eye(2))


def test_scaling_uses_l1_norm_of_complex_entries():
    system = CollocationSystem(
        (1.0 + 0j,),
        np.array([[3.0, 4.0j]], dtype=complex),
        np.array([1.0 + 0j]),
    )
    scaled = scale_system(system)
    assert scaled.row_scale[0] == 7.0


def test_scaling_postconditions_on_real_system():
    system = scale_system(assemble_system(8, collocation_points(16)))
    row_normed = system.matrix / system.row_scale[:, None]
    assert np.max(np.abs(np.sum(np.abs(row_normed), axis=1) - 1.0)) <= 1e-14
    col_l1 = np.sum(np.abs(system.scaled_matrix), axis=0)
    assert np.max(np.abs(col_l1 - 1.0)) <= 1e-14
    assert np.all(system.row_scale > 0)
    assert np.all(system.col_scale > 0)


def test_scaling_degenerate_inputs():
    zero_row = CollocationSystem(
        (1.0 + 0j,),
        np.array([[0.0, 0.0], [1.0, 2.0]], dtype=complex),
        np.zeros(2, dtype=complex),
    )
    with pytest.raises(DegenerateSystemError):
        scale_system(zero_row)
    zero_col = CollocationSystem(
        (1.0 + 0j,),
        np.array([[1.0, 0.0], [2.0, 0.0]], dtype=complex),
        np.zeros(2, dtype=complex),
    )
    with pytest.raises(DegenerateSystemError):
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


def test_solver_requires_enough_points():
    with pytest.raises(ValueError):
        solve(4, 1)
    with pytest.raises(ValueError):
        solve(9, 4)


def test_well_posed_solve_has_real_coefficients():
    # the underlying unknown is real; with M = 2N no imaginary-residue
    # warning fires, i.e. the imaginary norm stays below 1e-8
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve(12, 24)
    assert not caught


def test_half_point_count_runs_but_degrades():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, under = solve(16, 8)
    _, over = solve(16, 32)
    assert under.e_inf > over.e_inf
    assert under.cond > over.cond


def test_overdetermination_improves_conditioning():
    for n in (8, 16, 24):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, under = solve(n, n // 2)
        _, over = solve(n, 2 * n)
        assert over.cond <= under.cond


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
        single = assemble_system(16, [complex(lam)])
        for r in range(2):
            row = single.matrix[r]
            norm = np.sum(np.abs(row))
            residual = abs(np.dot(row, c) - single.rhs[r]) / norm
            assert residual <= 10.0 * report.residual_norm, lam


def test_spectral_decay_between_small_and_medium_basis():
    _, small = solve(4, 8)
    _, medium = solve(16, 32)
    assert medium.e_inf <= 1e-3 * small.e_inf


# ---------------------------------------------------------------------------
# error functional
# ---------------------------------------------------------------------------


def _projection_coefficients(n):
    rule = gauss_legendre_rule(80)
    values = exact_neumann(rule.nodes)
    return np.array([
        (2 * l + 1) / 2.0 * float(np.sum(rule.weights * values * eval_legendre(l, rule.nodes)))
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
    direct = sum(c * eval_legendre(l, y) for l, c in enumerate(coeffs))
    assert np.max(np.abs(expansion.reconstruct(y) - direct)) <= 1e-14


def test_empty_expansion_reconstructs_to_zeros():
    y = np.linspace(-1, 1, 5)
    assert np.array_equal(NeumannExpansion(np.zeros(0)).reconstruct(y), np.zeros(5))


def test_report_csv_row_format():
    _, report = solve(4, 8)
    row = report.csv_row()
    parts = row.split(",")
    assert len(parts) == 6
    assert int(parts[0]) == 4 and int(parts[1]) == 8
    for part in parts[2:]:
        float(part)
        assert "e" in part
