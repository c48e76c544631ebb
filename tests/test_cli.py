import math
import re
from collections import Counter

import numpy as np
import pytest

from fourpoly import checks, helmholtz, transforms
from fourpoly.checks import CHECKS
from fourpoly.cli import main, run_study
from fourpoly.complexfmt import format_complex, parse_complex
from fourpoly.helmholtz import REPORT_CSV_HEADER
from fourpoly.oracle import quad_transform


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# complex literal round-trip
# ---------------------------------------------------------------------------


def test_complex_format_and_parse_roundtrip():
    assert format_complex(2.0) == "2+0i"
    assert parse_complex("2+0i") == 2.0
    assert parse_complex("-1.5-2.25i") == complex(-1.5, -2.25)
    assert parse_complex("3") == 3.0
    for z in (0.1 - 7.25j, complex(-1e-6, 3e22), complex(5, -0.0)):
        assert parse_complex(format_complex(z)) == z
    with pytest.raises(ValueError):
        parse_complex("abc")
    with pytest.raises(ValueError):
        parse_complex("1+2j")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def test_coeffs_stdout(capsys):
    code, out, _ = run(capsys, "coeffs", "--family", "chebyshev", "--m", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines == ["family,m,n,coefficient", "chebyshev,1,1,-1", "chebyshev,1,2,1"]
    code, out, _ = run(capsys, "coeffs", "--family", "legendre", "--m", "0")
    assert code == 0
    assert out.strip().split("\n")[1] == "legendre,0,1,1"


def test_coeffs_to_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run(capsys, "coeffs", "--family", "legendre", "--m", "3", "--out", str(target))
    assert code == 0 and out == ""
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "family,m,n,coefficient"
    assert len(lines) == 5
    for line in lines[1:]:
        family, m, n, coeff = line.split(",")
        assert family == "legendre" and int(m) == 3
        int(n), int(coeff)


def test_coeffs_negative_degree_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["coeffs", "--family", "legendre", "--m", "-1"])
    assert excinfo.value.code == 2


def test_coeffs_unwritable_path(capsys):
    code, _, err = run(capsys, "coeffs", "--family", "legendre", "--m", "1",
                       "--out", "/nonexistent-dir/x.csv")
    assert code == 2
    assert err


def test_eval_zero_lambda(capsys):
    code, out, _ = run(capsys, "eval", "--family", "legendre", "--m", "0", "--lambda", "0+0i")
    assert code == 0
    assert out.strip() == "2+0i ZeroLambda"


def test_eval_near_pi(capsys):
    code, out, _ = run(capsys, "eval", "--family", "chebyshev", "--m", "0",
                       "--lambda", "3.14159265358979+0i")
    assert code == 0
    value_text, path = out.strip().split()
    assert path == "ClosedForm"
    assert abs(parse_complex(value_text)) < 1e-13


def test_eval_series_path_matches_oracle(capsys):
    code, out, _ = run(capsys, "eval", "--family", "legendre", "--m", "5", "--lambda", "0.001+0i")
    assert code == 0
    value_text, path = out.strip().split()
    assert path == "SmallLambdaSeries"
    ref = quad_transform("legendre", 5, 1e-3)
    assert abs(parse_complex(value_text) - ref) <= 1e-12


def test_eval_at_degree_160_where_the_closed_form_overflows(capsys):
    code, out, _ = run(capsys, "eval", "--family", "legendre", "--m", "160", "--lambda=161")
    assert code == 0
    value_text, path = out.strip().split()
    assert path == "ClosedForm"
    assert parse_complex(value_text) == transforms.legendre_hat(160, 161.0).value


@pytest.mark.parametrize("argv, text", [
    (["eval", "--family", "legendre", "--m", "400", "--lambda=0-712i"], "3.9664432680712416e+258+0i ClosedForm"),
    (["eval", "--family", "legendre", "--m", "1000", "--lambda=20000"], "4.9601758259307599e-05+0i ClosedForm"),
    (["eval", "--family", "legendre", "--m", "20", "--lambda=60"], "0.02222491792804655+0i ClosedForm"),
    (["eval", "--family", "legendre", "--m", "20", "--lambda=0+120i"], "1.8828922012198369e+49+0i ClosedForm"),
    (["eval", "--family", "legendre", "--m", "20", "--lambda=22+3i"],
     "0.20795979505640688+0.092779282235190413i ClosedForm"),
    (["eval", "--family", "chebyshev", "--m", "5", "--lambda=7"], "0-0.72367601280416805i ClosedForm"),
    (["bessel", "--m", "1", "--lambda=1+0i"], "0.24029783912342698+0i"),
    (["bessel", "--m", "20", "--lambda=30+0i"], "-0.064292512919191275+0i"),
    (["bessel", "--m", "20", "--lambda=22+3i"], "0.3782250449238817+0.20048107061259943i"),
], ids=["olver-712i", "forward-20000", "closed-60", "closed-120i", "olver-22+3i", "chebyshev-zero-sign",
        "bessel-closed-1", "bessel-forward-30", "bessel-olver-22+3i"])
def test_eval_and_bessel_print_exact_text(argv, text, capsys):
    # the same strings as the numpy-free CI job; the chebyshev case pins the sign of an exact zero part
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == text + "\n"


def test_eval_parse_failure(capsys):
    code, _, err = run(capsys, "eval", "--family", "legendre", "--m", "1", "--lambda", "nope")
    assert code == 2
    assert "complex" in err


def test_bessel_subcommand(capsys):
    code, out, _ = run(capsys, "bessel", "--m", "0", "--lambda", "1.5707963267948966+0i")
    assert code == 0
    assert abs(parse_complex(out.strip()) - 2.0 / math.pi) <= 1e-12


def test_verify_enforces_each_checks_own_tolerance(capsys, monkeypatch):
    # a relative 1e-11 error at m = 2 on the negative real axis is within the
    # 1e-9 and 1e-10 of the oracle, recurrence and route checks, but not the
    # 1e-12 of parity and conjugation
    exact = transforms.transform_hat

    def off_on_negative_axis(family, m, lam):
        result = exact(family, m, lam)
        if m == 2 and lam.imag == 0 and lam.real < 0:
            return result._replace(value=result.value * (1 + 1e-11))
        return result

    monkeypatch.setattr(transforms, "transform_hat", off_on_negative_axis)
    code, out, _ = run(capsys, "verify", "--max-m", "3")
    assert code == 1
    failing = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert [line.split(":")[0] for line in failing] == ["FAIL parity", "FAIL conjugation"]
    assert all(", m=2, lam=" in line for line in failing)  # failing locations are reported
    assert out.endswith("verify: FAILURES (max-m=3)\n")


def test_registry_pins_each_checks_tolerance():
    # acceptance criteria 1 (exact), 2 and 3 (1e-9), 4 and 5 (1e-10), 6 (1e-12)
    assert {name: tol for name, (_, tol) in CHECKS.items()} == {
        "zero_lambda_values": 0.0, "paper_tables": 0.0,
        "oracle_agreement": 1e-9, "legendre_recurrence": 1e-9, "kernel_recurrence": 1e-9,
        "kernel_route": 1e-10, "bessel_route": 1e-10, "bessel_classical": 1e-10,
        "parity": 1e-12, "conjugation": 1e-12, "realness": 1e-12,
        "quadrature_rule": 1e-9,
    }
    assert checks.run_check("parity", 0).tol == 1e-12


def test_verify_trivial_at_degree_zero(capsys):
    code, out, _ = run(capsys, "verify", "--max-m", "0")
    assert code == 0


def test_verify_prints_one_line_per_registry_check(capsys):
    # bench/workloads.py parses this format and keys its known failure on `kernel_route`
    code, out, _ = run(capsys, "verify", "--max-m", "3")
    assert code == 0
    lines = out.splitlines()
    names = []
    for line in lines[:-1]:
        match = re.fullmatch(r"(PASS|FAIL) (\w+): max residual (\S+) at (.+)", line)
        assert match, line
        float(match.group(3))
        names.append(match.group(2))
    assert names == list(CHECKS)
    assert "kernel_route" in names
    assert lines[-1] == "verify: all checks passed (max-m=3)"


def test_verify_fails_on_nan_residual(capsys, monkeypatch):
    exact = transforms.transform_hat

    def nan_at_one_point(family, m, lam):
        result = exact(family, m, lam)
        if m == 2 and lam == 1j:
            return result._replace(value=complex(math.nan, 0.0))
        return result

    monkeypatch.setattr(transforms, "transform_hat", nan_at_one_point)
    code, out, _ = run(capsys, "verify", "--max-m", "3")
    assert code == 1
    assert "FAIL oracle_agreement: max residual inf at" in out


def test_run_check_rejects_a_negative_degree():
    # m <= -5 covers no degree, so the check would read a vacuous pass
    with pytest.raises(ValueError, match="degree must be non-negative"):
        checks.run_check("oracle_agreement", -5)
    with pytest.raises(ValueError, match="degree must be non-negative"):
        checks.run_checks(-1)


@pytest.mark.parametrize("max_m", [3, 20])
def test_run_checks_matches_each_check_run_alone(max_m):
    assert checks.run_checks(max_m) == [checks.run_check(name, max_m) for name in CHECKS]


def test_run_checks_evaluates_each_transform_value_once(monkeypatch):
    exact = transforms.transform_hat
    seen = Counter()

    def counting(family, m, lam):
        seen[family, m, complex(lam)] += 1
        return exact(family, m, lam)

    monkeypatch.setattr(transforms, "transform_hat", counting)
    checks.run_checks(8)
    assert seen and max(seen.values()) == 1


def test_verify_default_degree_is_64(capsys, monkeypatch):
    degrees = []
    monkeypatch.setattr(checks, "run_checks", lambda max_m: degrees.append(max_m) or [])
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert degrees == [64]
    assert out == "verify: all checks passed (max-m=64)\n"


def test_solve_writes_report(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, _, _ = run(capsys, "solve", "--basis", "4", "--points", "8", "--out", str(target))
    assert code == 0
    lines = target.read_text().strip().split("\n")
    assert lines[0] == REPORT_CSV_HEADER
    fields = lines[1].split(",")
    assert int(fields[0]) == 4 and int(fields[1]) == 8
    assert float(fields[2]) < 1e-1


def test_solve_large_basis_row_meets_error_target(capsys):
    code, out, _ = run(capsys, "solve", "--basis", "20", "--points", "40")
    assert code == 0
    fields = out.strip().split("\n")[1].split(",")
    assert float(fields[2]) < 1e-10


def test_study_row_count_and_determinism(capsys):
    code, out1, _ = run(capsys, "study", "--basis", "4", "--factors", "0.5,1,1.5,2")
    assert code == 0
    lines = out1.strip().split("\n")
    assert lines[0] == REPORT_CSV_HEADER
    assert len(lines) == 5
    for line in lines[1:]:
        n, m, e_inf, cond, residual, _seconds = line.split(",")
        assert int(n) == 4
        assert int(m) in (2, 4, 6, 8)
        float(e_inf), float(cond), float(residual)
    code, out2, _ = run(capsys, "study", "--basis", "4", "--factors", "0.5,1,1.5,2")
    strip_seconds = lambda text: [l.rsplit(",", 1)[0] for l in text.strip().split("\n")]
    assert strip_seconds(out1) == strip_seconds(out2)


def test_solve_rejects_empty_basis(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["solve", "--basis", "0", "--points", "4"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("message", ["degenerate system: zero column", "SVD did not converge"],
                         ids=["zero-column", "svd"])
def test_solve_failure_exits_1(message, capsys, monkeypatch):
    def failing(n_basis, point_count):
        raise np.linalg.LinAlgError(message)

    monkeypatch.setattr(helmholtz, "solve", failing)
    code, out, err = run(capsys, "solve", "--basis", "4", "--points", "8")
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [["solve", "--basis", "4", "--points", "8"], ["study", "--basis", "4"]],
                         ids=["solve", "study"])
def test_solve_overflow_exits_1(argv, capsys, monkeypatch):
    def overflow(n_basis, point_count):
        raise OverflowError("collocation rows beyond the double range at lam=(704+0j)")

    monkeypatch.setattr(helmholtz, "solve", overflow)
    assert run(capsys, *argv) == (1, "", "error: collocation rows beyond the double range at lam=(704+0j)\n")


def test_eval_beyond_double_range_is_usage_error(capsys):
    code, out, err = run(capsys, "eval", "--family", "legendre", "--m", "0", "--lambda", "0+720i")
    assert (code, out) == (2, "") and "beyond the double range" in err


@pytest.mark.parametrize("argv, message", [
    (["eval", "--family", "legendre", "--m", "2", "--lambda=0-1000000i"],
     "transform value beyond the double range at m=2, lam=-1000000j"),
    (["bessel", "--m", "0", "--lambda", "0+720i"], "J_(m+1/2) beyond the double range at m=0, lam=720j"),
], ids=["eval", "bessel"])
def test_overflow_names_the_command_quantity(argv, message, capsys):
    # |Im lam| = 1e6 overflows e^{|Im lam| - 700} itself, and J_(1/2)(720i)
    # overflows in the transform already; both still name what was asked for
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_solve_too_few_points_is_usage_error(capsys):
    code, out, err = run(capsys, "solve", "--basis", "20", "--points", "5")
    assert code == 2 and out == ""
    assert err == "error: need at least ceil(N/2) collocation points\n"


def test_run_study_rejects_empty_basis_list():
    with pytest.raises(ValueError, match="basis sizes must be positive"):
        run_study([], [1.0])


def test_study_rejects_non_positive_factor(capsys):
    code, out, err = run(capsys, "study", "--basis", "4", "--factors", "0,1")
    assert code == 2 and out == ""
    assert "factors must be positive" in err


@pytest.mark.parametrize("factor", ["nan", "inf"])
def test_study_rejects_non_finite_factor(factor, capsys):
    with pytest.raises(ValueError, match="factors must be positive and finite"):
        run_study([4], [float(factor)])
    code, out, err = run(capsys, "study", "--basis", "4", "--factors", f"1,{factor}")
    assert code == 2 and out == ""
    assert err == "error: factors must be positive and finite\n"


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
