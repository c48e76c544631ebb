import dataclasses
import math
import re

import pytest

from fourpoly import checks, transforms
from fourpoly.checks import CHECKS
from fourpoly.cli import main
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


def test_eval_parse_failure(capsys):
    code, _, err = run(capsys, "eval", "--family", "legendre", "--m", "1", "--lambda", "nope")
    assert code == 2
    assert "complex" in err


def test_bessel_subcommand(capsys):
    code, out, _ = run(capsys, "bessel", "--m", "0", "--lambda", "1.5707963267948966+0i")
    assert code == 0
    assert abs(parse_complex(out.strip()) - 2.0 / math.pi) <= 1e-12


def test_verify_passes_at_spec_tolerance(capsys):
    code, out, _ = run(capsys, "verify", "--max-m", "3", "--tol", "1e-9")
    assert code == 0
    assert "FAIL" not in out
    assert "oracle_agreement" in out


def test_verify_fails_below_roundoff(capsys):
    code, out, _ = run(capsys, "verify", "--max-m", "3", "--tol", "1e-16")
    assert code == 1
    assert "FAIL" in out
    assert "m=" in out  # failing locations are reported


def test_verify_trivial_at_degree_zero(capsys):
    code, out, _ = run(capsys, "verify", "--max-m", "0", "--tol", "1e-9")
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
    assert lines[-1] == "verify: all checks passed (max-m=3, tol=1e-09)"


def test_verify_fails_on_nan_residual(capsys, monkeypatch):
    exact = transforms.transform_hat

    def nan_at_one_point(family, m, lam):
        result = exact(family, m, lam)
        if m == 2 and lam == 1j:
            return dataclasses.replace(result, value=complex(math.nan, 0.0))
        return result

    monkeypatch.setattr(transforms, "transform_hat", nan_at_one_point)
    code, out, _ = run(capsys, "verify", "--max-m", "3")
    assert code == 1
    assert "FAIL oracle_agreement: max residual inf at" in out


def test_verify_default_degree_is_64(capsys, monkeypatch):
    degrees = []
    monkeypatch.setattr(checks, "run_checks", lambda max_m: degrees.append(max_m) or [])
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert degrees == [64]
    assert out == "verify: all checks passed (max-m=64, tol=1e-09)\n"


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_verify_rejects_bad_tolerance(tol, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--max-m", "0", "--tol", tol])
    assert excinfo.value.code == 2


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


def test_study_rejects_non_positive_factor(capsys):
    code, out, err = run(capsys, "study", "--basis", "4", "--factors", "0,1")
    assert code == 2 and out == ""
    assert "factors must be positive" in err


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
