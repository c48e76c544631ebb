"""Command-line surface: coefficient dumps, point evaluations, verification
sweeps, single solves and convergence/conditioning studies with CSV output.

Exit codes: 0 success, 1 check or solve failure, 2 usage/IO error.
"""
from __future__ import annotations

import argparse
import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import bessel, helmholtz, oracle, transforms
from .coeffs import Family, coefficient_table, coefficients_csv
from .complexfmt import format_complex, parse_complex

__all__ = ["main", "StudyConfig", "run_study", "run_verification"]

DEFAULT_FACTORS = (0.5, 1.0, 1.5, 2.0)


# ---------------------------------------------------------------------------
# verification sweep
# ---------------------------------------------------------------------------


def _oracle_grid(m: int) -> list[complex]:
    reals = [0.5, 1.0, 2.0, float(m + 1), float(m + 5), m - 0.5, m / 2]
    grid = [complex(v) for v in reals] + [complex(-v) for v in reals]
    grid += [1j, -1j, 2j, 1 + 1j, 3 - 2j, complex(1e-3), 1e-6 * (1 + 1j)]
    return grid


def _closed_grid(m: int) -> list[complex]:
    phases = [1.0, -1.0, 1j, (1 + 1j) / abs(1 + 1j)]
    return [p * r for r in (m + 2.0, m + 6.0, 2.0 * m + 40.0) for p in phases]


@dataclass
class CheckResult:
    name: str
    worst: float
    where: str

    def passed(self, tol: float) -> bool:
        return self.worst <= tol


def _track(worst, where, residual, location):
    if residual > worst:
        return residual, location
    return worst, where


def _check_zero_values(max_m: int) -> CheckResult:
    worst, where = 0.0, "-"
    for fam in Family:
        for m in range(max_m + 1):
            expected = float(transforms.zero_lambda_value(fam, m))
            got = transforms.transform_hat(fam, m, 0.0).value
            bad = 0.0 if got == complex(expected) else 1.0
            worst, where = _track(worst, where, bad, f"({fam.value}, m={m}, lam=0)")
    return CheckResult("zero_lambda_values", worst, where)


def _check_oracle_agreement(max_m: int) -> CheckResult:
    worst, where = 0.0, "-"
    for fam in Family:
        for m in range(max_m + 1):
            for lam in _oracle_grid(m):
                ref = oracle.quad_transform(fam, m, lam)
                got = transforms.transform_hat(fam, m, lam).value
                res = abs(got - ref) / (1.0 + abs(ref))
                worst, where = _track(worst, where, res, f"({fam.value}, m={m}, lam={lam})")
    return CheckResult("oracle_agreement", worst, where)


def _check_parity(max_m: int) -> CheckResult:
    worst, where = 0.0, "-"
    for fam in Family:
        for m in range(max_m + 1):
            for lam in _oracle_grid(m):
                plus = transforms.transform_hat(fam, m, lam).value
                minus = transforms.transform_hat(fam, m, -lam).value
                ref = (-1) ** m * plus
                denom = max(abs(plus), abs(minus), 1e-300)
                worst, where = _track(worst, where, abs(minus - ref) / denom,
                                       f"({fam.value}, m={m}, lam={lam})")
    return CheckResult("parity", worst, where)


def _check_conjugation(max_m: int) -> CheckResult:
    worst, where = 0.0, "-"
    for m in range(max_m + 1):
        for lam in [0.5, 1.0, 2.0, m + 1.0, m + 5.0]:
            plus = transforms.legendre_hat(m, lam).value
            minus = transforms.legendre_hat(m, -lam).value
            denom = max(abs(plus), abs(minus), 1e-300)
            worst, where = _track(worst, where, abs(plus.conjugate() - minus) / denom,
                                   f"(legendre, m={m}, lam={lam})")
    return CheckResult("conjugation", worst, where)


def _check_realness(max_m: int) -> CheckResult:
    worst, where = 0.0, "-"
    rot = (1.0, 1j, -1.0, -1j)
    for m in range(max_m + 1):
        for lam in [0.5, 1.0, 2.0, m + 1.0, m + 5.0]:
            value = transforms.legendre_hat(m, lam).value * rot[m % 4]
            denom = max(abs(value), 1e-300)
            worst, where = _track(worst, where, abs(value.imag) / denom,
                                   f"(legendre, m={m}, lam={lam})")
    return CheckResult("realness", worst, where)


def _check_legendre_recurrence(max_m: int) -> CheckResult:
    worst, where = 0.0, "-"
    for m in range(1, max_m + 1):
        for lam in _closed_grid(m + 1):
            up = transforms.legendre_hat(m + 1, lam).value
            mid = transforms.legendre_hat(m, lam).value
            down = transforms.legendre_hat(m - 1, lam).value
            resid = up + (1j / lam) * (2 * m + 1) * mid - down
            denom = max(abs(up), abs((2 * m + 1) * mid / abs(lam)), abs(down), 1e-300)
            worst, where = _track(worst, where, abs(resid) / denom, f"(m={m}, lam={lam})")
    return CheckResult("legendre_recurrence", worst, where)


def _check_kernel_recurrence(max_m: int) -> CheckResult:
    worst, where = 0.0, "-"
    for m in range(1, max_m + 1):
        for z in _closed_grid(m + 1):
            up = transforms.exp_cos_sine_integral(m + 1, z)
            mid = transforms.exp_cos_sine_integral(m, z)
            down = transforms.exp_cos_sine_integral(m - 1, z)
            drive = (2.0 / z) * (cmath.exp(z) + (-1) ** (m - 1) * cmath.exp(-z))
            resid = up + (2.0 * m / z) * mid - down - drive
            denom = max(abs(up), abs(2.0 * m / z * mid), abs(down), abs(drive), 1e-300)
            worst, where = _track(worst, where, abs(resid) / denom, f"(m={m}, z={z})")
    return CheckResult("kernel_recurrence", worst, where)


def _check_kernel_route(max_m: int) -> CheckResult:
    worst, where = 0.0, "-"
    for m in range(max_m + 1):
        for lam in _closed_grid(m):
            direct = transforms.chebyshev_hat(m, lam).value
            via = transforms.chebyshev_hat_via_kernel(m, lam)
            denom = max(abs(direct), abs(via), 1e-300)
            worst, where = _track(worst, where, abs(direct - via) / denom, f"(m={m}, lam={lam})")
    return CheckResult("kernel_route", worst, where)


def _check_bessel_route(max_m: int) -> CheckResult:
    worst, where = 0.0, "-"
    for m in range(max_m + 1):
        for lam in _closed_grid(m):
            direct = transforms.legendre_hat(m, lam).value
            via = bessel.legendre_hat_via_bessel(m, lam)
            denom = max(abs(direct), abs(via), 1e-300)
            worst, where = _track(worst, where, abs(direct - via) / denom, f"(m={m}, lam={lam})")
    return CheckResult("bessel_route", worst, where)


def _check_bessel_classical(max_m: int) -> CheckResult:
    worst, where = 0.0, "-"
    for lam in [0.5, 1.0, 2.0, 5.0, 10.0]:
        j0 = math.sqrt(2.0 / (math.pi * lam)) * math.sin(lam)
        got0 = bessel.bessel_half(0, lam)
        worst, where = _track(worst, where, abs(got0 - j0) / max(abs(j0), 1e-300), f"(m=0, lam={lam})")
        if max_m >= 1:
            j1 = math.sqrt(2.0 / (math.pi * lam)) * (math.sin(lam) / lam - math.cos(lam))
            got1 = bessel.bessel_half(1, lam)
            worst, where = _track(worst, where, abs(got1 - j1) / max(abs(j1), 1e-300), f"(m=1, lam={lam})")
    zero = abs(bessel.bessel_half(min(max_m, 3), 0.0))
    worst, where = _track(worst, where, zero, "(lam=0)")
    return CheckResult("bessel_classical", worst, where)


def _check_quadrature(max_m: int) -> CheckResult:
    worst, where = 0.0, "-"
    for order in (40, 64, 128):
        rule = oracle.gauss_legendre_rule(order)
        worst, where = _track(worst, where, abs(float(np.sum(rule.weights)) - 2.0), f"(order={order}, sum w)")
        if np.any(np.diff(rule.nodes) <= 0):
            worst, where = 1.0, f"(order={order}, node ordering)"
        for power in (2, 10, 2 * order - 1):
            exact = 2.0 / (power + 1) if power % 2 == 0 else 0.0
            got = float(np.sum(rule.weights * rule.nodes**power))
            worst, where = _track(worst, where, abs(got - exact), f"(order={order}, x^{power})")
    return CheckResult("quadrature_rule", worst, where)


def run_verification(max_m: int, tol: float) -> tuple[list[CheckResult], bool]:
    """Invariant suites of the transform, Bessel and oracle modules."""
    checks = [
        _check_zero_values(max_m),
        _check_oracle_agreement(max_m),
        _check_parity(max_m),
        _check_conjugation(max_m),
        _check_realness(max_m),
        _check_legendre_recurrence(max_m),
        _check_kernel_recurrence(max_m),
        _check_kernel_route(max_m),
        _check_bessel_route(max_m),
        _check_bessel_classical(max_m),
        _check_quadrature(max_m),
    ]
    return checks, all(c.passed(tol) for c in checks)


# ---------------------------------------------------------------------------
# study configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudyConfig:
    """Sweep of basis sizes against collocation-point factors."""

    basis_sizes: tuple[int, ...]
    factors: tuple[float, ...] = DEFAULT_FACTORS
    out: str | None = None
    rule: helmholtz.RayRule = helmholtz.DEFAULT_RULE

    def __post_init__(self) -> None:
        if not self.basis_sizes or any(n < 1 for n in self.basis_sizes):
            raise ValueError("basis sizes must be positive")
        if not self.factors or any(f <= 0 for f in self.factors):
            raise ValueError("factors must be positive")


def run_study(config: StudyConfig) -> list[helmholtz.SolveReport]:
    reports = []
    for n in config.basis_sizes:
        for factor in config.factors:
            m = max(1, round(factor * n))
            _, report = helmholtz.solve(n, m, config.rule)
            reports.append(report)
    return reports


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as handle:
            handle.write(text)


def _cmd_coeffs(args) -> int:
    table = coefficient_table(args.family, args.m)
    _write_text(args.out, coefficients_csv(table))
    return 0


def _cmd_eval(args) -> int:
    result = transforms.transform_hat(args.family, args.m, parse_complex(args.lam))
    print(f"{format_complex(result.value)} {result.path.value}")
    return 0


def _cmd_bessel(args) -> int:
    print(format_complex(bessel.bessel_half(args.m, parse_complex(args.lam))))
    return 0


def _cmd_verify(args) -> int:
    checks, ok = run_verification(args.max_m, args.tol)
    for check in checks:
        status = "PASS" if check.passed(args.tol) else "FAIL"
        print(f"{status} {check.name}: max residual {check.worst:.3e} at {check.where}")
    print(f"verify: {'all checks passed' if ok else 'FAILURES'} (max-m={args.max_m}, tol={args.tol:g})")
    return 0 if ok else 1


def _reports_csv(reports) -> str:
    lines = [helmholtz.REPORT_CSV_HEADER] + [r.csv_row() for r in reports]
    return "\n".join(lines) + "\n"


def _cmd_solve(args) -> int:
    _, report = helmholtz.solve(args.basis, args.points)
    _write_text(args.out, _reports_csv([report]))
    return 0


def _cmd_study(args) -> int:
    config = StudyConfig(
        basis_sizes=tuple(args.basis),
        factors=tuple(args.factors),
        out=args.out,
    )
    _write_text(config.out, _reports_csv(run_study(config)))
    return 0


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _int_list(text: str) -> list[int]:
    return [_positive_int(part) for part in text.split(",") if part]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fourpoly", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    families = [f.value for f in Family]

    p = sub.add_parser("coeffs", help="dump an exact coefficient table as CSV")
    p.add_argument("--family", required=True, choices=families)
    p.add_argument("--m", required=True, type=_nonnegative_int)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_coeffs)

    p = sub.add_parser("eval", help="evaluate a transform at one point")
    p.add_argument("--family", required=True, choices=families)
    p.add_argument("--m", required=True, type=_nonnegative_int)
    p.add_argument("--lambda", dest="lam", required=True)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("bessel", help="evaluate a half-order Bessel function")
    p.add_argument("--m", required=True, type=_nonnegative_int)
    p.add_argument("--lambda", dest="lam", required=True)
    p.set_defaults(handler=_cmd_bessel)

    p = sub.add_parser("verify", help="run the invariant check suites")
    p.add_argument("--max-m", dest="max_m", type=_nonnegative_int, default=20)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("solve", help="solve the square boundary problem once")
    p.add_argument("--basis", required=True, type=_positive_int)
    p.add_argument("--points", required=True, type=_positive_int)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("study", help="sweep basis sizes and point factors")
    p.add_argument("--basis", required=True, type=_int_list)
    p.add_argument("--factors", type=_float_list, default=list(DEFAULT_FACTORS))
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_study)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except helmholtz.DegenerateSystemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
