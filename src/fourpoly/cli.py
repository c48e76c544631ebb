"""Command-line surface: coefficient dumps, point evaluations, verification
sweeps, single solves and convergence/conditioning studies with CSV output.

Exit codes: 0 success, 1 check or solve failure, 2 usage/IO error.
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import bessel, checks, helmholtz, transforms
from .coeffs import Family, coefficient_table, coefficients_csv
from .complexfmt import format_complex, parse_complex

__all__ = ["main", "run_study"]

DEFAULT_FACTORS = (0.5, 1.0, 1.5, 2.0)


def run_study(basis_sizes: list[int], factors: list[float]) -> list[helmholtz.SolveReport]:
    """Solve once for every basis size N and point count max(1, round(factor * N))."""
    if not basis_sizes or any(n < 1 for n in basis_sizes):
        raise ValueError("basis sizes must be positive")
    if not factors or any(f <= 0 for f in factors):
        raise ValueError("factors must be positive")
    return [helmholtz.solve(n, max(1, round(f * n)))[1] for n in basis_sizes for f in factors]


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
    results = checks.run_checks(args.max_m)
    ok = all(result.passed(args.tol) for result in results)
    for result in results:
        status = "PASS" if result.passed(args.tol) else "FAIL"
        print(f"{status} {result.name}: max residual {result.worst:.3e} at {result.where}")
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
    _write_text(args.out, _reports_csv(run_study(args.basis, args.factors)))
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


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError("must be finite and non-negative")
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
    p.add_argument("--max-m", dest="max_m", type=_nonnegative_int, default=64)
    p.add_argument("--tol", type=_tolerance, default=1e-9)
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
