"""Package layout: every public name resolves in the module that defines it,
and the paper's evaluator (`coeffs`, `transforms`, `bessel`) loads no numpy."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fourpoly

MODULES = ["coeffs", "transforms", "bessel", "oracle", "helmholtz", "checks", "cli", "complexfmt"]

_EVALUATE_WITHOUT_NUMPY = """
import cmath, sys
import fourpoly, fourpoly.bessel, fourpoly.coeffs, fourpoly.complexfmt, fourpoly.transforms
from fourpoly.bessel import bessel_half
from fourpoly.complexfmt import parse_complex
from fourpoly.transforms import chebyshev_hat, exp_cos_sine_integral, legendre_hat

values = [
    legendre_hat(5, 7.0).value,
    chebyshev_hat(5, 7.0).value,
    exp_cos_sine_integral(3, 1.5),
    bessel_half(2, 3.0),
    parse_complex("1.5-2i"),
]
assert all(cmath.isfinite(v) for v in values), values
assert "numpy" not in sys.modules
"""


_CLI = """
import sys
from fourpoly.cli import main

assert main(sys.argv[2:]) == 0
assert ("numpy" in sys.modules) == (sys.argv[1] == "numpy")
"""


def _run_python(*args):
    src = str(Path(fourpoly.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"fourpoly.{name}")
    assert module.__all__
    for attr in module.__all__:
        getattr(module, attr)


def test_evaluator_imports_without_numpy():
    done = _run_python("-c", _EVALUATE_WITHOUT_NUMPY)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "loads, argv",
    [
        ("no-numpy", ["eval", "--family", "legendre", "--m", "5", "--lambda", "7"]),
        ("no-numpy", ["bessel", "--m", "2", "--lambda", "3-1i"]),
        ("no-numpy", ["coeffs", "--family", "chebyshev", "--m", "40"]),
        ("numpy", ["verify", "--max-m", "2"]),  # so that the other cases cannot pass vacuously
    ],
)
def test_cli_loads_numpy_only_for_the_solver_and_checks(loads, argv):
    done = _run_python("-c", _CLI, loads, *argv)
    assert done.returncode == 0, done.stderr


_COLD = """
import sys
from fourpoly.cli import main

assert main(sys.argv[2:]) == 0
print(*sorted(name for name in sys.argv[1].split(",") if name in sys.modules))
"""

_NEVER_COLD = ["numpy", "dataclasses", "inspect", "fractions", "decimal"]


@pytest.mark.parametrize(
    "argv, unused",
    [
        (["eval", "--family", "legendre", "--m", "5", "--lambda", "7"], []),
        (["bessel", "--m", "2", "--lambda", "3-1i"], []),
        (["coeffs", "--family", "chebyshev", "--m", "40"], ["fourpoly.transforms", "fourpoly.bessel"]),
        (["eval", "--family", "chebyshev", "--m", "40", "--lambda", "0"], []),
    ],
)
def test_point_commands_load_only_what_they_use(argv, unused):
    done = _run_python("-c", _COLD, ",".join(_NEVER_COLD + unused), *argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == ""
