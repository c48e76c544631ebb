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


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"fourpoly.{name}")
    assert module.__all__
    for attr in module.__all__:
        getattr(module, attr)


def test_evaluator_imports_without_numpy():
    src = str(Path(fourpoly.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _EVALUATE_WITHOUT_NUMPY],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
