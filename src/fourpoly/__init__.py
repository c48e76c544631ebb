"""Finite Fourier transforms of Chebyshev and Legendre polynomials in closed
form, the induced explicit half-order Bessel representation, and a
global-relation collocation solver for the modified Helmholtz equation on a
square.

Each public name is imported from the module that defines it: exact integer
coefficient tables from `coeffs`; regime-aware transform evaluation from
`transforms`; Bessel values from `bessel`; independent quadrature and
recurrence oracles from `oracle`; the invariant-check registry shared by
`fourpoly verify` and the acceptance suite from `checks`; the boundary-value
solver from `helmholtz`; the command-line interface from `cli`.  Importing
the package, `coeffs`, `transforms`, `bessel` or `cli` loads no numpy, and
each `fourpoly` command loads only the modules it uses (see `cli`).
"""
# kept because `bench/workloads.py` imports `parse_complex` from the package
from .complexfmt import parse_complex  # noqa: F401

__version__ = "0.1.0"
