"""The benchmark's tracer (`bench/tracing.py`) hooks public module attributes
by name; a rename under `src/` silently drops a layer from its counts, so one
short traced run pins every layer a solve and the three transform regimes
reach."""
from pathlib import Path

import numpy as np

from fourpoly import bessel, cli, helmholtz, oracle, transforms

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_counts_each_layer_and_restores_the_originals(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracing

    hooked = [
        (module, attr, getattr(module, attr))
        for module, attr in (
            (transforms, "coefficient_table"), (bessel, "coefficient_table"), (cli, "coefficient_table"),
            (transforms, "transform_hat"), (transforms, "exp_cos_sine_integral"), (bessel, "bessel_half"),
            (oracle, "quad_transform"), (oracle, "gauss_legendre_rule"), (helmholtz, "dirichlet_hat"),
            (helmholtz, "assemble_system"), (helmholtz, "legendre_hat"), (helmholtz, "scale_system"),
            (helmholtz, "relative_error_einf"), (helmholtz, "solve"), (np.linalg, "lstsq"),
        )
    ]
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        helmholtz.solve(4, 8)
        for lam in (5.0, 0.5, 0.0):
            transforms.transform_hat("legendre", 4, lam)
    finally:
        restore()  # install re-binds numpy.linalg.lstsq for every later test
    assert dict(tracer.calls) == {
        "helmholtz.solve": 1,
        "helmholtz.assemble": 1,
        "helmholtz.dirichlet": 16,  # two boundary transforms per point
        "helmholtz.scale": 1,
        "helmholtz.lstsq": 1,
        "helmholtz.error": 1,
        "transforms.closed_form": 1,
        "transforms.series": 1,
        "transforms.zero": 1,
    }
    assert all(getattr(module, attr) is original for module, attr, original in hooked)
