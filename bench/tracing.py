"""Outside-in tracing for the benchmark.

`install` re-binds public module attributes of fourpoly (and
`numpy.linalg.lstsq`, which only the solver calls) to wrappers that record a
span around each call: name, start, end and the enclosing span.  Nothing
under `src/` changes and no private name is hooked, so private stages (the
exact-`Fraction` rescue, moment building, cancellation ratios) stay inside
the span of the public call that runs them.

Self time of a span is its duration minus the time covered by its child
spans.  Spans stay in memory and are written out when the run ends.
"""
from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict

_PATH_SPAN = {
    "ClosedForm": "transforms.closed_form",
    "SmallLambdaSeries": "transforms.series",
    "ZeroLambda": "transforms.zero",
}

# Every layer the traced run reports; a layer a workload never reaches
# reports zero calls.
LAYERS = (
    "cli.main",
    "helmholtz.solve",
    "helmholtz.assemble",
    "helmholtz.columns",
    "helmholtz.dirichlet",
    "helmholtz.scale",
    "helmholtz.lstsq",
    "helmholtz.error",
    "transforms.closed_form",
    "transforms.series",
    "transforms.zero",
    "transforms.kernel",
    "oracle.quad",
    "oracle.rule",
    "coeffs.table",
    "bessel",
)


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # open spans: [id, start, time covered by children]
        self._next_id = 0
        self.cache = [0, 0]  # coefficient-table cache hits, misses

    def call(self, name, fn, args, kwargs, name_of_result=None):
        """Run fn inside a span; `name_of_result` may rename it from the result."""
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_id, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(name, parent, frame)
            raise
        self._close(name if name_of_result is None else name_of_result(result), parent, frame)
        return result

    def _close(self, name, parent, frame) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        self.spans.append((frame[0], parent, name, frame[1], end))
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration

    def span(self, name, fn, *args, **kwargs):
        return self.call(name, fn, args, kwargs)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, inclusive seconds and self seconds for every layer."""
        return {
            name: {"calls": self.calls.get(name, 0), "s": self.total.get(name, 0.0),
                   "self_s": self.self_time.get(name, 0.0)}
            for name in sorted(set(LAYERS) | set(self.calls))
        }

    def write(self, path, cache: tuple[int, int] = (0, 0)) -> None:
        """Spans as [id, parent, name, start, end] rows, gzip-compressed JSON."""
        with gzip.open(path, "wt", encoding="ascii") as handle:
            json.dump({"spans": sorted(self.spans), "cache": cache}, handle)

    def merge_child(self, path) -> None:
        """Adopt the spans and cache counts a traced child process wrote.

        perf_counter is a system-wide monotonic clock on Linux, so child
        timestamps share the parent's time axis.
        """
        with gzip.open(path, "rt", encoding="ascii") as handle:
            data = json.load(handle)
        base = self._next_id
        by_id = {}
        for span_id, parent, name, start, end in data["spans"]:
            by_id[span_id] = (name, start, end)
            self.spans.append((base + span_id, base + parent if parent >= 0 else -1, name, start, end))
            self._next_id = max(self._next_id, base + span_id + 1)
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_time[name] += end - start
        for span_id, parent, name, start, end in data["spans"]:
            if parent >= 0:
                self.self_time[by_id[parent][0]] -= end - start
        self.cache[0] += data["cache"][0]
        self.cache[1] += data["cache"][1]


def cache_counts(coeffs_module) -> tuple[int, int]:
    """(hits, misses) summed over the coefficient-table caches."""
    infos = [coeffs_module.chebyshev_coeffs.cache_info(), coeffs_module.legendre_coeffs.cache_info()]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def _wrap(tracer, name, fn, name_of_result=None):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, name_of_result)

    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer):
    """Re-bind the traced attributes; returns a callable that restores them."""
    import numpy as np
    from fourpoly import bessel, cli, helmholtz, oracle, transforms

    saved = []

    def rebind(module, attr, wrapper):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    table = _wrap(tracer, "coeffs.table", transforms.coefficient_table)
    for module in (transforms, bessel, cli):
        rebind(module, "coefficient_table", table)
    rebind(transforms, "transform_hat",
           _wrap(tracer, "transforms", transforms.transform_hat,
                 lambda result: _PATH_SPAN[result.path.value]))
    rebind(transforms, "exp_cos_sine_integral",
           _wrap(tracer, "transforms.kernel", transforms.exp_cos_sine_integral))
    rebind(bessel, "bessel_half", _wrap(tracer, "bessel", bessel.bessel_half))
    rebind(oracle, "quad_transform", _wrap(tracer, "oracle.quad", oracle.quad_transform))
    rebind(oracle, "gauss_legendre_rule", _wrap(tracer, "oracle.rule", oracle.gauss_legendre_rule))

    traced_dirichlet = _wrap(tracer, "helmholtz.dirichlet", helmholtz.dirichlet_hat)
    assemble = helmholtz.assemble_system

    def traced_assemble(n_basis, points, dirichlet=None):
        # the solver relies on the default argument, bound when the module
        # was defined, so the traced Dirichlet transform is passed explicitly
        if dirichlet in (None, traced_dirichlet.__wrapped__):
            dirichlet = traced_dirichlet
        return tracer.span("helmholtz.assemble", assemble, n_basis, points, dirichlet)

    rebind(helmholtz, "dirichlet_hat", traced_dirichlet)
    rebind(helmholtz, "assemble_system", traced_assemble)
    rebind(helmholtz, "legendre_hat", _wrap(tracer, "helmholtz.columns", helmholtz.legendre_hat))
    rebind(helmholtz, "scale_system", _wrap(tracer, "helmholtz.scale", helmholtz.scale_system))
    rebind(helmholtz, "relative_error_einf",
           _wrap(tracer, "helmholtz.error", helmholtz.relative_error_einf))
    rebind(helmholtz, "solve", _wrap(tracer, "helmholtz.solve", helmholtz.solve))
    rebind(np.linalg, "lstsq", _wrap(tracer, "helmholtz.lstsq", np.linalg.lstsq))

    def restore() -> None:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore
