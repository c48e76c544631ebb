"""One benchmark process: a setup sample or a measured run.

    python bench/worker.py probe|run WORKLOAD SEED SECONDS TRACE SMOKE OUT_DIR

Both modes build the workload's seeded inputs and run its untimed warm-up
pass, then print READY; the parent times spawn-to-READY as one set-up
sample.  A probe exits there.  A run then computes references and measures
for SECONDS: untraced with TRACE=0; with TRACE=1 half untraced, half traced,
so the traced per-layer numbers come with their own overhead ratio.  The
last stdout line of a run is its result as JSON.
"""
from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy

import tracing
import workloads
from fourpoly import coeffs


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _timed_phase(workload, seconds: float, tracer=None):
    """Whole passes until `seconds` have elapsed (at least one)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(workload.run_pass(tracer))
    return passes


def _pass_and_p50(passes) -> tuple[float, float]:
    """Median time of one pass and median time of one operation, in seconds."""
    return _median([sum(o.seconds for o in p) for p in passes]), _median([o.seconds for p in passes for o in p])


def _end_to_end(name: str, passes) -> tuple[dict, dict]:
    ops = [o for p in passes for o in p]
    secs = [o.seconds for o in ops]
    attempted, failed = len(ops), sum(o.failed for o in ops)
    pass_s, op_p50 = _pass_and_p50(passes)
    metrics = {
        "pass_s": pass_s,
        "op_p50_ms": 1e3 * op_p50,
        "ok_ratio": 1.0 - failed / attempted,
        "fail_ratio": failed / attempted,
    }
    samples = {"pass_s": len(passes), "op_p50_ms": len(secs)}

    def by_label(label):
        return [o.seconds for o in ops if o.label == label]

    if name == "solve_ladder":
        metrics.update({
            "solve.n20_s": _median(by_label("n20")),
            "solve.n32_s": _median(by_label("n32")),
            "solve.solves_per_s": attempted / sum(secs),
            "solve.einf_max": max(o.err for o in ops),
        })
        samples.update({"solve.n20_s": len(by_label("n20")), "solve.n32_s": len(by_label("n32"))})
    elif name == "transform_mix":
        cuts = statistics.quantiles(secs, n=100) if len(secs) > 1 else secs * 99
        metrics.update({
            "eval.per_s": attempted / sum(secs),
            "eval.p50_us": 1e6 * _median(secs),
            "eval.p99_us": 1e6 * cuts[98],
            "eval.err_max": max(o.err for o in ops),
        })
        samples.update({"eval.p50_us": len(secs), "eval.p99_us": len(secs),
                        "eval.p99_us.beyond": sum(s > cuts[98] for s in secs)})
    else:
        metrics.update({
            "cli.session_s": _median([sum(o.seconds for o in p) for p in passes]),
            "cli.verify_s": _median(by_label("verify")),
        })
        samples.update({"cli.session_s": len(passes), "cli.verify_s": len(by_label("verify"))})
    return metrics, samples


def _per_layer(tracer, traced, untraced) -> dict:
    count = len(traced)
    metrics = {}
    for name, totals in tracer.layer_totals().items():
        for key, value in totals.items():
            metrics[f"{name}.{key}"] = value / count
    hits, misses = tracer.cache
    metrics["coeffs.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["trace.overhead_ratio"] = _pass_and_p50(traced)[0] / _pass_and_p50(untraced)[0]
    metrics["trace.spans"] = len(tracer.spans) / count
    for label in ("coeffs", "eval", "bessel", "verify", "solve", "study"):
        metrics[f"cli.{label}.s"] = _median([o.seconds for p in untraced for o in p if o.label == label])
    return metrics


def _pass_counts(passes) -> list[dict]:
    """Layer call counts of each traced pass, summed over its operations."""
    totals = []
    for p in passes:
        total = Counter()
        for o in p:
            total.update(o.counts or {})
        totals.append(dict(total))
    return totals


def _op_counts(passes) -> dict:
    """Call counts per operation label, where every occurrence agrees."""
    seen: dict[str, list] = {}
    for p in passes:
        for o in p:
            seen.setdefault(o.label, []).append(o.counts)
    return {label: c[0] for label, c in seen.items() if all(x == c[0] for x in c)}


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, trace, smoke, out_dir = argv
    seed, seconds, trace, smoke, out_dir = int(seed), float(seconds), trace == "1", smoke == "1", Path(out_dir)
    cls = workloads.WORKLOADS[name]
    workload = cls(seed, smoke, out_dir)
    workload.warm_up()
    print("READY", flush=True)
    if mode == "probe":
        return 0
    workload.prepare()

    result = {}
    if trace:
        untraced = _timed_phase(workload, seconds / 2)
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        hits0, misses0 = tracing.cache_counts(coeffs)
        traced = _timed_phase(workload, seconds / 2, tracer)
        hits1, misses1 = tracing.cache_counts(coeffs)
        restore()
        tracer.cache[0] += hits1 - hits0
        tracer.cache[1] += misses1 - misses0
        tracer.write(out_dir / f"trace-{name}-{seed}.json.gz", tuple(tracer.cache))
        passes = untraced + traced
        counts = _pass_counts(traced)
        result["metrics"] = _per_layer(tracer, traced, untraced)
        result["counts_per_pass"] = counts[0]
        result["counts_per_op"] = _op_counts(traced)
        result["counts_repeat"] = all(c == counts[0] for c in counts)
        result["samples"] = {"traced_passes": len(traced), "untraced_passes": len(untraced)}
    else:
        passes = _timed_phase(workload, seconds)
        result["metrics"], result["samples"] = _end_to_end(name, passes)
        result["counts_repeat"] = True

    ops = [o for p in passes for o in p]
    unexpected = [f"{o.label}: err {o.err:.3g} {o.note}".strip() for o in ops if o.unexpected]
    result.update({
        "numpy": numpy.__version__,
        "attempted": len(ops),
        "failed": sum(o.failed for o in ops),
        "failures": dict(Counter(o.label for o in ops if o.failed)),
        "unexpected": unexpected,
        "correct": not unexpected and result["counts_repeat"],
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
