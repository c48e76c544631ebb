"""Smoke runs of every benchmark workload at small size.

    python3 -m pytest bench/test_bench.py

Each run must exit 0 and print, as its last line, the result object with
every metric BENCHMARK.json declares for that trace level, in its unit.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]
import exact  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _smoke(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke", "--report", "-"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_declared_metric(workload, trace):
    report, line = _smoke(workload, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True, report["unexpected"]
    assert line["attempted"] >= 1 and 0 <= line["failed"] <= line["attempted"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in line["metrics"].items()}
    for value in line["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if trace == 0:
        prefix = {"solve_ladder": "solve.", "transform_mix": "eval.", "cli_cold": "cli."}[workload]
        named = {k for k in run.REPORTED if k.startswith(prefix)} | {"fail_ratio"}
        assert named <= set(report["metrics"])
        assert line["metrics"]["setup_s"]["value"] > 0
    else:
        assert report["counts_repeat"] is True
        assert line["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_traced_solve_attributes_every_column_to_one_transform_path():
    report, _ = _smoke("solve_ladder", 1)
    assert set(report["counts_per_op"]) == {"n12", "n16"}  # counts agree across passes
    for counts in report["counts_per_op"].values():
        paths = sum(counts.get(f"transforms.{p}", 0) for p in ("closed_form", "series", "zero"))
        assert paths == counts.get("helmholtz.columns", 0)


def test_compare_reports_worse_beyond_bound():
    assert run.verdict([1.0, 1.01, 0.99, 1.0], [1.5, 1.51, 1.49, 1.5], "lower", 0.1)[0] == "worse"
    assert run.verdict([1.0, 1.01, 0.99, 1.0], [0.5, 0.51, 0.49, 0.5], "lower", 0.1)[0] == "improved"
    assert run.verdict([1.0, 1.01, 0.99, 1.0], [1.0, 1.02, 0.98, 1.0], "lower", 0.1)[0] == "within_bound"
    assert run.verdict([1.0, 2.0, 0.5, 1.5], [1.1, 2.1, 0.6, 1.4], "lower", 0.1)[0] == "unresolved"


def test_exact_reference_matches_quadrature_where_quadrature_is_accurate():
    from fourpoly import oracle

    for family, m, lam in [("chebyshev", 5, 2.0 + 0j), ("legendre", 7, 1 + 1j),
                           ("chebyshev", 12, -15 + 3j), ("legendre", 0, 3j)]:
        ref, _ = exact.transform(family, m, lam)
        assert abs(ref - oracle.quad_transform(family, m, lam)) <= 1e-13 * (1 + abs(ref))


def test_known_eval_failures_are_bounded():
    anchor = complex(39.5)
    assert workloads.known_eval_failure("chebyshev", 40, anchor, 6.3e-4, 0.0)
    assert not workloads.known_eval_failure("chebyshev", 40, anchor, 2e-3, 1e20)  # above its ceiling
    assert not workloads.known_eval_failure("legendre", 10, 2.0 + 0j, 1e-8, 1e3)  # well conditioned
    assert not workloads.known_eval_failure("legendre", 10, 20.0 + 0j, 1e-3, 1e20)  # closed-form regime
