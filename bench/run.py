"""fourpoly benchmark: warm solve ladder, warm transform mix, cold CLI sessions.

One run (the form BENCHMARK.json names; the result is the last stdout line):

    python3 bench/run.py --workload solve_ladder --seed 1 --seconds 20 --trace 0

Ten seeds per workload, with the spread of every metric:

    python3 bench/run.py suite --runs 10 --out bench/out/base.json

Per workload and metric, improved / worse / unresolved between two suites:

    python3 bench/run.py compare bench/out/base.json bench/out/new.json

Runs from the root of a source checkout; the library is imported from
`src/`.  See bench/README.md for the workloads, metrics and known failures.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("solve_ladder", "transform_mix", "cli_cold")
SETUP_SAMPLES = {"solve_ladder": 3, "transform_mix": 3, "cli_cold": 9}  # probes + the worker
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
CHILD_TIMEOUT = 170.0

# Metrics reported beside the gated ones: unit and which direction is better.
REPORTED = {
    "fail_ratio": ("ratio", "lower"),
    "solve.n20_s": ("s", "lower"),
    "solve.n32_s": ("s", "lower"),
    "solve.solves_per_s": ("1/s", "higher"),
    "solve.einf_max": ("rel", "lower"),
    "eval.per_s": ("1/s", "higher"),
    "eval.p50_us": ("us", "lower"),
    "eval.p99_us": ("us", "lower"),
    "eval.err_max": ("rel", "lower"),
    "cli.session_s": ("s", "lower"),
    "cli.verify_s": ("s", "lower"),
}


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """Pinned environment for every process the benchmark starts."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"  # one operation in flight; the solver's lstsq is at most 128 x 64
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # cold CLI runs write nothing into src/
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _spawn(mode: str, args, env) -> tuple[subprocess.Popen, float]:
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), mode, args.workload, str(args.seed),
            str(args.seconds), str(args.trace), "1" if args.smoke else "0", str(OUT_DIR)]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        _finish(proc)
        raise BenchError(f"{mode} process for {args.workload} failed before READY")
    return proc, ready


def _finish(proc: subprocess.Popen) -> list[str]:
    """Read a child's stdout to the end; the child is always gone on return."""
    try:
        lines = proc.stdout.read().splitlines()
        code = proc.wait(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise BenchError(f"benchmark process exited with {code}")
    return lines


def single_run(args) -> dict:
    """Setup samples, then one measured worker; returns the full report."""
    OUT_DIR.mkdir(exist_ok=True)
    env = child_env()
    setup = []
    # Set-up is sampled at trace 0 only (it is not a per-layer metric), and
    # for cli_cold always, where the probes also give cli.start_s.  A cli_cold
    # probe is only interpreter start plus import, so it is sampled more often.
    probes = SETUP_SAMPLES[args.workload] - 1 if args.trace == 0 or args.workload == "cli_cold" else 0
    for _ in range(probes):
        proc, ready = _spawn("probe", args, env)
        _finish(proc)
        setup.append(ready)
    proc, ready = _spawn("run", args, env)
    setup.append(ready)
    lines = _finish(proc)
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if args.trace == 0:
        metrics["setup_s"] = statistics.median(setup)
    else:
        start_s = statistics.median(setup[:-1]) if args.workload == "cli_cold" else 0.0
        metrics["cli.start_s"] = start_s
    result["samples"]["setup_s"] = len(setup)
    result["environment"] = {
        "python": platform.python_version(),
        "numpy": result.pop("numpy"),
        "nproc": nproc(),
        "threads": {var: env[var] for var in THREAD_VARS},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }
    result["workload"] = args.workload
    return result


def contract_line(report: dict, spec: dict, trace: int) -> dict:
    """The result line: exactly the declared metrics of this trace level."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = report["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    # `failed` counts only unexpected failures and leaves out the known ones,
    # each held under its error ceiling (workloads.py); every failure is in
    # ok_ratio and fail_ratio.
    return {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": len(report["unexpected"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }


# ---------------------------------------------------------------------------
# suite and compare
# ---------------------------------------------------------------------------


def spread(values) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and (q3 - q1) / median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def metric_table(spec: dict) -> dict:
    """name -> (unit, better, bound) for every metric a suite can compare."""
    table = {name: (unit, better, None) for name, (unit, better) in REPORTED.items()}
    for m in spec["end_to_end"]:
        table[m["name"]] = (m["unit"], m["better"], m["bound"])
    return table


def run_suite(args) -> int:
    spec = load_spec()
    table = metric_table(spec)
    OUT_DIR.mkdir(exist_ok=True)
    out_path = Path(args.out)
    runs = []
    for workload in args.workloads.split(","):
        for seed in range(1, args.runs + 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0", "--report", "-"]
            start = time.perf_counter()
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            report = json.loads(proc.stdout.splitlines()[-2])
            report["wall_s"] = wall
            runs.append(report)
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={report['correct']}", file=sys.stderr)
            out_path.write_text(json.dumps({"runs": runs}, indent=1))
    print_spreads(runs, table)
    return 0


def _by_workload(runs) -> dict:
    grouped: dict[str, list] = {}
    for r in runs:
        grouped.setdefault(r["workload"], []).append(r)
    return grouped


def print_spreads(runs, table) -> None:
    for workload, group in _by_workload(runs).items():
        print(f"{workload}: {len(group)} runs, wall {sum(r['wall_s'] for r in group):.0f} s, "
              f"correct {sum(r['correct'] for r in group)}/{len(group)}")
        names = sorted(set().union(*(r["metrics"] for r in group)))
        for name in names:
            values = [r["metrics"][name] for r in group if name in r["metrics"]]
            if not all(isinstance(v, (int, float)) for v in values):
                continue
            med, q1, q3, sp = spread(values)
            bound = table.get(name, (None, None, None))[2]
            # a gated spread should stay under a third of its bound
            flag = "" if bound is None else ("  ok" if sp < bound / 3 else "  WIDE")
            print(f"  {name:32s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {sp:.4f}"
                  + ("" if bound is None else f"  bound {bound}") + flag)


def verdict(base, new, better: str, bound: float) -> tuple[str, float]:
    """improved / worse / within_bound / unresolved, and the change of the median as a share."""
    mb, _, _, sb = spread(base)
    mn, _, _, sn = spread(new)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (mn - mb) / mb if mb else 0.0  # > 0 is worse
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    all_worse = all(sign * (n - b) > 0 for n in new for b in base)
    if max(sb, sn) > bound and not (all_better or all_worse):
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -max(sb, sn) and (all_better or -change > bound):
        return "improved", change
    return "within_bound", change


def run_compare(args) -> int:
    spec = load_spec()
    table = metric_table(spec)
    base = _by_workload(json.loads(Path(args.base).read_text())["runs"])
    new = _by_workload(json.loads(Path(args.new).read_text())["runs"])
    worse = 0
    for workload in sorted(set(base) & set(new)):
        print(workload)
        for name, (unit, better, bound) in sorted(table.items()):
            b = [r["metrics"][name] for r in base[workload] if name in r["metrics"]]
            n = [r["metrics"][name] for r in new[workload] if name in r["metrics"]]
            if not b or not n:
                continue
            gate = bound if bound is not None else 0.25
            result, change = verdict(b, n, better, gate)
            worse += result == "worse" and bound is not None
            print(f"  {name:24s} {statistics.median(b):.6g} -> {statistics.median(n):.6g} {unit:6s} "
                  f"{change:+.3f} (bound {gate}{'' if bound is not None else ', reported only'}) {result}")
    return 1 if worse else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    if argv and argv[0] == "suite":
        p = argparse.ArgumentParser(prog="run.py suite")
        p.add_argument("--runs", type=int, default=10, help="seeds 1..RUNS")
        p.add_argument("--workloads", default=",".join(w["name"] for w in load_spec()["workloads"]))
        p.add_argument("--out", required=True)
        return run_suite(p.parse_args(argv[1:]))
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base")
        p.add_argument("new")
        args = p.parse_args(argv[1:])
        return run_compare(args)

    p = argparse.ArgumentParser(prog="run.py", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="small inputs, for the benchmark's own tests")
    p.add_argument("--report", help="also write the full report as JSON to this file ('-': stdout)")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "fourpoly" / "__init__.py").is_file():
        print("error: run from a fourpoly source checkout (src/fourpoly is missing)", file=sys.stderr)
        return 2
    try:
        spec = load_spec()
        report = single_run(args)
        line = contract_line(report, spec, args.trace)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.report == "-":
        print(json.dumps(report))
    elif args.report:
        Path(args.report).write_text(json.dumps(report, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
