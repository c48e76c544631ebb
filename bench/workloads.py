"""The three benchmark workloads, their seeded inputs and their output checks.

Each workload is a closed loop: one process, one operation in flight, the
next operation issued when the previous one returns.  A *pass* runs every
input of the workload once; timed phases repeat passes.

* `solve_ladder`  warm `helmholtz.solve(N, 2N)` for N in 12..32: assembly
  dominates, the Fraction rescue and series share grow with N.
* `transform_mix` warm scalar `transform_hat` and a fixed share of
  `bessel_half` over seeded evaluator regimes; no solver work.
* `cli_cold`      a scripted session of fresh-interpreter `fourpoly` CLI
  commands, each paying import and cold caches.

An operation fails if it raises, returns non-finite output, exits non-zero or
misses its reference.  Failures are counted, never filtered out.  A failure
is *known* only where the defect was measured when the benchmark was added,
and only up to an error ceiling near the measured error; any other failure,
or a known one that got worse, makes the run incorrect.
"""
from __future__ import annotations

import cmath
import math
import random
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.polynomial import legendre as npleg

import exact
from fourpoly import bessel, coeffs, helmholtz, parse_complex, transforms

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

SOLVE_TOL = 1e-10  # E_inf, the acceptance tolerance at N=20, M=40
EVAL_TOL = 1e-9  # |got - ref| / (1 + |ref|) against the exact.py reference
EPS = 2.0**-52
BAND_START = 16.0  # real-axis moment series loses digits from here up to |lam| = m
M_MAX = 40

# Failures measured when the benchmark was added, each with the error it may
# reach and still count as known.  They stay in every workload and in
# fail_ratio; later fixes show as a falling fail_ratio.
KNOWN_SOLVE_FAILURES = {  # (N, M): E_inf ceiling
    (32, 64): 1e-8,  # E_inf 6.2e-9: accuracy degrades with N
    (12, 24): 1e-9,  # E_inf 6.7e-10: 12 Legendre modes resolve the trace only to ~7e-10
}
KNOWN_VERIFY_FAILURE = ("kernel_route", 32, 1e-8)  # residual 6.96e-9 at m=32, lam=34i; exit 1
ANCHORS = {  # (family, m, lam): error ceiling
    ("chebyshev", 40, complex(39.5)): 1e-3,  # 6.23e-4
    ("chebyshev", 40, 30 + 5j): 1e-6,  # 4.08e-7
}


@dataclass
class Outcome:
    """One checked operation."""

    label: str
    seconds: float
    err: float
    failed: bool
    unexpected: bool
    note: str = ""
    counts: dict | None = None  # layer calls made by this op, in traced passes


def _calls(tracer):
    return None if tracer is None else dict(tracer.calls)


def _delta(tracer, before):
    if tracer is None:
        return None
    return {k: v - before.get(k, 0) for k, v in tracer.calls.items() if v != before.get(k, 0)}


def known_eval_failure(family: str, m: int, lam: complex, err: float, cond: float) -> bool:
    """Known defect: the double-precision moment series, used for
    0 < |lam| < max(1, m), loses digits as its terms cancel.

    The two anchors have ceilings near their measured errors.  Elsewhere the
    ceiling is eps * cond, the loss the series' own cancellation explains
    (cond from exact.py); measured errors were at most 0.36 of it.  So a
    well-conditioned point may not fail at all.
    """
    if (family, m, lam) in ANCHORS:
        return err <= ANCHORS[family, m, lam]
    return 0 < abs(lam) < max(1, m) and err <= EPS * cond


def reference(kind: str, family: str, m: int, lam: complex) -> tuple[complex, float]:
    """High-precision value and series conditioning of a transform or J_{m+1/2}."""
    if kind == "transform":
        return exact.transform(family, m, lam)
    return exact.bessel_half(m, lam)


def _finite(z) -> bool:
    return cmath.isfinite(complex(z))


def _stratified(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """One uniform draw in each of `count` equal cells of [lo, hi)."""
    width = (hi - lo) / count
    return [lo + (k + rng.random()) * width for k in range(count)]


class Workload:
    name = ""

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.out_dir = out_dir

    def warm_up(self) -> None:
        """One untimed pass that fills the program's caches."""
        self.run_pass()

    def prepare(self) -> None:
        """Compute references; runs outside every timed span."""

    def run_pass(self, tracer=None) -> list[Outcome]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# solve_ladder
# ---------------------------------------------------------------------------


def _exact_trace_einf(coefficients) -> float:
    """E_inf recomputed by the benchmark from the returned coefficients."""
    y = np.linspace(-1.0, 1.0, 1001)
    s3 = math.sqrt(3.0)
    exact = -(math.sinh(1.0) * np.cosh(s3 * y) + s3 * math.sinh(s3) * np.cosh(y))
    return float(np.max(np.abs(npleg.legval(y, coefficients) - exact)) / np.max(np.abs(exact)))


class SolveLadder(Workload):
    name = "solve_ladder"

    def __init__(self, seed: int, smoke: bool, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        self.sizes = (12, 16) if smoke else (12, 16, 20, 24, 32)

    def run_pass(self, tracer=None) -> list[Outcome]:
        order = list(self.sizes)
        self.rng.shuffle(order)
        out = []
        for n in order:
            solve = helmholtz.solve
            before = _calls(tracer)
            start = time.perf_counter()
            expansion, report = solve(n, 2 * n)
            seconds = time.perf_counter() - start
            counts = _delta(tracer, before)
            err = _exact_trace_einf(expansion.coefficients)
            failed = not (math.isfinite(err) and err <= SOLVE_TOL and math.isfinite(report.e_inf))
            known = err <= KNOWN_SOLVE_FAILURES.get((n, 2 * n), 0.0) and math.isfinite(report.e_inf)
            out.append(Outcome(f"n{n}", seconds, err, failed, failed and not known, counts=counts))
        return out


# ---------------------------------------------------------------------------
# transform_mix
# ---------------------------------------------------------------------------


@dataclass
class EvalOp:
    kind: str  # "transform" or "bessel"
    stratum: str
    family: str
    m: int
    lam: complex
    ref: complex = 0j
    cond: float = 0.0


def _mix_points(rng: random.Random, m: int) -> list[tuple[str, complex]]:
    """Stratified draws of lam for one degree, two or three per stratum."""
    t = float(max(1, m))
    pts = [("zero", 0j)]
    small_hi = min(4.0, t)
    for r in _stratified(rng, 0.0, small_hi, 2):
        pts.append(("series_small", cmath.rect(max(r, 1e-3), rng.uniform(-math.pi, math.pi))))
    if m > BAND_START:
        for x in _stratified(rng, BAND_START, float(m), 3):
            pts.append(("series_band", complex(rng.choice((1, -1)) * x)))
    for r in _stratified(rng, t, 2 * t + 20, 2):
        pts.append(("closed_real", complex(rng.choice((1, -1)) * r)))
    for r in _stratified(rng, t, 2 * t + 20, 2):
        pts.append(("closed_complex", cmath.rect(r, rng.uniform(-math.pi, math.pi))))
    for r in _stratified(rng, t, t + 4, 2):
        phase = math.pi / 2 + rng.uniform(-0.3, 0.3)
        pts.append(("near_imaginary", rng.choice((1, -1)) * cmath.rect(r, phase)))
    for x in _stratified(rng, 1.0, 21.0, 2):  # default RayRule radii up to M = 40
        pts.append(("solver_shaped", 1j * (x + 1.0 / x)))
    return pts


class TransformMix(Workload):
    name = "transform_mix"
    BESSEL_SHARE = 8  # one op in eight is bessel_half

    def __init__(self, seed: int, smoke: bool, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        rng = self.rng
        top = 12 if smoke else M_MAX
        ops = []
        for family in ("chebyshev", "legendre"):
            # one degree from each cell of width 4 across [0, top]
            for lo in range(0, top + 1, 4):
                m = rng.randint(lo, min(lo + 3, top))
                ops += [EvalOp("transform", s, family, m, lam) for s, lam in _mix_points(rng, m)]
        for k in rng.sample(range(len(ops)), len(ops) // self.BESSEL_SHARE):
            ops[k].kind = "bessel"
        if not smoke:
            ops += [EvalOp("transform", "anchor", f, m, lam) for f, m, lam in ANCHORS]
        rng.shuffle(ops)
        self.ops = ops

    def prepare(self) -> None:
        for op in self.ops:
            op.ref, op.cond = reference(op.kind, op.family, op.m, op.lam)

    def run_pass(self, tracer=None) -> list[Outcome]:
        transform_hat = transforms.transform_hat
        bessel_half = bessel.bessel_half
        out = []
        for op in self.ops:
            note = ""
            before = _calls(tracer)
            start = time.perf_counter()
            if op.kind == "bessel":
                value = bessel_half(op.m, op.lam)
            else:
                result = transform_hat(op.family, op.m, op.lam)
                value = result.value
                note = result.path.value
            seconds = time.perf_counter() - start
            counts = _delta(tracer, before)
            err = abs(value - op.ref) / (1.0 + abs(op.ref)) if _finite(value) else math.inf
            failed = not err <= EVAL_TOL
            family = op.family if op.kind == "transform" else "legendre"
            known = known_eval_failure(family, op.m, op.lam, err, op.cond)
            out.append(Outcome(op.stratum, seconds, err, failed, failed and not known, note, counts))
        return out


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------


def _lam_arg(z: complex) -> str:
    # one token, so argparse does not read a leading minus as an option
    return f"--lambda={z.real:.17g}{z.imag:+.17g}i"


@dataclass
class Command:
    label: str
    args: list[str]
    check: object  # callable(stdout, returncode) -> (err, failed, known)


class CliCold(Workload):
    name = "cli_cold"

    def __init__(self, seed: int, smoke: bool, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        rng = self.rng
        families = ("chebyshev", "legendre")
        self.verify_m = 4 if smoke else 32
        self.solve_nm = (16, 32) if smoke else (20, 40)
        self.study = ((4, 8), (1.0,)) if smoke else ((4, 8, 12, 16), (0.5, 1.0, 1.5, 2.0))
        top = 12 if smoke else M_MAX
        m = rng.randint(5, 12)
        self.evals = [
            (rng.choice(families), m, cmath.rect(rng.uniform(0.1, 4.0), rng.uniform(-math.pi, math.pi))),
        ]
        m = rng.randint(0, top)
        t = max(1, m)
        self.evals.append((rng.choice(families), m, cmath.rect(rng.uniform(t, 2 * t + 20), rng.uniform(-math.pi, math.pi))))
        self.evals.append((rng.choice(families), rng.randint(0, top), 0j))
        self.bessel = (rng.randint(0, 20), cmath.rect(rng.uniform(0.5, 4.0), rng.uniform(-math.pi, math.pi)))
        self.coeffs_family = rng.choice(families)
        self.coeffs_m = 8 if smoke else M_MAX
        self.refs: dict[str, object] = {}

    # references -----------------------------------------------------------

    def warm_up(self) -> None:
        """Nothing to warm: every command starts a fresh interpreter."""

    def prepare(self) -> None:
        refs = self.refs
        for k, (family, m, lam) in enumerate(self.evals):
            refs[f"eval{k}"] = reference("transform", family, m, lam)
        refs["bessel"] = reference("bessel", "legendre", *self.bessel)
        refs["coeffs"] = coeffs.coefficients_csv(coeffs.coefficient_table(self.coeffs_family, self.coeffs_m))
        rows = []
        with warnings.catch_warnings():  # under-resolved study cells warn by design
            warnings.simplefilter("ignore")
            for n in self.study[0]:
                for f in self.study[1]:
                    _, report = helmholtz.solve(n, max(1, round(f * n)))
                    rows.append(report)
        refs["study"] = rows

    def commands(self) -> list[Command]:
        cmds = [
            Command("verify", ["verify", "--max-m", str(self.verify_m)], self._check_verify),
            Command("solve", ["solve", "--basis", str(self.solve_nm[0]), "--points", str(self.solve_nm[1])],
                    self._check_solve),
            Command("study", ["study", "--basis", ",".join(map(str, self.study[0])),
                              "--factors", ",".join(f"{f:g}" for f in self.study[1])], self._check_study),
        ]
        for k, (family, m, lam) in enumerate(self.evals):
            cmds.append(Command("eval", ["eval", "--family", family, "--m", str(m), _lam_arg(lam)],
                                lambda out, rc, k=k: self._check_eval(out, rc, k)))
        m, lam = self.bessel
        cmds.append(Command("bessel", ["bessel", "--m", str(m), _lam_arg(lam)], self._check_bessel))
        cmds.append(Command("coeffs", ["coeffs", "--family", self.coeffs_family, "--m", str(self.coeffs_m)],
                            self._check_coeffs))
        return cmds

    # checks: each returns (err, failed, known) --------------------------------

    def _check_verify(self, out: str, rc: int):
        residuals, failing = {}, set()
        for line in out.splitlines():
            if line.startswith(("PASS ", "FAIL ")):
                status, rest = line.split(" ", 1)
                name, tail = rest.split(":", 1)
                residuals[name] = float(tail.split()[2])
                if status == "FAIL":
                    failing.add(name)
        failed = rc != 0 or bool(failing) or not residuals
        name, max_m, ceiling = KNOWN_VERIFY_FAILURE
        known = rc == 1 and failing == {name} and self.verify_m == max_m and residuals[name] <= ceiling
        return max(residuals.values(), default=math.inf), failed, known

    def _csv_rows(self, out: str):
        lines = out.strip().splitlines()
        if not lines or lines[0] != helmholtz.REPORT_CSV_HEADER:
            raise ValueError("missing report header")
        return [[float(v) for v in line.split(",")] for line in lines[1:]]

    def _check_solve(self, out: str, rc: int):
        rows = self._csv_rows(out)
        n, m = self.solve_nm
        ok = rc == 0 and len(rows) == 1 and rows[0][:2] == [n, m] and all(map(math.isfinite, rows[0]))
        err = rows[0][2] if rows else math.inf
        return err, not (ok and err <= SOLVE_TOL), False

    def _check_study(self, out: str, rc: int):
        rows = self._csv_rows(out)
        refs = self.refs["study"]
        ok = rc == 0 and len(rows) == len(refs)
        for row, ref in zip(rows, refs):
            ok = ok and row[:2] == [ref.basis_size, ref.point_count] and all(map(math.isfinite, row))
            ok = ok and f"{row[2]:.5e}" == f"{ref.e_inf:.5e}"
        return 0.0, not ok, False

    def _check_value(self, text: str, key: str, family: str, m: int, lam: complex):
        ref, cond = self.refs[key]
        value = parse_complex(text)
        err = abs(value - ref) / (1.0 + abs(ref)) if _finite(value) else math.inf
        return err, not err <= EVAL_TOL, known_eval_failure(family, m, lam, err, cond)

    def _check_eval(self, out: str, rc: int, k: int):
        family, m, lam = self.evals[k]
        text, path = out.split()
        expected = "ZeroLambda" if lam == 0 else ("ClosedForm" if abs(lam) >= max(1, m) else "SmallLambdaSeries")
        err, failed, known = self._check_value(text, f"eval{k}", family, m, lam)
        failed = failed or rc != 0 or path != expected
        return err, failed, known and rc == 0 and path == expected

    def _check_bessel(self, out: str, rc: int):
        m, lam = self.bessel
        err, failed, known = self._check_value(out.strip(), "bessel", "legendre", m, lam)
        return err, failed or rc != 0, known and rc == 0

    def _check_coeffs(self, out: str, rc: int):
        failed = rc != 0 or out != self.refs["coeffs"]
        return 0.0, failed, False

    # running ----------------------------------------------------------------

    def run_pass(self, tracer=None) -> list[Outcome]:
        """One session; with a tracer every command runs under cli_child.py."""
        out = []
        for index, cmd in enumerate(self.commands()):
            if tracer is None:
                argv = [sys.executable, "-m", "fourpoly.cli", *cmd.args]
            else:
                spans = self.out_dir / f"cli-{index}.json.gz"
                argv = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(spans), *cmd.args]
            before = _calls(tracer)
            start = time.perf_counter()
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=150)
            seconds = time.perf_counter() - start
            note = proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else ""
            try:
                err, failed, known = cmd.check(proc.stdout, proc.returncode)
            except (ValueError, IndexError) as exc:  # malformed output
                err, failed, known, note = math.inf, True, False, f"unreadable output: {exc}; {note}"
            if tracer is not None:
                tracer.merge_child(spans)
            out.append(Outcome(cmd.label, seconds, err, failed, failed and not known,
                               note if failed else "", _delta(tracer, before)))
        return out


WORKLOADS = {w.name: w for w in (SolveLadder, TransformMix, CliCold)}
