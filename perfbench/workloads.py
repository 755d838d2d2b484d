"""Workload definitions, timed passes, traced passes and output checks.

Every call into mvee goes through a module attribute looked up at call
time (`mvee.solvers.solve`, `mvee.cli.main`, ...) so that `layers.Tracer`
sees the benchmark's own calls as well as the calls made inside the
package.
"""

import csv
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

import mvee.cli
import mvee.harness
import mvee.linalg
import mvee.problem
import mvee.solvers
from mvee.errors import MveeError

import layers

REFERENCES = Path(__file__).with_name("references.json")
# set-up repetitions per run; setup_s is their median
SETUP_REPS = 5
# worker threads of the batch workload: one per core of the 2-core box the
# benchmark was written on, and the only concurrency anywhere in a run
BATCH_PARALLELISM = 2
# times the import, then ticks the reference in the same fresh interpreter
IMPORT_PROBE = """\
import time
t0 = time.perf_counter()
import mvee.cli
seconds = time.perf_counter() - t0
import workloads
ref = workloads.Reference()
for _ in range(3):
    ref.tick()
print(seconds, *ref.times)
"""


@dataclass(frozen=True)
class Workload:
    """One seeded workload.  Instance r of seed s is gen_sample(n, m, s + r),
    lifted; every algorithm solves every instance."""

    name: str
    n: int
    m: int
    algorithms: tuple
    epsilon: float
    max_iter: int
    instances: int
    converges: bool = True  # False: a fixed iteration budget, max_iter
    batch: bool = False     # run as `mvee bench` through cli.main


# Why each workload was chosen: BENCHMARK.json and run.py's docstring.  The
# caps of the converging workloads leave headroom over the recorded
# references: at most 114,331 iterations for a small-cd instance (seed 30)
# and 20,126 for moderate-wa; a solve that hits its cap fails.
WORKLOADS = {w.name: w for w in (
    Workload("small-cd", 10, 500, ("cd_const",), 1e-7, max_iter=400_000,
             instances=3),
    Workload("moderate-wa", 30, 1800, ("wa",), 1e-4, max_iter=200_000,
             instances=1),
    Workload("stress-cd", 100, 30_000, ("cd_const",), 1e-7, max_iter=2000,
             instances=1, converges=False),
    Workload("batch-bench", 20, 20_000, ("cd_const", "wa"), 1e-1,
             max_iter=10_000, instances=8, batch=True),
)}


@dataclass
class Solve:
    """One solve's outcome as the benchmark saw it."""

    instance: int          # instance seed
    algorithm: str
    seconds: float         # wall time around the call, reference ticks excluded
    iterations: int = 0
    final_eps: float = math.nan
    final_h: float = math.nan
    converged: bool = False
    u_final: object = None
    error: str = ""


@dataclass
class PassResult:
    """A timed pass: its solves, and one sample per solve (direct workloads)
    or per bench call (batch workload).  A sample's units of work are its
    iterations on a direct workload, where a solve's cost follows its
    iteration count, and its solves on the batch workload, whose fixed
    number of short solves per call is mostly per-solve harness work."""

    solves: list = field(default_factory=list)
    wall: list = field(default_factory=list)        # seconds per sample
    iterations: list = field(default_factory=list)  # iterations per sample
    units: list = field(default_factory=list)       # units of work per sample
    step_s: list = field(default_factory=list)      # reference step per sample


class Reference:
    """A fixed computation that uses no mvee code, timed in between the
    measured work of a run.

    The 2-core host the benchmark was written on is shared: other tenants
    slow every process on it by up to 2x for minutes at a time, and CPU time
    rises with wall time, so no statistic of raw wall time within a run is
    steady from run to run.  A reference step imitates one solver step at
    the workload's n and m (a triangular solve, the O(mn) product, argmax
    and where over m, a hand-written rank-one Cholesky update), so it slows
    down with the program; m is capped at 20000 to bound its memory.  A
    tick runs `steps` of them, about 8 ms on the quiet host.
    """

    # seconds per default-size (n=11, m=500) step on the quiet reference
    # host, a 2-core Intel Xeon
    QUIET_STEP_S = 90e-6
    # interval between ticks inside a solve
    PERIOD = 0.25

    def __init__(self, n=11, m=500):
        m = min(m, 20_000)
        rng = np.random.default_rng(0)
        self._L = np.tril(rng.standard_normal((n, n))) + 5.0 * np.eye(n)
        self._P = rng.standard_normal((n, m))
        self._kappa = rng.random(m)
        self._mask = rng.random(m) < 0.1
        # rough seconds per step on the reference host
        step = 60e-6 + 2e-6 * n + 1.5e-9 * n * m
        self.steps = max(3, int(8e-3 / step))
        self.times = []

    def tick(self):
        """Run `steps` reference steps; keeps the seconds per step and
        returns the seconds of the whole tick."""
        t0 = time.perf_counter()
        L = self._L.copy()
        n = L.shape[0]
        for k in range(self.steps):
            x = self._P[:, k % self._P.shape[1]]
            y = scipy.linalg.solve_triangular(self._L, x, lower=True,
                                              check_finite=False)
            w = self._P.T @ y
            np.argmax(self._kappa - 1e-3 * w)
            np.where(self._mask, self._kappa, np.inf).min()
            v = 0.01 * x
            for j in range(n):
                r = np.hypot(L[j, j], v[j])
                c, s = r / L[j, j], v[j] / L[j, j]
                L[j, j] = r
                col = L[j + 1:, j]
                col += s * v[j + 1:]
                col /= c
                v[j + 1:] = c * v[j + 1:] - s * col
        seconds = time.perf_counter() - t0
        self.times.append(seconds / self.steps)
        return seconds

    def step_seconds(self, first, last):
        """Mean seconds per reference step over ticks first..last (inclusive)."""
        return statistics.mean(self.times[first:last + 1])


class _Interleave:
    """Ticks the reference every Reference.PERIOD seconds during solves, from
    the objective_h call each solver iteration makes; `paused` accumulates
    the ticks' time so the caller can leave it out of a solve's time."""

    def __init__(self, ref):
        self.ref = ref
        self.paused = 0.0
        self.last = time.perf_counter()

    def __enter__(self):
        inner = self._inner = mvee.solvers.objective_h

        def objective_h(*args):
            now = time.perf_counter()
            if now - self.last >= self.ref.PERIOD:
                self.paused += self.ref.tick()
                self.last = time.perf_counter()
            return inner(*args)

        mvee.solvers.objective_h = objective_h
        return self

    def __exit__(self, *exc):
        mvee.solvers.objective_h = self._inner
        return False


# -- set-up ------------------------------------------------------------------

def import_seconds(root):
    """Import time of mvee.cli (with numpy and scipy) in a fresh interpreter,
    and the scale of the reference ticks that follow it there."""
    # the BLAS thread pins set by run.py are inherited through os.environ
    path = os.pathsep.join([str(Path(root) / "src"), str(Path(__file__).parent)])
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root,
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120, check=True)
    seconds, *ticks = map(float, out.stdout.split())
    return seconds, Reference.QUIET_STEP_S / statistics.mean(ticks)


def build_instances(spec, seed):
    """Lifted instances of a direct workload; the batch workload builds its
    own inside run_benchmark."""
    if spec.batch:
        return []
    return [(seed + r, mvee.problem.lift(
        mvee.harness.gen_sample(spec.n, spec.m, seed + r)))
        for r in range(spec.instances)]


def measure_setup(spec, seed, root):
    """SETUP_REPS set-ups, each a fresh-interpreter import plus the instance
    build; returns their raw times, the same scaled to the quiet host by the
    reference ticks run in the import's interpreter, and the instances of
    the last build."""
    raw, scaled, instances = [], [], None
    for _ in range(SETUP_REPS):
        instances = None  # one set alive at a time, as in a single set-up
        imp, scale = import_seconds(root)
        t0 = time.perf_counter()
        instances = build_instances(spec, seed)
        raw.append(imp + time.perf_counter() - t0)
        scaled.append(raw[-1] * scale)
    return raw, scaled, instances


# -- direct workloads ----------------------------------------------------------

def solve_one(spec, instance, X, algorithm):
    cfg = mvee.solvers.SolverConfig(algorithm=algorithm, epsilon=spec.epsilon,
                                    max_iter=spec.max_iter)
    t0 = time.perf_counter()
    try:
        report = mvee.solvers.solve(X, cfg)
    except MveeError as exc:
        return Solve(instance, algorithm, time.perf_counter() - t0,
                     error=f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    return Solve(instance, algorithm, seconds, report.iterations,
                 report.final_eps, report.final_h, report.converged,
                 report.u_final)


def direct_pass(spec, instances, seconds, ref):
    """Solve every (instance, algorithm) once, then keep cycling through them
    until `seconds` have passed.  Each solve is timed on its own, with
    reference ticks before, after and every Reference.PERIOD inside it."""
    cells = [(seed, X, alg) for seed, X in instances for alg in spec.algorithms]
    result = PassResult()
    ref.tick()
    t_end = time.perf_counter() + seconds
    with _Interleave(ref) as ticks:
        while len(result.solves) < len(cells) or time.perf_counter() < t_end:
            seed, X, alg = cells[len(result.solves) % len(cells)]
            first, paused = len(ref.times) - 1, ticks.paused
            ticks.last = time.perf_counter()
            solve = solve_one(spec, seed, X, alg)
            solve.seconds -= ticks.paused - paused
            ref.tick()
            result.solves.append(solve)
            result.wall.append(solve.seconds)
            result.iterations.append(solve.iterations)
            result.units.append(solve.iterations)
            result.step_s.append(ref.step_seconds(first, len(ref.times) - 1))
    return result


def direct_cycle(spec, seed):
    """Build the instances and solve each (instance, algorithm) once."""
    return [solve_one(spec, s, X, alg)
            for s, X in build_instances(spec, seed) for alg in spec.algorithms]


# -- batch workload ---------------------------------------------------------------

class _SolveCapture:
    """Times each solve run_benchmark makes, from outside, and keeps its
    outcome for the checks.  The harness's own `seconds` column is not used:
    it starts after the solver's initialisation."""

    def __init__(self, by_key):
        self.by_key = by_key
        self.solves = []

    def __enter__(self):
        inner = self._inner = mvee.harness.solve

        def timed(X, cfg, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                report = inner(X, cfg, *args, **kwargs)
            except MveeError as exc:
                self.solves.append(Solve(self._seed(X), cfg.algorithm.value,
                                         time.perf_counter() - t0,
                                         error=f"{type(exc).__name__}: {exc}"))
                raise
            seconds = time.perf_counter() - t0
            self.solves.append(Solve(
                self._seed(X), cfg.algorithm.value, seconds, report.iterations,
                report.final_eps, report.final_h, report.converged,
                report.u_final))
            return report

        mvee.harness.solve = timed
        return self

    def __exit__(self, *exc):
        mvee.harness.solve = self._inner
        return False

    def _seed(self, X):
        # lifted points carry the generated ones in their first n rows
        return self.by_key.get(X.points[:-1, :4].tobytes(), -1)


def instance_keys(spec, seed):
    """Map a fingerprint of each batch instance to its instance seed."""
    return {mvee.harness.gen_sample(spec.n, spec.m, seed + r)
            .points[:, :4].tobytes(): seed + r for r in range(spec.instances)}


def write_plan(spec, seed, workdir):
    path = Path(workdir) / "plan.ini"
    path.write_text(
        "[plan]\n"
        f"seed = {seed}\n"
        f"epsilon = {spec.epsilon!r}\n"
        f"max_iter = {spec.max_iter}\n"
        "init = kumar_yildirim\n"
        f"algorithms = {', '.join(spec.algorithms)}\n\n"
        "[regime.batch]\n"
        f"n = {spec.n}\n"
        f"m = {spec.m}\n"
        f"repetitions = {spec.instances}\n")
    return path


def bench_call(plan, keys, workdir):
    """One `mvee bench` call; returns (solves, wall seconds, rows)."""
    outdir = Path(tempfile.mkdtemp(dir=workdir))
    with _SolveCapture(keys) as cap:
        t0 = time.perf_counter()
        code = mvee.cli.main(["bench", "--plan", str(plan), "--output-dir",
                              str(outdir), "--parallelism",
                              str(BATCH_PARALLELISM)])
        wall = time.perf_counter() - t0
    with open(outdir / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    shutil.rmtree(outdir)
    if code != 0 and not any(s.error for s in cap.solves):
        cap.solves.append(Solve(-1, "bench", wall,
                                error=f"mvee bench exited {code}"))
    return cap.solves, wall, rows


def batch_pass(spec, plan, keys, workdir, seconds, ref):
    """Repeat the bench call until `seconds` have passed, with a reference
    tick before and after each."""
    result = PassResult()
    ref.tick()
    t_end = time.perf_counter() + seconds
    while not result.wall or time.perf_counter() < t_end:
        solves, wall, rows = bench_call(plan, keys, workdir)
        ref.tick()
        result.solves.extend(solves)
        result.wall.append(wall)
        result.iterations.append(sum(int(r["iterations"]) for r in rows))
        result.units.append(spec.instances * len(spec.algorithms))
        result.step_s.append(ref.step_seconds(len(ref.times) - 2,
                                              len(ref.times) - 1))
    return result


# -- output checks (untimed) -----------------------------------------------------

def fresh_eps(X, u, algorithm):
    """Certificate from a factor rebuilt from the final weights."""
    state = mvee.linalg.factor_from_weights(X, u)
    kappa = mvee.linalg.gradient_refresh(state, X)
    cert = mvee.problem.certificate(u, kappa, X.dim, 1.0)
    if algorithm == "fwk":
        return cert.eps_plus
    return max(cert.eps_plus, cert.eps_minus)


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)


def check(spec, seed, solves, references):
    """Judge every solve; returns (failed count, cert_drift, problems,
    number of solves compared with a recorded reference).

    A solve fails when it raised, did not converge on a converging
    workload, or its fresh certificate is above the tolerance.  Problems
    also list disagreements with the recorded references and between
    repeated solves of one instance, which make the run incorrect without
    failing a solve."""
    problems, failed, drift, compared = [], 0, 0.0, 0
    instances = {}
    first = {}
    refs = references.get(spec.name, {}).get(str(seed), {})
    for s in solves:
        key = (s.instance, s.algorithm)
        if s.error:
            failed += 1
            problems.append(f"{key}: {s.error}")
            continue
        if spec.converges and not s.converged:
            failed += 1
            problems.append(f"{key}: not converged in {s.iterations} iterations")
            continue
        if key in first:
            f = first[key]
            if (s.iterations, s.final_h) != (f.iterations, f.final_h):
                problems.append(f"{key}: repeat gave {s.iterations} iterations, "
                                f"h={s.final_h!r}; first gave {f.iterations}, "
                                f"h={f.final_h!r}")
            continue
        first[key] = s
        if s.instance not in instances:
            instances[s.instance] = mvee.problem.lift(
                mvee.harness.gen_sample(spec.n, spec.m, s.instance))
        fresh = fresh_eps(instances[s.instance], s.u_final, s.algorithm)
        drift = max(drift, abs(fresh - s.final_eps))
        if spec.converges and fresh > spec.epsilon:
            failed += 1
            problems.append(f"{key}: fresh eps {fresh:.3e} above {spec.epsilon}")
        if not spec.converges and s.iterations != spec.max_iter:
            problems.append(f"{key}: {s.iterations} iterations, budget "
                            f"{spec.max_iter}")
        ref = refs.get(str(s.instance), {}).get(s.algorithm)
        if ref is not None:
            compared += 1
            iters, h = ref
            if s.iterations != iters or not math.isclose(
                    s.final_h, h, rel_tol=1e-9, abs_tol=1e-9):
                problems.append(f"{key}: {s.iterations} iterations, h="
                                f"{s.final_h!r}; reference {iters}, h={h!r}")
    return failed, drift, problems, compared


# -- runs ---------------------------------------------------------------------------

def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _summary(spec, seed, solves, references):
    failed, drift, problems, compared = check(spec, seed, solves, references)
    distinct = {}
    for s in solves:
        distinct.setdefault((s.instance, s.algorithm), s.iterations)
    return {"attempted": len(solves), "failed": failed, "cert_drift": drift,
            "problems": problems, "iterations": sum(distinct.values()),
            "solves": len(distinct), "compared": compared}


def run_untraced(spec, seed, seconds, root, workdir):
    """End-to-end metrics of one timed pass plus the untimed checks."""
    setup_raw, setup, instances = measure_setup(spec, seed, root)
    references = load_references()
    ref = Reference(spec.n + 1, spec.m)  # the solvers see lifted points
    if spec.batch:
        plan = write_plan(spec, seed, workdir)
        timed = batch_pass(spec, plan, instance_keys(spec, seed), workdir,
                           seconds, ref)
    else:
        timed = direct_pass(spec, instances, seconds, ref)
    rss = peak_rss_mb()
    out = _summary(spec, seed, timed.solves, references)
    per_iter = [w / i for w, i in zip(timed.wall, timed.iterations) if i]
    costs = [w / u / r for w, u, r in
             zip(timed.wall, timed.units, timed.step_s) if u]
    kind = "bench calls" if spec.batch else "solves"
    unit = "solve" if spec.batch else "iteration"
    ok = [s.seconds for s in timed.solves if not s.error]
    pass_wall = sum(timed.wall)
    med = statistics.median
    out["report"] = {
        "solve_s": (med(ok) if ok else math.nan, "s",
                    f"median of {len(ok)} solves"),
        "solves_per_s": (len(timed.solves) / pass_wall, "1/s",
                         f"{len(timed.solves)} solves in {pass_wall:.3f} s"),
        "us_per_iter": (med(t * 1e6 for t in per_iter), "us",
                        f"median of {len(per_iter)} {kind}"),
        "work_cost": (med(costs), "ref_step",
                      f"seconds per {unit} over seconds per reference step "
                      f"timed beside it; median of {len(costs)} {kind}"),
        "iterations": (out["iterations"], "count",
                       f"one solve of each of {out['solves']} (instance, "
                       "algorithm)"),
        "setup_s": (med(setup), "s", f"median of {SETUP_REPS}, each scaled "
                    "to the quiet host by reference steps run beside it"),
        "raw_setup_s": (med(setup_raw), "s", "the same, unscaled"),
        "peak_rss_mb": (rss, "MB", "ru_maxrss of the benchmark process"),
        "failed_frac": (out["failed"] / max(1, out["attempted"]), "1",
                        f"{out['failed']} of {out['attempted']}"),
        "cert_drift": (out["cert_drift"], "1",
                       "max |fresh eps - reported eps|"),
        "ref_step_us": (med(ref.times) * 1e6, "us",
                        f"median of {len(ref.times)} ticks of {ref.steps} "
                        "reference steps"),
    }
    return out


def run_cycle(spec, seed, plan, keys, workdir):
    """One fixed unit of work: a direct workload builds and solves each
    (instance, algorithm) once; the batch workload makes one bench call."""
    if spec.batch:
        return bench_call(plan, keys, workdir)[0]
    return direct_cycle(spec, seed)


def run_traced(spec, seed, seconds, workdir):
    """Per-layer metrics: alternate untraced and traced cycles until
    `seconds` have passed (at least one pair).  Self times are medians over
    the traced cycles, counts come from the first (they repeat exactly).
    trace.overhead_frac compares the summed solve seconds of the traced
    and untraced cycles, so instance generation and lifting, which run
    outside the solves, do not dilute it."""
    references = load_references()
    plan = write_plan(spec, seed, workdir) if spec.batch else None
    keys = instance_keys(spec, seed) if spec.batch else None
    plain, traced, tracers, solves = [], [], [], []
    t_end = time.perf_counter() + seconds
    while not traced or time.perf_counter() < t_end:
        s = run_cycle(spec, seed, plan, keys, workdir)
        plain.append(sum(x.seconds for x in s))
        solves.extend(s)
        tracer = layers.Tracer()
        with tracer:
            s = run_cycle(spec, seed, plan, keys, workdir)
        traced.append(sum(x.seconds for x in s))
        tracers.append(tracer)
        solves.extend(s)
    out = _summary(spec, seed, solves, references)
    per_cycle = [t.layer_metrics() for t in tracers]
    metrics = dict(per_cycle[0])
    for key in metrics:
        if key.endswith("self_s"):
            metrics[key] = statistics.median(m[key] for m in per_cycle)
    metrics["linalg.cert_drift"] = out["cert_drift"]
    metrics["trace.overhead_frac"] = (statistics.median(traced)
                                      / statistics.median(plain) - 1.0)
    out["layers"] = metrics
    out["tracers"] = tracers
    return out
