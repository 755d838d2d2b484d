"""Instance generation, benchmark orchestration, and curve emission.

Instances fill a ball uniformly, then are pushed through a random
ill-conditioned linear map and shifted.  A uniform ball fill puts more of
its points near the surface than a standard-normal sample does, and more
so as n grows.  A benchmark plan is one solver setting (seed, epsilon,
max_iter, init) and a list of algorithms; it runs a grid of (regime x
repetition x algorithm), building each repetition's instance and start once
and solving it with every algorithm; the task that solves a run writes its
trace CSV.  An aggregate table adds per-(regime, algorithm) arithmetic means.
"""

import csv
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidInput, MveeError, check_int
from .problem import PointSet, lift
from .solvers import (Algorithm, InitScheme, SolverConfig, initial_weights,
                      solve, write_trace)


@dataclass
class Regime:
    """`repetitions` instances of m points in R^n, named `label` in outputs.
    The label starts each trace's file name, so it names no directory."""
    label: str
    n: int
    m: int
    repetitions: int = 1

    def __post_init__(self):
        if self.label in ("", ".", "..") or any(
                sep and sep in self.label for sep in ("/", os.sep, os.altsep)):
            raise InvalidInput(f"regime label {self.label!r} must be a plain "
                               "name: not empty, '.' or '..', and no '/'")
        check_int("n", self.n, 1)
        check_int("m", self.m, self.n + 1)  # a full-dimensional instance
        check_int("repetitions", self.repetitions, 1)


@dataclass
class BenchmarkPlan:
    """Every algorithm runs under one setting, SolverConfig's by default;
    repetition r's instance is seeded seed + r and its start seed."""
    regimes: Sequence[Regime]
    algorithms: Sequence[Algorithm]
    output_dir: Path
    seed: int = SolverConfig.seed
    epsilon: float = SolverConfig.epsilon
    max_iter: int = SolverConfig.max_iter
    init: InitScheme = SolverConfig.init

    def __post_init__(self):
        if not self.regimes:
            raise InvalidInput("plan needs at least one regime")
        if not self.algorithms:
            raise InvalidInput("plan needs at least one algorithm")
        self.configs = [SolverConfig(alg, self.epsilon, self.max_iter,
                                     self.init, self.seed)
                        for alg in self.algorithms]
        # one trace file and one row per (regime, algorithm, repetition)
        for kind, names in (("regime", [r.label for r in self.regimes]),
                            ("algorithm",
                             [c.algorithm.value for c in self.configs])):
            for i, name in enumerate(names):
                if name in names[:i]:
                    raise InvalidInput(f"{kind} {name!r} is listed twice")


@dataclass
class BenchmarkRow:
    """One solve of a plan: its iterations, seconds (start plus solve),
    final eps and convergence, or the error that failed it."""
    regime: str
    n: int
    m: int
    algorithm: str
    rep: int
    iterations: int
    seconds: float
    final_eps: float
    converged: bool
    error: Optional[str] = None


def gen_sample(n: int, m: int, seed: int) -> PointSet:
    """Deterministic random instance: volumetric fill, skewed and shifted.

    Unit directions are scaled by radii U^(1/n), uniform over the ball, so
    the 90th/10th percentile radius ratio is 9^(1/n) and tends to 1: 1.25 at
    n=10 and 1.08 at n=30, against 1.81 and 1.40 for a standard-normal
    sample.  The points then go through a random matrix with condition
    number log-uniform in [1, 100] and are translated.  Neither step changes
    the iteration count of a solve from the Khachiyan start, which is
    affine-invariant.  Returns a non-symmetric PointSet.
    """
    check_int("n", n, 1)
    check_int("m", m, n + 1)
    check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, m))
    # the column norms without a full-size temporary
    g /= np.sqrt(np.einsum("ij,ij->j", g, g))
    radii = rng.uniform(0.0, 1.0, m) ** (1.0 / n)
    g *= radii
    cond = 10.0 ** rng.uniform(0.0, 2.0)
    q1 = _random_orthogonal(rng, n)
    q2 = _random_orthogonal(rng, n)
    svals = np.exp(np.linspace(0.0, np.log(cond), n))
    amap = (q1 * svals) @ q2.T
    shift = rng.standard_normal(n)
    out = amap @ g
    out += shift[:, None]
    return PointSet(out, symmetric=False)


def _random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def delta_plus(kappa: np.ndarray, n: int):
    """Guaranteed per-iteration objective decrement for an increase step as a
    function of the leading quadratic form; increasing on [n, inf) with
    limit ln 2."""
    kappa = np.asarray(kappa, dtype=float)
    return np.log(2.0 * kappa - n) - np.log(kappa) + (n - kappa) * n / kappa**2


def delta_minus(kappa: np.ndarray, n: int):
    """Guaranteed decrement for a decrease/drop step; decreasing on (0, n]."""
    kappa = np.asarray(kappa, dtype=float)
    return np.log(kappa / n) + n / kappa - 1.0


def emit_decrement_curves(n_values: Sequence[int], output) -> None:
    """Sample both decrement curves at 500 points per curve per dimension
    and write them as CSV rows (n, curve, kappa, delta)."""
    if not n_values:
        raise InvalidInput("need at least one dimension")
    for n in n_values:
        check_int("n", n, 1)
    with open(output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "curve", "kappa", "delta"])
        for n in n_values:
            for curve, delta, lo, hi in (("plus", delta_plus, n, 20.0 * n),
                                         ("minus", delta_minus, 0.01 * n, n)):
                grid = np.linspace(lo, hi, 500)
                for k, d in zip(grid, delta(grid, n)):
                    writer.writerow([n, curve, repr(float(k)), repr(float(d))])


def run_benchmark(plan: BenchmarkPlan,
                  parallelism: int = 1) -> list[BenchmarkRow]:
    """Run every (regime, repetition, algorithm) cell of the plan on
    `parallelism` worker threads, writing the per-run traces and the two
    result tables into plan.output_dir.

    One task per (regime, repetition) builds the instance, seeded
    plan.seed + repetition, and its one start, then solves it with every
    algorithm and writes each solve's trace.  A row's seconds are the
    start's time plus the solve's, the time to solve from scratch.  The
    one failure path is a solve's MveeError: it fails that row alone, with
    no trace, and the plan goes on.  Neither the instance nor the start
    raises one, so a lower-dimensional instance fails every row of its
    repetition through its own solves, each at its first factor.  Rows
    come back in plan order whatever the parallelism (an integer of at
    least 1); only the seconds column depends on timing.
    """
    from concurrent.futures import ThreadPoolExecutor  # only mvee bench
    check_int("parallelism", parallelism, 1)
    tasks = [(regime, rep) for regime in plan.regimes
             for rep in range(regime.repetitions)]
    outdir = Path(plan.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    def _run(task):
        regime, rep = task
        X = lift(gen_sample(regime.n, regime.m, plan.seed + rep))
        t0 = time.perf_counter()
        start = initial_weights(X, plan.configs[0])
        start_s = time.perf_counter() - t0
        rows = []
        for cfg in plan.configs:
            alg = cfg.algorithm.value
            try:
                report = solve(X, cfg, start)
            except MveeError as exc:
                rows.append(BenchmarkRow(regime.label, regime.n, regime.m, alg,
                                         rep, 0, 0.0, float("nan"), False,
                                         error=str(exc)))
            else:
                write_trace(report.trace,
                            outdir / f"{regime.label}_{alg}_{rep}.csv")
                rows.append(BenchmarkRow(regime.label, regime.n, regime.m,
                                         alg, rep, report.iterations,
                                         start_s + report.wall_time,
                                         report.final_eps, report.converged))
        return rows

    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        rows = [row for solved in pool.map(_run, tasks) for row in solved]
    write_rows_csv(rows, outdir / "results.csv")
    write_means_csv(rows, outdir / "results_means.csv")
    return rows


def write_rows_csv(rows: Sequence[BenchmarkRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["regime", "n", "m", "algorithm", "rep", "iterations",
                         "seconds", "final_eps", "converged"])
        for r in rows:
            writer.writerow([r.regime, r.n, r.m, r.algorithm, r.rep,
                             r.iterations, repr(r.seconds), repr(r.final_eps),
                             "true" if r.converged else "false"])


def write_means_csv(rows: Sequence[BenchmarkRow], path) -> None:
    """Arithmetic means per (regime, algorithm), rows in first-seen order."""
    groups: dict[tuple, list[BenchmarkRow]] = {}
    for r in rows:
        groups.setdefault((r.regime, r.algorithm), []).append(r)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["regime", "n", "m", "algorithm", "mean_iterations",
                         "mean_seconds", "mean_final_eps", "converged_count"])
        for (regime, alg), grp in groups.items():
            ok = [(r.iterations, r.seconds, r.final_eps)
                  for r in grp if r.error is None]
            means = [np.mean(col) for col in zip(*ok)] if ok else [np.nan] * 3
            writer.writerow([regime, grp[0].n, grp[0].m, alg,
                             *(repr(float(x)) for x in means),
                             sum(1 for r in grp if r.converged)])
