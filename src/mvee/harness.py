"""Instance generation, benchmark orchestration, and curve emission.

Instances fill a ball uniformly, then are pushed through a random
ill-conditioned linear map and shifted.  A uniform ball fill puts more of
its points near the surface than a standard-normal sample does, and more
so as n grows.  Benchmarks run a grid of (regime x repetition x
algorithm), building each repetition's instance once and solving it with
every algorithm, and emit per-run trace CSVs plus an aggregate table with
per-(regime, algorithm) arithmetic means.
"""

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidInput, MveeError
from .problem import PointSet, lift
from .solvers import SolverConfig, solve, write_trace


@dataclass
class Regime:
    label: str
    n: int
    m: int
    repetitions: int

    def __post_init__(self):
        if self.repetitions < 1:
            raise InvalidInput("repetitions must be at least 1")
        if self.m < self.n + 1:
            raise InvalidInput("m must exceed n for a full-dimensional instance")


@dataclass
class BenchmarkPlan:
    regimes: Sequence[Regime]
    algorithms: Sequence[SolverConfig]
    output_dir: Path
    seed: int = 0

    def __post_init__(self):
        if not self.regimes:
            raise InvalidInput("plan needs at least one regime")
        if not self.algorithms:
            raise InvalidInput("plan needs at least one algorithm")


@dataclass
class BenchmarkRow:
    regime: str
    n: int
    m: int
    algorithm: str
    rep: int
    iterations: int
    seconds: float
    final_eps: float
    final_h: float
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
    if m < n + 1:
        raise InvalidInput("m must be at least n + 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, m))
    g /= np.linalg.norm(g, axis=0)
    radii = rng.uniform(0.0, 1.0, m) ** (1.0 / n)
    g *= radii
    cond = 10.0 ** rng.uniform(0.0, 2.0)
    q1 = _random_orthogonal(rng, n)
    q2 = _random_orthogonal(rng, n)
    svals = np.exp(np.linspace(0.0, np.log(cond), n)) if n > 1 else np.ones(1)
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
    with open(output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "curve", "kappa", "delta"])
        for n in n_values:
            grid = np.linspace(n, 20.0 * n, 500)
            for k, d in zip(grid, delta_plus(grid, n)):
                writer.writerow([n, "plus", repr(float(k)), repr(float(d))])
            grid = np.linspace(0.01 * n, n, 500)
            for k, d in zip(grid, delta_minus(grid, n)):
                writer.writerow([n, "minus", repr(float(k)), repr(float(d))])


def run_benchmark(plan: BenchmarkPlan,
                  parallelism: int = 1) -> list[BenchmarkRow]:
    """Run every (regime, repetition, algorithm) cell of the plan on
    `parallelism` worker threads, writing the per-run traces and the two
    result tables into plan.output_dir.

    One task per (regime, repetition) builds the instance, seeded
    plan.seed + repetition, once and solves it with every algorithm.
    Solver errors mark the row failed without aborting the rest of the
    plan; an instance that cannot be built marks every algorithm's row of
    its repetition.  Rows come back in plan order regardless of
    parallelism; only the seconds column depends on timing.
    """
    tasks = [(regime, rep) for regime in plan.regimes
             for rep in range(regime.repetitions)]

    def _failed(regime, rep, cfg, exc):
        return BenchmarkRow(regime.label, regime.n, regime.m,
                            cfg.algorithm.value, rep, 0, 0.0, float("nan"),
                            float("nan"), False, error=str(exc))

    def _run(task):
        regime, rep = task
        try:
            X = lift(gen_sample(regime.n, regime.m, plan.seed + rep))
        except MveeError as exc:
            return [(_failed(regime, rep, cfg, exc), None)
                    for cfg in plan.algorithms]
        out = []
        for cfg in plan.algorithms:
            try:
                report = solve(X, cfg)
            except MveeError as exc:
                out.append((_failed(regime, rep, cfg, exc), None))
                continue
            out.append((BenchmarkRow(regime.label, regime.n, regime.m,
                                     cfg.algorithm.value, rep,
                                     report.iterations, report.wall_time,
                                     report.final_eps, report.final_h,
                                     report.converged), report.trace))
        return out

    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        results = list(pool.map(_run, tasks))

    rows = []
    outdir = Path(plan.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for (regime, rep), solved in zip(tasks, results):
        for row, trace in solved:
            rows.append(row)
            if trace is not None:
                name = f"{regime.label}_{row.algorithm}_{rep}.csv"
                write_trace(trace, outdir / name)
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
            ok = [r for r in grp if r.error is None]
            writer.writerow([
                regime, grp[0].n, grp[0].m, alg,
                repr(float(np.mean([r.iterations for r in ok])) if ok else float("nan")),
                repr(float(np.mean([r.seconds for r in ok])) if ok else float("nan")),
                repr(float(np.mean([r.final_eps for r in ok])) if ok else float("nan")),
                sum(1 for r in grp if r.converged),
            ])
