import csv

import numpy as np
import pytest

import mvee.harness
from mvee.errors import MveeError, NotFullRank
from mvee.harness import (
    BenchmarkPlan,
    Regime,
    delta_minus,
    delta_plus,
    emit_decrement_curves,
    gen_sample,
    run_benchmark,
)
from mvee.problem import lift
from mvee.solvers import Algorithm, SolverConfig, init_kumar_yildirim

LN2 = np.log(2.0)


def tiny_plan(tmp_path, parallelism_dir="out"):
    return BenchmarkPlan(
        regimes=[Regime("tiny", 4, 30, 2)],
        algorithms=[
            SolverConfig(algorithm=Algorithm.CD_CONST, epsilon=1e-6,
                         max_iter=5000),
            SolverConfig(algorithm=Algorithm.WA, epsilon=1e-6, max_iter=5000),
        ],
        seed=7,
        output_dir=tmp_path / parallelism_dir,
    )


# --- instance generator ---------------------------------------------------------

def test_gen_sample_deterministic():
    a = gen_sample(2, 10, 7)
    b = gen_sample(2, 10, 7)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, gen_sample(2, 10, 8).points)


def test_gen_sample_shape_and_flags():
    ps = gen_sample(10, 500, 1)
    assert ps.dim == 10 and ps.count == 500
    assert not ps.symmetric


def test_gen_sample_precondition():
    with pytest.raises(MveeError):
        gen_sample(2, 2, 0)


def test_gen_sample_radial_spread():
    # uniform-over-ball radii: the 90/10 percentile ratio is 9^(1/n)
    for n, floor in [(2, 1.5), (10, 1.2)]:
        pre = []
        for s in range(5):
            rng = np.random.default_rng(s)
            d = rng.standard_normal((n, 2000))
            d /= np.linalg.norm(d, axis=0)
            r = rng.uniform(size=2000) ** (1.0 / n)
            pre.append(np.percentile(r, 90) / np.percentile(r, 10))
        assert min(pre) > floor
    # affine-invariant radii of the mapped cloud inherit the ball profile.
    # At n=2 that ratio is 9^(1/2) = 3; it falls toward 1 as n grows (1.25
    # at n=10, below a standard-normal sample's 1.81), so the ball fill
    # concentrates near its surface in the regimes the benchmark uses
    ps = gen_sample(2, 4000, 11)
    centered = ps.points - ps.points.mean(axis=1, keepdims=True)
    cov = centered @ centered.T / 4000
    q = np.einsum("ij,ij->j", centered, np.linalg.solve(cov, centered))
    radii = np.sqrt(q)
    assert np.percentile(radii, 90) / np.percentile(radii, 10) > 1.5


def test_gen_sample_condition_number_bounded():
    ps = gen_sample(6, 4000, 3)
    centered = ps.points - ps.points.mean(axis=1, keepdims=True)
    cov = centered @ centered.T / 4000
    w = np.linalg.eigvalsh(cov)
    assert w.max() / w.min() < 1e6  # map condition capped at 100 => cov at 1e4


def _gen_sample_out_of_place(n, m, seed):
    # gen_sample as first written, one new array per operation
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, m))
    g /= np.linalg.norm(g, axis=0)
    radii = rng.uniform(0.0, 1.0, m) ** (1.0 / n)
    pts = g * radii
    cond = 10.0 ** rng.uniform(0.0, 2.0)
    q1 = mvee.harness._random_orthogonal(rng, n)
    q2 = mvee.harness._random_orthogonal(rng, n)
    svals = np.exp(np.linspace(0.0, np.log(cond), n)) if n > 1 else np.ones(1)
    amap = (q1 * svals) @ q2.T
    shift = rng.standard_normal(n)
    return amap @ pts + shift[:, None]


def _kumar_yildirim_out_of_place(pts, seed):
    # init_kumar_yildirim as first written, |d . x| a new array per direction
    n, m = pts.shape
    rng = np.random.default_rng(seed)
    Q = np.zeros((n, 0))
    chosen = []
    for _ in range(n):
        for _attempt in range(n):
            cand = rng.standard_normal(n)
            if Q.shape[1]:
                cand = cand - Q @ (Q.T @ cand)
            norm = np.linalg.norm(cand)
            if norm >= 1e-10:
                d = cand / norm
                break
        j = int(np.argmax(np.abs(d @ pts)))
        r = pts[:, j].copy()
        if Q.shape[1]:
            r = r - Q @ (Q.T @ r)
        Q = np.hstack([Q, (r / np.linalg.norm(r))[:, None]])
        chosen.append(j)
    u = np.zeros(m)
    u[chosen] = 1.0 / n
    return u


@pytest.mark.parametrize("n,m", [(20, 20_000), (100, 3000)])
def test_instance_build_matches_out_of_place_reference(n, m):
    # gen_sample and the Kumar-Yildirim start work in place; the instance
    # streams and starts, which the benchmark's references depend on, stay
    # bit-identical to the out-of-place code
    ps = gen_sample(n, m, 1234)
    assert np.array_equal(ps.points, _gen_sample_out_of_place(n, m, 1234))
    X = lift(ps)
    for seed in (0, 7):
        assert np.array_equal(init_kumar_yildirim(X, seed).u,
                              _kumar_yildirim_out_of_place(X.points, seed))


# --- decrement curves -------------------------------------------------------------

def test_delta_boundaries_vanish():
    for n in (1, 2, 3):
        assert delta_plus(np.array([float(n)]), n)[0] == pytest.approx(0.0)
        assert delta_minus(np.array([float(n)]), n)[0] == pytest.approx(0.0)


def test_delta_plus_increases_to_log2():
    for n in (1, 2, 3):
        grid = np.linspace(n, 20.0 * n, 500)
        vals = delta_plus(grid, n)
        assert (np.diff(vals) > 0).all()
        assert abs(delta_plus(np.array([1e6 * n]), n)[0] - LN2) < 1e-4


def test_delta_minus_decreases_and_dominates_log2():
    for n in (1, 2, 3):
        grid = np.linspace(0.01 * n, float(n), 500)
        vals = delta_minus(grid, n)
        assert (np.diff(vals) < 0).all()
        assert delta_minus(np.array([0.3 * n]), n)[0] > LN2


def test_emit_decrement_curves_file(tmp_path):
    out = tmp_path / "curves.csv"
    emit_decrement_curves([1, 2], out)
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2 * 500  # two curves, 500 points, two n values
    plus_n1 = [r for r in rows if r["n"] == "1" and r["curve"] == "plus"]
    assert len(plus_n1) == 500
    k = float(plus_n1[7]["kappa"])
    assert float(plus_n1[7]["delta"]) == pytest.approx(
        delta_plus(np.array([k]), 1)[0], rel=1e-12)


# --- benchmark orchestration ---------------------------------------------------------

def test_plan_validation(tmp_path):
    with pytest.raises(MveeError):
        Regime("bad", 4, 4, 1)
    with pytest.raises(MveeError):
        Regime("bad", 4, 30, 0)
    with pytest.raises(MveeError):
        BenchmarkPlan(regimes=[], algorithms=[SolverConfig()],
                      output_dir=tmp_path)
    with pytest.raises(MveeError):
        BenchmarkPlan(regimes=[Regime("r", 4, 30, 1)], algorithms=[],
                      output_dir=tmp_path)


def test_run_benchmark_rows_and_files(tmp_path):
    plan = tiny_plan(tmp_path)
    rows = run_benchmark(plan)
    assert len(rows) == 4  # 1 regime x 2 reps x 2 algorithms
    assert [r.rep for r in rows] == [0, 0, 1, 1]
    for row in rows:
        assert row.error is None
        assert row.converged
        assert row.final_eps <= 1e-6  # converged implies tolerance met

    outdir = plan.output_dir
    assert (outdir / "results.csv").exists()
    assert (outdir / "results_means.csv").exists()
    for alg in ("cd_const", "wa"):
        for rep in (0, 1):
            assert (outdir / f"tiny_{alg}_{rep}.csv").exists()

    with open(outdir / "results.csv") as fh:
        got = list(csv.DictReader(fh))
    assert len(got) == 4
    assert got[0]["regime"] == "tiny"
    assert got[0]["converged"] == "true"
    assert int(got[0]["iterations"]) == rows[0].iterations


def test_run_benchmark_shares_instances_within_rep(tmp_path):
    rows = run_benchmark(tiny_plan(tmp_path))
    # same instance => identical optimal objective across algorithms
    by_rep = {}
    for r in rows:
        by_rep.setdefault(r.rep, []).append(r.final_h)
    for rep, hs in by_rep.items():
        assert hs[0] == pytest.approx(hs[1], rel=1e-6)


def test_run_benchmark_builds_each_instance_once(tmp_path, monkeypatch):
    seeds = []
    real = mvee.harness.gen_sample

    def counting(n, m, seed):
        seeds.append(seed)
        return real(n, m, seed)

    monkeypatch.setattr(mvee.harness, "gen_sample", counting)
    rows = run_benchmark(tiny_plan(tmp_path), parallelism=2)
    assert sorted(seeds) == [7, 8]  # one build per repetition, not per solve
    assert [(r.rep, r.algorithm) for r in rows] == [
        (0, "cd_const"), (0, "wa"), (1, "cd_const"), (1, "wa")]


def test_run_benchmark_unbuildable_instance_fails_every_algorithm(
        tmp_path, monkeypatch):
    real = mvee.harness.gen_sample

    def failing(n, m, seed):
        if seed == 8:
            raise NotFullRank("instance 8 is degenerate")
        return real(n, m, seed)

    monkeypatch.setattr(mvee.harness, "gen_sample", failing)
    plan = tiny_plan(tmp_path)
    rows = run_benchmark(plan)
    assert [(r.rep, r.algorithm) for r in rows] == [
        (0, "cd_const"), (0, "wa"), (1, "cd_const"), (1, "wa")]
    assert [r.error for r in rows] == [None, None,
                                       "instance 8 is degenerate",
                                       "instance 8 is degenerate"]
    assert not rows[2].converged and rows[2].iterations == 0
    assert (plan.output_dir / "tiny_wa_0.csv").exists()
    assert not (plan.output_dir / "tiny_wa_1.csv").exists()


def test_run_benchmark_parallel_determinism(tmp_path):
    seq = run_benchmark(tiny_plan(tmp_path, "a"), parallelism=1)
    par = run_benchmark(tiny_plan(tmp_path, "b"), parallelism=4)
    assert [r.iterations for r in seq] == [r.iterations for r in par]
    assert [r.final_eps for r in seq] == [r.final_eps for r in par]
    assert [(r.regime, r.algorithm, r.rep) for r in seq] == \
        [(r.regime, r.algorithm, r.rep) for r in par]


def test_means_csv_aggregates(tmp_path):
    plan = tiny_plan(tmp_path)
    rows = run_benchmark(plan)
    with open(plan.output_dir / "results_means.csv") as fh:
        means = {(r["regime"], r["algorithm"]): r for r in csv.DictReader(fh)}
    cd = means[("tiny", "cd_const")]
    cd_rows = [r for r in rows if r.algorithm == "cd_const"]
    assert float(cd["mean_iterations"]) == pytest.approx(
        np.mean([r.iterations for r in cd_rows]))
    assert int(cd["converged_count"]) == 2
