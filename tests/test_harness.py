import csv
import math
import time

import numpy as np
import pytest

import mvee.harness
import mvee.solvers
from mvee.errors import InvalidInput, MveeError
from mvee.harness import (
    BenchmarkPlan,
    Regime,
    delta_minus,
    delta_plus,
    emit_decrement_curves,
    gen_sample,
    run_benchmark,
)
from mvee.problem import PointSet, lift
from mvee.solvers import (Algorithm, init_kumar_yildirim, initial_weights,
                          solve)

LN2 = np.log(2.0)


def tiny_plan(tmp_path, parallelism_dir="out",
              algorithms=(Algorithm.CD_CONST, Algorithm.WA)):
    return BenchmarkPlan(
        regimes=[Regime("tiny", 4, 30, 2)],
        algorithms=list(algorithms),
        seed=7, epsilon=1e-6, max_iter=5000,
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


@pytest.mark.parametrize("n_values", [[0], [-2], [1, 0]],
                         ids=["zero", "negative", "zero_after_one"])
def test_emit_decrement_curves_rejects_nonpositive_dimensions(tmp_path,
                                                              n_values):
    # a dimension below 1 would write rows of nan; the API refuses it
    # before it opens the output
    out = tmp_path / "curves.csv"
    with pytest.raises(InvalidInput):
        emit_decrement_curves(n_values, out)
    assert not out.exists()


# --- benchmark orchestration ---------------------------------------------------------

def test_plan_validation(tmp_path):
    with pytest.raises(MveeError):
        Regime("bad", 4, 4, 1)
    with pytest.raises(MveeError):
        Regime("bad", 4, 30, 0)
    with pytest.raises(MveeError):
        BenchmarkPlan(regimes=[], algorithms=[Algorithm.CD_CONST],
                      output_dir=tmp_path)
    with pytest.raises(MveeError):
        BenchmarkPlan(regimes=[Regime("r", 4, 30, 1)], algorithms=[],
                      output_dir=tmp_path)


def test_plan_rejects_a_repeated_regime_label(tmp_path):
    # two regimes labelled 'a' would write one a_cd_const_0.csv and average
    # both into one results_means.csv row; the repeated-algorithm case is
    # tests/test_cli.py's plan file "repeated_algorithm"
    out = tmp_path / "out"
    with pytest.raises(InvalidInput) as exc:
        BenchmarkPlan([Regime("a", 3, 20, 1), Regime("a", 4, 30, 1)],
                      [Algorithm.CD_CONST], out)
    assert str(exc.value) == "regime 'a' is listed twice"
    assert not out.exists()


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
    plan = tiny_plan(tmp_path)
    run_benchmark(plan)

    def last_h(alg, rep):
        with open(plan.output_dir / f"tiny_{alg}_{rep}.csv") as fh:
            return float(list(csv.DictReader(fh))[-1]["h"])

    # same instance => the same optimal objective across algorithms
    for rep in (0, 1):
        assert last_h("cd_const", rep) == pytest.approx(last_h("wa", rep),
                                                        rel=1e-6)


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


# every algorithm of the plan, so a start shared by all of them shows
EVERY_ALGORITHM = (Algorithm.CD_CONST, Algorithm.WA, Algorithm.RCD,
                   Algorithm.FWK)


def test_run_benchmark_computes_one_start_per_repetition(tmp_path,
                                                         monkeypatch):
    seeds = []
    real = mvee.solvers.init_kumar_yildirim

    def counting(X, seed):
        seeds.append(seed)
        return real(X, seed)

    monkeypatch.setattr(mvee.solvers, "init_kumar_yildirim", counting)
    rows = run_benchmark(tiny_plan(tmp_path, algorithms=EVERY_ALGORITHM),
                         parallelism=2)
    assert [r.error for r in rows] == [None] * 8
    # one start per repetition, drawn with the plan's seed, not one per solve
    assert seeds == [7, 7]


def test_run_benchmark_seconds_include_the_shared_start(tmp_path,
                                                        monkeypatch):
    real = mvee.harness.initial_weights

    def slow(X, cfg):
        time.sleep(0.05)
        return real(X, cfg)

    monkeypatch.setattr(mvee.harness, "initial_weights", slow)
    rows = run_benchmark(tiny_plan(tmp_path))
    # cd_const and wa share each start, and both rows count it
    assert all(r.seconds >= 0.05 for r in rows)


def test_run_benchmark_flat_instance_fails_its_repetition(tmp_path,
                                                          monkeypatch):
    # neither the instance nor the start raises: a flat instance fails each
    # row of its repetition through its own solve, at the first factor
    real = mvee.harness.gen_sample

    def flat_at_8(n, m, seed):
        points = real(n, m, seed).points
        if seed == 8:
            points[-1] = 0.5  # every point on one hyperplane
        return PointSet(points)

    plain = run_benchmark(tiny_plan(tmp_path, "plain", EVERY_ALGORITHM))
    monkeypatch.setattr(mvee.harness, "gen_sample", flat_at_8)
    rows = run_benchmark(tiny_plan(tmp_path, "flat", EVERY_ALGORITHM))
    assert [(r.rep, r.algorithm, r.error) for r in rows] == [
        (0, alg.value, None) for alg in EVERY_ALGORITHM] + [
        (1, alg.value, "weighted points are rank deficient")
        for alg in EVERY_ALGORITHM]
    assert not any(r.converged or r.iterations or r.seconds
                   for r in rows[4:])
    assert all(math.isnan(r.final_eps) for r in rows[4:])
    for row, before in zip(rows[:4], plain[:4]):
        assert (row.iterations, row.final_eps, row.converged) == (
            before.iterations, before.final_eps, before.converged)
    for alg in EVERY_ALGORITHM:
        trace = f"tiny_{alg.value}_0.csv"
        assert (tmp_path / "flat" / trace).read_bytes() == (
            tmp_path / "plain" / trace).read_bytes()
        assert not (tmp_path / "flat" / f"tiny_{alg.value}_1.csv").exists()


def test_run_benchmark_rows_carry_the_solve_certificate(tmp_path):
    # a row reports what solve() reports on its instance from its start:
    # the certificate of the returned weights, with a capped solve among
    # them
    plan = BenchmarkPlan(regimes=[Regime("tiny", 4, 30, 2)],
                         algorithms=list(EVERY_ALGORITHM), seed=7,
                         epsilon=1e-3, max_iter=200, output_dir=tmp_path)
    rows = run_benchmark(plan)
    for row, cfg in zip(rows, plan.configs * 2):
        assert row.algorithm == cfg.algorithm.value
        X = lift(gen_sample(4, 30, plan.seed + row.rep))
        rep = solve(X, cfg, initial_weights(X, plan.configs[0]))
        assert (row.final_eps, row.converged) == (rep.final_eps,
                                                  rep.converged)
    assert {row.converged for row in rows} == {True, False}


def test_run_benchmark_parallel_determinism(tmp_path):
    seq = run_benchmark(tiny_plan(tmp_path, "a"), parallelism=1)
    par = run_benchmark(tiny_plan(tmp_path, "b"), parallelism=4)
    assert [r.iterations for r in seq] == [r.iterations for r in par]
    assert [r.final_eps for r in seq] == [r.final_eps for r in par]
    assert [(r.regime, r.algorithm, r.rep) for r in seq] == \
        [(r.regime, r.algorithm, r.rep) for r in par]
    # each task writes its own traces: the files do not depend on the pool
    a, b = tmp_path / "a", tmp_path / "b"
    traces = sorted(p.name for p in a.glob("tiny_*.csv"))
    assert len(traces) == 4
    assert traces == sorted(p.name for p in b.glob("tiny_*.csv"))
    for name in traces:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def without_seconds(path):
        with open(path) as fh:
            return [{k: v for k, v in row.items() if k != "seconds"}
                    for row in csv.DictReader(fh)]

    assert without_seconds(a / "results.csv") == \
        without_seconds(b / "results.csv")


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
