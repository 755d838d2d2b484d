"""Acceptance suite: one test per numbered criterion, pinned tolerances.

Each test asserts the criterion exactly as stated; measured values ride
along in the failure messages.  Criterion 1 holds every algorithm to the
analytic fixtures at 1e-6, except cd_diminish on the square, which is
checked at the O(2/(K+2)) accuracy its schedule can reach (see the test).

Criteria 2, 3, 4, 9 and 10 fail, and are left failing rather than
loosened: no cap, tolerance, seed or instance in criteria 2-12 is to be
loosened or re-chosen to make them pass.

- Criterion 2 fails on its Frank-Wolfe clause.  cd_const and wa agree on
  every seed (h to 1e-13, shape to 2e-7), but 20,000 fwk iterations leave
  h about 4e-4 relative and the shape 4-10e-4 off: the ~1/k tail of fwk.
  The budget is kept as written, since the paper's comparison protocol
  for fwk is not in the repository.  The 30 s clause holds: the whole
  criterion takes about 9 s on a 2-core host, 7.4 s of it fwk's 200,000
  iterations at about 37 us each.
- Criteria 3, 4, 9 (its cd_const clause; the rcd clause passes) and 10
  hold per-instance iteration caps against gen_sample's instance family:
  a uniformly filled ball, then skewed and shifted.  The skew and shift
  do not change the counts (from the Khachiyan start, cd_const to 1e-5
  takes 15,370 / 8,841 / 5,811 iterations on seeds 1234-1236, on the raw
  and on whitened copies alike); the ball fill does.  cd_const to 1e-4
  takes 3,472-7,545 iterations on seeds 1234-1243 against criterion 10's
  200, and 341-689 on standard-normal instances with the same seeds.  No
  family tried meets every cap either: on criterion 2's standard-normal
  instances, reaching 1e-7 takes cd_const 1,038-2,237 and wa 708-1,947
  iterations against caps of 1380 and 1254.  The source of the caps is
  not in the repository, so these tests wait for the paper's instance
  protocol; switching the fixtures to another family would re-choose the
  data to hide the gap.
"""

import os
import time

import numpy as np
import pytest

from mvee.harness import delta_minus, delta_plus, gen_sample
from mvee.linalg import factor_from_weights, gradient_refresh, rank_one_modify
from mvee.problem import DualWeights, PointSet, lift, volume
from mvee.solvers import Algorithm, SolverConfig, StepType, enclose, solve

from conftest import (
    MODERATE_CAP_CD,
    MODERATE_CAP_WA,
    PLAN_SEED,
    SMALL_CAP_CD,
    SMALL_CAP_WA,
)

SQUARE = PointSet(np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]]))
INTERVAL = PointSet(np.array([[0.0, 1.0]]))


def run_lifted(ps, **kwargs):
    E, rep = enclose(ps, SolverConfig(**kwargs))
    return rep, E


def square_errors(E):
    """Errors of a recovered ellipsoid against the square's analytic one,
    {x : |x|^2 <= 2}: center 0, shape I, level 2, volume 2 pi."""
    return {
        "center": float(np.abs(E.center).max()),
        "shape": float(np.abs(E.shape - np.eye(2)).max()),
        "level": abs(E.level - 2.0) / 2.0,
        "volume": abs(volume(E) - 2 * np.pi) / (2 * np.pi),
    }


def diminishing_square_bounds(lam):
    """Largest square errors when every lifted weight lies within one
    schedule step lam of its analytic value 1/4.

    Write u_i = 1/4 + d_i with |d_i| <= lam and s = sum(u) >= 1 - 4 lam.
    The corners p_i sum to zero and have entries +-1, so the center
    c = sum(d_i p_i) / s and the off-diagonal o = sum(d_i p_i1 p_i2) / s of
    the second moment are at most a = 4 lam / (1 - 4 lam); its diagonal is
    exactly 1.  The covariance I + E then has E_kk = -c_k^2 and
    E_12 = o - c_1 c_2, so ||E||_2 <= max row sum <= r = a + 2 a^2.  Hence
    |H - I|_max <= ||(I + E)^-1 - I||_2 <= r / (1 - r), the volume ratio
    sqrt(det(I + E)) lies in [1 - r, 1 + r], and the level is n exactly.
    To first order every bound is 4 lam; at lam = 2/102 they are 4.3, 5.6
    and 5.1 lam.
    """
    a = 4.0 * lam / (1.0 - 4.0 * lam)
    r = a + 2.0 * a * a
    return {"center": a, "shape": r / (1.0 - r), "level": 0.0, "volume": r}


def diminishing_square_failures(budget):
    """Check the 2/(k+2) schedule on the square at budgets K and 10K.

    The schedule moves one weight by lam_k = 2/(k+2) per step, so after K
    steps the weights sit within about one step lam_K of 1/4 and the
    recovered ellipsoid is accurate to O(lam_K), not to 1e-6 (criterion 10
    relies on the same stall).  Each error must stay within
    diminishing_square_bounds(lam_K), and the largest error at 10K must be
    at most a fifth of the one at K, where lam falls by about ten.
    """
    failures, worst = [], []
    for k in (budget, 10 * budget):
        rep, E = run_lifted(SQUARE, algorithm=Algorithm.CD_DIMINISH,
                            epsilon=1e-9, max_iter=k)
        lam = 2.0 / (k + 2.0)
        errs = square_errors(E)
        bounds = diminishing_square_bounds(lam)
        over = {key: f"{errs[key] / lam:.3g} lam > {bounds[key] / lam:.3g} lam"
                for key in errs if errs[key] > bounds[key]}
        if over:
            failures.append(f"cd_diminish square after {rep.iterations} "
                            f"iterations (lam {lam:.3e}): {over}")
        worst.append((max(errs.values()), rep.iterations))
    (err_short, iters_short), (err_long, iters_long) = worst
    if err_long > err_short / 5.0:
        failures.append(f"cd_diminish square: error {err_long:.3e} after "
                        f"{iters_long} iterations is not a fifth of "
                        f"{err_short:.3e} after {iters_short}")
    return failures


def test_criterion_01_analytic_fixtures():
    """Square corners and the unit interval recover exactly, per algorithm,
    to 1e-6 relative, in under a second total.

    The 2/(k+2) schedule is the exception on the square: it reaches that
    accuracy only after about 4e6 iterations, far past the 1 s budget.
    There cd_diminish is checked at the accuracy its schedule can reach
    after K = 100 and 10K iterations (diminishing_square_failures).  On the
    interval its Kumar-Yildirim start is already optimal, so the 1e-6
    clause holds there as for every other algorithm.
    """
    failures = []
    t0 = time.perf_counter()
    for alg in Algorithm:
        cap = 20_000 if alg is Algorithm.CD_DIMINISH else 100_000
        if alg is not Algorithm.CD_DIMINISH:
            rep, E = run_lifted(SQUARE, algorithm=alg, epsilon=1e-9,
                                max_iter=cap)
            errs = square_errors(E)
            if max(errs.values()) > 1e-6:
                failures.append(f"{alg.value} square: {errs} "
                                f"(converged={rep.converged}, "
                                f"final_eps={rep.final_eps:.3e})")

        rep, E = run_lifted(INTERVAL, algorithm=alg, epsilon=1e-9,
                            max_iter=cap)
        c_err = abs(E.center[0] - 0.5)
        h_err = abs(E.shape[0, 0] - 4.0) / 4.0
        if max(c_err, h_err) > 1e-6:
            failures.append(f"{alg.value} interval: center err {c_err:.3e}, "
                            f"shape err {h_err:.3e} "
                            f"(final_eps={rep.final_eps:.3e})")
    failures += diminishing_square_failures(100)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"fixtures took {elapsed:.2f}s"
    assert not failures, "; ".join(failures)


def test_criterion_02_cross_solver_uniqueness():
    """On 10 seeded instances (n=10, m=500) the exact-stepsize solvers and
    the plain Frank-Wolfe solver land on one optimum: objectives agree
    pairwise to 1e-6 relative, shape matrices to 1e-4 max-norm, under 30s."""
    t0 = time.perf_counter()
    objective, shapes = {}, {}
    budgets = {
        Algorithm.CD_CONST: 100_000,
        Algorithm.WA: 100_000,
        Algorithm.FWK: 20_000,  # about 0.75 s per seed on a 2-core host
    }
    for seed in range(10):
        rng = np.random.default_rng(seed)
        ps = PointSet(rng.standard_normal((10, 500)))
        lifted = lift(ps)
        for alg, cap in budgets.items():
            E, rep = enclose(ps, SolverConfig(algorithm=alg, epsilon=1e-7,
                                              max_iter=cap))
            w = rep.u_final.u / rep.u_final.u.sum()
            M = (lifted.points * w) @ lifted.points.T
            objective[(seed, alg)] = -np.linalg.slogdet(M)[1]
            shapes[(seed, alg)] = E.shape
    elapsed = time.perf_counter() - t0

    pairs = [(Algorithm.CD_CONST, Algorithm.WA),
             (Algorithm.CD_CONST, Algorithm.FWK),
             (Algorithm.WA, Algorithm.FWK)]
    failures = []
    for seed in range(10):
        for a, b in pairs:
            ga, gb = objective[(seed, a)], objective[(seed, b)]
            rel = abs(ga - gb) / max(abs(ga), abs(gb))
            if rel > 1e-6:
                failures.append(f"seed {seed} {a.value}/{b.value}: "
                                f"objective rel diff {rel:.3e}")
            dh = float(np.abs(shapes[(seed, a)] - shapes[(seed, b)]).max())
            if dh > 1e-4:
                failures.append(f"seed {seed} {a.value}/{b.value}: "
                                f"shape max diff {dh:.3e}")
    # both clauses in one message, so a slow run does not hide disagreements
    problems = []
    if not elapsed < 30.0:
        problems.append(f"took {elapsed:.1f}s")
    if failures:
        problems.append(f"{len(failures)} disagreements: "
                        + "; ".join(failures[:6]))
    assert not problems, " | ".join(problems)


def test_criterion_03_small_regime_iteration_budget(cd_small, wa_small):
    """All 10 small-regime instances reach eps 1e-7 within 1380 (constant
    coordinate descent) / 1254 (away-step) iterations, under 30s."""
    cd_reports, cd_elapsed = cd_small
    wa_reports, wa_elapsed = wa_small
    failures = []
    for label, reports, cap in (("cd_const", cd_reports, SMALL_CAP_CD),
                                ("wa", wa_reports, SMALL_CAP_WA)):
        for seed, rep in reports.items():
            if not (rep.converged and rep.iterations <= cap):
                failures.append(
                    f"{label} seed {seed}: eps {rep.final_eps:.2e} after "
                    f"{rep.iterations} iterations (cap {cap})")
    elapsed = cd_elapsed + wa_elapsed
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    assert not failures, f"{len(failures)}/20 runs missed the budget: " + \
        "; ".join(failures[:4])


def test_criterion_04_moderate_regime_iteration_budget(cd_moderate,
                                                       wa_moderate):
    """All 10 moderate-regime instances (n=30, m=1800) reach eps 1e-7 within
    2929 / 2686 iterations, under 3 minutes."""
    cd_reports, cd_elapsed = cd_moderate
    wa_reports, wa_elapsed = wa_moderate
    failures = []
    for label, reports, cap in (("cd_const", cd_reports, MODERATE_CAP_CD),
                                ("wa", wa_reports, MODERATE_CAP_WA)):
        for seed, rep in reports.items():
            if not (rep.converged and rep.iterations <= cap):
                failures.append(
                    f"{label} seed {seed}: eps {rep.final_eps:.2e} after "
                    f"{rep.iterations} iterations (cap {cap})")
    elapsed = cd_elapsed + wa_elapsed
    assert elapsed < 180.0, f"took {elapsed:.1f}s"
    assert not failures, f"{len(failures)}/20 runs missed the budget: " + \
        "; ".join(failures[:4])


def test_criterion_05_per_step_decrement_bounds(cd_small, cd_moderate):
    """Across at least 10^4 recorded constant-stepsize iterations, every
    step decreases the objective by at least its guaranteed bound
    (slack 1e-10): (n-k)^2/(2k^2) on add/increase, (n-k)^2/(2nk) on
    decrease, and drops never increase it."""
    total = 0
    worst = np.inf
    violations = []
    for reports, n in ((cd_small[0], 11), (cd_moderate[0], 31)):
        for seed, rep in reports.items():
            trace = rep.trace
            for k, rec in enumerate(trace):
                h_next = trace[k + 1].h_value if k + 1 < len(trace) \
                    else rep.final_h
                dec = rec.h_value - h_next
                if rec.step_type in (StepType.ADD, StepType.INCREASE):
                    kap = rec.kappa_max
                    bound = (n - kap) ** 2 / (2.0 * kap * kap)
                elif rec.step_type is StepType.DECREASE:
                    kap = rec.kappa_min_support
                    bound = (n - kap) ** 2 / (2.0 * n * kap)
                else:
                    bound = 0.0
                margin = dec - bound
                worst = min(worst, margin)
                if margin < -1e-10:
                    violations.append((seed, k, rec.step_type.value, margin))
                total += 1
    assert total >= 10_000, f"only {total} recorded iterations"
    assert not violations, (f"{len(violations)} of {total} steps below "
                            f"bound; worst margin {worst:.3e}")


def _gap_increase(t, n):
    # one-step decrease minus its bound, increase branch stepsize
    return np.log(2.0 - n / t) - n * (t - n) / t ** 2 - (n - t) ** 2 / (2 * t ** 2)


def _gap_decrease(t, n):
    return np.log(t / n) + n / t - 1.0 - (n - t) ** 2 / (2 * n * t)


def _gap_drop(t, kap, n):
    # clamped decrease by t < (n-kap)/(n kap) still never increases h
    return n * t + np.log(1.0 - t * kap)


def test_criterion_06_stepsize_inequality_grids():
    """The three per-branch decrement inequalities hold on 1000-point grids
    for n in {1, 2, 3}, within -1e-12, in under a second."""
    t0 = time.perf_counter()
    worst = np.inf
    for n in (1, 2, 3):
        inc = _gap_increase(np.linspace(n, 50.0 * n, 1000), n)
        dec = _gap_decrease(np.linspace(0.01 * n, float(n), 1000), n)
        worst = min(worst, inc.min(), dec.min())
        kaps = np.linspace(0.05 * n, 0.95 * n, 40)
        fracs = np.linspace(0.01, 0.99, 25)
        for kap in kaps:
            tmax = (n - kap) / (n * kap)
            drop = _gap_drop(fracs * tmax, kap, n)
            worst = min(worst, drop.min())
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert worst >= -1e-12, f"worst grid value {worst:.3e}"


def test_criterion_07_decrement_curve_shape():
    """Worst-case one-step decrements: the increase-branch curve rises to
    ln 2, the decrease-branch curve falls and exceeds ln 2 at 0.3n."""
    t0 = time.perf_counter()
    ln2 = np.log(2.0)
    for n in (1, 2, 3):
        plus = delta_plus(np.linspace(n, 100.0 * n, 2000), n)
        assert (np.diff(plus) > 0).all(), f"n={n}: plus curve not increasing"
        tail = delta_plus(np.array([1e6 * n]), n)[0]
        assert abs(tail - ln2) < 1e-4, f"n={n}: tail {tail}"
        minus = delta_minus(np.linspace(0.01 * n, float(n), 2000), n)
        assert (np.diff(minus) < 0).all(), f"n={n}: minus curve not decreasing"
        assert delta_minus(np.array([0.3 * n]), n)[0] > ln2
    assert time.perf_counter() - t0 < 1.0


def test_criterion_08_factor_oracle_and_drift():
    """Factor updates match dense recomputation to 1e-10 on small random
    instances; after 1000 maintained updates the incremental gradient stays
    within 1e-8 of a fresh recomputation."""
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        m = int(rng.integers(n + 1, 41))
        X = PointSet(rng.standard_normal((n, m)), symmetric=True)
        w = rng.uniform(0.2, 1.0, m)
        u = DualWeights(w)
        state = factor_from_weights(X, u)
        M = (X.points * w) @ X.points.T
        assert np.abs(state.Minv - np.linalg.inv(M)).max() < 1e-10
        assert abs(state.log_det - np.linalg.slogdet(M)[1]) < 1e-10
        x = rng.standard_normal(n)
        assert abs(x @ (state.Minv @ x) - x @ np.linalg.solve(M, x)) < 1e-10
        dense_kappa = np.einsum("ij,ij->j", X.points,
                                np.linalg.solve(M, X.points))
        assert np.abs(state.kappa - dense_kappa).max() < 1e-10

        theta = float(rng.uniform(0.1, 0.6))
        j = int(rng.integers(m))
        xj = X.points[:, j]
        # the update moves the state, kappa included, in place
        rank_one_modify(state, X.points.T, j, theta)
        Mup = M + theta * np.outer(xj, xj)
        assert np.abs(state.Minv - np.linalg.inv(Mup)).max() < 1e-10
        assert abs(state.log_det - np.linalg.slogdet(Mup)[1]) < 1e-10
        dense_up = np.einsum("ij,ij->j", X.points,
                             np.linalg.solve(Mup, X.points))
        assert np.abs(state.kappa - dense_up).max() < 1e-10
        rank_one_modify(state, X.points.T, j, -theta)
        assert np.abs(state.Minv - np.linalg.inv(M)).max() < 1e-10
        assert abs(state.log_det - np.linalg.slogdet(M)[1]) < 1e-10

    # long-run drift under the solver's maintenance policy
    rng = np.random.default_rng(42)
    n, m = 6, 30
    X = PointSet(rng.standard_normal((n, m)), symmetric=True)
    w = rng.uniform(0.2, 1.0, m)
    state = factor_from_weights(X, DualWeights(w))
    kappa = state.kappa
    updates = 0
    for step in range(1000):
        j = int(rng.integers(m))
        theta = float(rng.uniform(-0.15, 0.3))
        if w[j] + theta < 1e-3:
            continue
        kj = float(kappa[j])
        if 1.0 + theta * kj <= 0.05:
            continue
        rank_one_modify(state, X.points.T, j, theta)
        w[j] += theta
        updates += 1
        if updates % (50 * n) == 0:
            state = factor_from_weights(X, DualWeights(w))
            kappa = state.kappa
    # a refresh overwrites the state's kappa, so compare a copy
    maintained = kappa.copy()
    drift = float(np.abs(maintained - gradient_refresh(state, X)).max())
    assert drift < 1e-8, f"kappa drift {drift:.3e}"


def test_criterion_09_random_axis_rule_is_inferior(small_instances, cd_small):
    """With a 10^4 iteration budget the gradient-sampled random axis rule
    stalls above eps 1e-3 on three seeded small instances, while the
    deterministic rule reaches 1e-7 within 1380 iterations."""
    failures = []
    for seed in (PLAN_SEED, PLAN_SEED + 1, PLAN_SEED + 2):
        rep = solve(small_instances[seed],
                    SolverConfig(algorithm=Algorithm.RCD, epsilon=1e-7,
                                 max_iter=10_000, seed=0))
        if rep.final_eps <= 1e-3:
            failures.append(f"rcd seed {seed}: eps {rep.final_eps:.2e} "
                            "did not stay above 1e-3")
        cd = cd_small[0][seed]
        if not (cd.converged and cd.final_eps <= 1e-7):
            failures.append(f"cd_const seed {seed}: eps {cd.final_eps:.2e} "
                            f"after {cd.iterations} iterations (cap 1380)")
    assert not failures, "; ".join(failures)


def test_criterion_10_diminishing_stepsize_degrades(small_instances):
    """The 2/(k+2) schedule cannot reach eps 1e-4 in 10^5 iterations on a
    small instance that the constant stepsize solves in under 200."""
    X = small_instances[PLAN_SEED]
    dim = solve(X, SolverConfig(algorithm=Algorithm.CD_DIMINISH,
                                epsilon=1e-4, max_iter=100_000))
    assert not dim.converged, (
        f"diminishing stepsize unexpectedly reached {dim.final_eps:.2e}")
    const = solve(X, SolverConfig(algorithm=Algorithm.CD_CONST,
                                  epsilon=1e-4, max_iter=199))
    assert const.converged and const.iterations < 200, (
        f"constant stepsize: eps {const.final_eps:.2e} after "
        f"{const.iterations} iterations (needs < 200)")


def test_criterion_11_per_iteration_cost_scales_subquadratically():
    """Per-iteration wall time for coordinate descent grows sub-quadratically
    in the point count (fit exponent < 1.5 over m in {1k, 4k, 16k} at n=20),
    within 2 minutes."""
    t0 = time.perf_counter()
    sizes = [1000, 4000, 16000]
    lifted = {m: lift(gen_sample(20, m, 5)) for m in sizes}
    cfg = SolverConfig(algorithm=Algorithm.CD_CONST, epsilon=1e-12,
                       max_iter=400)
    solve(lifted[sizes[0]], cfg)  # warmup
    per_iter = []
    for m in sizes:
        best = np.inf
        for _ in range(2):
            rep = solve(lifted[m], cfg)
            best = min(best, rep.wall_time / max(1, rep.iterations))
        per_iter.append(best)
    slope = np.polyfit(np.log(sizes), np.log(per_iter), 1)[0]
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    assert slope < 1.5, (f"per-iteration time exponent {slope:.2f} over "
                         f"m={sizes}, times {per_iter}")


@pytest.mark.skipif(not os.environ.get("MVEE_STRESS"),
                    reason="opt-in stress regime (set MVEE_STRESS=1)")
def test_criterion_12_stress_regime_completes():
    """Opt-in large run: n=100, m=30000 completes a 10^4-iteration budget at
    eps 1e-7 for both exact-stepsize algorithms and reports honestly."""
    ps = gen_sample(100, 30_000, PLAN_SEED)
    lifted = lift(ps)
    for alg in (Algorithm.CD_CONST, Algorithm.WA):
        rep = solve(lifted, SolverConfig(algorithm=alg, epsilon=1e-7,
                                         max_iter=10_000))
        assert rep.iterations <= 10_000
        assert np.isfinite(rep.final_eps) and np.isfinite(rep.final_h)
        assert len(rep.trace) == rep.iterations
