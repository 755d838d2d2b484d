import math
import time
import warnings
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import mvee.linalg
import mvee.solvers
from mvee.errors import (
    LineSearchStalled,
    MveeError,
    NotFullRank,
    SingularUpdate,
)
from mvee.harness import gen_sample
from mvee.linalg import (
    factor_from_weights,
    rank_one_modify,
)
from mvee.problem import (
    DualWeights,
    PointSet,
    certificate,
    lift,
)
from mvee.solvers import (
    Algorithm,
    InitScheme,
    IterationRecord,
    SolverConfig,
    StepOutcome,
    StepType,
    TRACE_HEADER,
    armijo_stepsize,
    cd_step,
    enclose,
    exact_stepsize,
    init_khachiyan,
    init_kumar_yildirim,
    initial_weights,
    rcd_pick,
    schedule_stepsize,
    select_axis_gauss_southwell,
    simplex_stepsize,
    solve,
    write_trace,
)

from conftest import ill_conditioned, singular_on_call

CROSS = PointSet(np.eye(2), symmetric=True)  # {+-e1, +-e2} via implicit mirror


def axis_choice(kappa, u):
    return select_axis_gauss_southwell(np.asarray(kappa, float),
                                       np.flatnonzero(u.u))


def gs_eps(choice, n):
    """eps_plus and eps_minus of a Gauss-Southwell choice
    (j_plus, j_minus, kappa_plus, kappa_minus), as solve() reads them at
    c = 1."""
    _, _, kappa_plus, kappa_minus = choice
    return kappa_plus / n - 1.0, 1.0 - kappa_minus / n


def gs_axis(choice, n):
    """The axis solve() takes from a Gauss-Southwell choice; ties go to the
    increase."""
    eps_plus, eps_minus = gs_eps(choice, n)
    return choice[0] if eps_plus >= eps_minus else choice[1]


def gs_cd_step(u, kappa, choice, n, stepsize=exact_stepsize, k=0):
    """One coordinate step on the Gauss-Southwell axis, as solve() makes it."""
    j = gs_axis(choice, n)
    return cd_step(u, j, stepsize(float(u.u[j]), float(kappa[j]), n, k))


def rcd_cd_step(u, kappa, j, n):
    """One rcd step on a sampled axis j: exact stepsize, descent sign."""
    return cd_step(u, j, exact_stepsize(float(u.u[j]), float(kappa[j]), n, 0))


# --- initialization -------------------------------------------------------------

def test_khachiyan_uniform():
    assert np.array_equal(init_khachiyan(4).u, np.full(4, 0.25))
    assert np.array_equal(init_khachiyan(1).u, [1.0])
    assert init_khachiyan(37).u.sum() == pytest.approx(1.0, abs=1e-15)


def test_kumar_yildirim_forced_choice():
    u = init_kumar_yildirim(CROSS, seed=3)
    assert np.array_equal(u.u, [0.5, 0.5])


def test_kumar_yildirim_picks_spanning_pair():
    X = PointSet(np.array([[1.0, 0.0, 1.0], [0.0, 2.0, 1.0]]), symmetric=True)
    u = init_kumar_yildirim(X, seed=0)
    sup = np.flatnonzero(u.support)
    assert sup.size == 2
    assert np.allclose(u.u[sup], 0.5)
    assert np.linalg.matrix_rank(X.points[:, sup]) == 2


def test_kumar_yildirim_rank_deficient():
    # the start does not judge rank: on points along a line of R^2 it still
    # picks n points, and the factor of solve's first rebuild rejects them
    X = PointSet(np.array([[1.0, 2.0, -3.0], [0.0, 0.0, 0.0]]), symmetric=True)
    u = init_kumar_yildirim(X, seed=0)
    assert np.count_nonzero(u.support) == X.dim
    with pytest.raises(NotFullRank, match="rank deficient"):
        solve(X, SolverConfig(), u)


def test_kumar_yildirim_deterministic_per_seed():
    rng = np.random.default_rng(0)
    X = PointSet(rng.standard_normal((4, 50)), symmetric=True)
    a = init_kumar_yildirim(X, seed=11)
    b = init_kumar_yildirim(X, seed=11)
    assert np.array_equal(a.u, b.u)
    assert np.count_nonzero(a.support) == 4
    assert np.allclose(a.u[a.support], 0.25)


@given(st.integers(0, 10_000), st.sampled_from([0, 3, 7]))
# after five picks the Gram-Schmidt basis is off orthogonal by 9.5e-5, so
# chosen point 1 read a residual of 1.6e-9 relative and was picked again
@example(15, 7)
def test_kumar_yildirim_starts_on_rescaled_rows(seed, decades):
    # rows scaled 1..10^decades leave the set full rank: the start takes n
    # distinct points, whose factor exists, and the solve converges
    P = (np.random.default_rng(seed).standard_normal((5, 7))
         * np.logspace(0, decades, 5)[:, None])
    X = lift(PointSet(P))
    u = init_kumar_yildirim(X, seed=0)
    assert np.count_nonzero(u.support) == X.dim
    assert np.allclose(u.u[u.support], 1.0 / X.dim)
    factor_from_weights(X, u)
    assert solve(X, SolverConfig()).converged


@pytest.mark.parametrize("k", [-1000, -700, -600, -540, -520, -400, -200,
                               -40, 0, 200, 400, 511, 512, 600, 1000])
def test_kumar_yildirim_start_is_scale_free(k):
    # scaling by 2^k is exact and the start picks by |d . x| alone, so the
    # scaled set starts like the unit one at every k, with no overflow or
    # underflow warning from the residual's norm, and solves like it while
    # M^{-1}, about 2^-2k, is in floating-point range; past it the factor
    # rejects the set, as it does from either start
    P = np.random.default_rng(0).standard_normal((3, 40))
    unit = PointSet(P, symmetric=True)
    scaled = PointSet(P * 2.0 ** k, symmetric=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.array_equal(init_kumar_yildirim(scaled, 0).u,
                              init_kumar_yildirim(unit, 0).u)
    for alg in (Algorithm.CD_CONST, Algorithm.WA):
        config = SolverConfig(algorithm=alg)
        if abs(k) > 512:
            with pytest.raises(NotFullRank):
                solve(scaled, config)
            continue
        report = solve(scaled, config)
        assert report.converged
        assert report.iterations == solve(unit, config).iterations


# (n, m, seed, k, t): gen_sample(n, m, seed) scaled by 2^k and translated by
# t (1, ..., 1) / sqrt(n), then lifted.  From the default start each raised
# NotFullRank while it had a rank test of its own, which the Khachiyan
# start's factor did not share; the Khachiyan start solved each of them.
GAP_CELLS = [(3, 40, 1235, -38, 0.0), (3, 40, 1236, -38, 0.0),
             (10, 500, 1234, -38, 0.0), (10, 500, 1235, -38, 0.0),
             (10, 500, 1236, -38, 0.0), (3, 40, 1235, -36, 0.0),
             (3, 40, 1236, -36, 0.0), (10, 500, 1235, -36, 0.0),
             (10, 500, 1236, -36, 0.0), (3, 40, 1235, -34, 0.0),
             (3, 40, 1234, 28, 0.0), (3, 40, 1234, 30, 0.0),
             (10, 500, 1234, 30, 0.0), (10, 500, 1236, 0, 1e5)]


def _thin(seed, row, delta):
    """40 standard-normal points in R^3, row `row` scaled by delta."""
    P = np.random.default_rng(seed).standard_normal((3, 40))
    P[row] *= delta
    return PointSet(P)


def test_both_starts_accept_and_reject_the_same_sets():
    # one rule judges both starts: the factor of solve's first rebuild.  At
    # delta = 1e-12 the thin axis sits at PD_TOL, and over 60 thin sets 9
    # still split by start (6 rejected from the default start only, 3 from
    # the Khachiyan start only), as the two starts factor different weights;
    # (0, 1) is one that both accept
    t0 = time.perf_counter()
    accepted = [PointSet(gen_sample(n, m, s).points * 2.0 ** k
                         + t / math.sqrt(n))
                for n, m, s, k, t in GAP_CELLS]
    accepted += [_thin(seed, row, 1e-11) for seed in range(2)
                 for row in range(3)] + [_thin(0, 1, 1e-12)]
    for X in accepted:
        for init in InitScheme:
            _, report = enclose(X, SolverConfig(epsilon=1e-3, init=init))
            assert report.converged
    for seed in range(2):
        for row in range(3):
            messages = set()
            for init in InitScheme:
                with pytest.raises(NotFullRank) as info:
                    enclose(_thin(seed, row, 1e-13),
                            SolverConfig(epsilon=1e-3, init=init))
                messages.add(str(info.value))
            assert messages == {"weighted points are rank deficient"}
    assert time.perf_counter() - t0 < 2.0


@pytest.mark.parametrize("init", list(InitScheme))
def test_enclose_solves_a_far_set_like_its_translate(init):
    # lifted as it is, a set of spread about 1 translated by t = 1e6 or more
    # reads as lower-dimensional (6 of these 12 (set, start) pairs raised
    # NotFullRank at 1e6, all 12 at 1e7); enclose solves it translated to
    # its midrange, and its ln det H stays within the certified gap
    # N ln(1 + eps) of the set's own
    eps = 1e-3
    config = SolverConfig(epsilon=eps, init=init)
    for n, m in ((3, 40), (10, 500)):
        for seed in (1234, 1235, 1236):
            P = gen_sample(n, m, seed)
            near, _ = enclose(P, config)
            for t in 10.0 ** np.arange(3, 13):
                E, report = enclose(PointSet(P.points + t / math.sqrt(n)),
                                    config)
                assert report.converged, (n, seed, t)
                assert abs(E.logdet - near.logdet) <= \
                    (n + 1) * math.log1p(eps), (n, seed, t)


@pytest.mark.parametrize("init", list(InitScheme))
@pytest.mark.parametrize("k", [-1000, -600, -512, -511, 512, 600, 1000])
def test_extreme_scales_converge_or_raise_not_full_rank(k, init):
    # past about 2^+-512 M^{-1} leaves the floating-point range: the factor
    # rejects it, or an update that overflows rebuilds and the rebuild
    # rejects it, with no numpy warning (the suite makes one an error).  An
    # empty support once ended these solves in a bare ValueError
    P = np.random.default_rng(0).standard_normal((3, 40)) * 2.0 ** k
    try:
        report = solve(PointSet(P, symmetric=True),
                       SolverConfig(epsilon=1e-5, init=init))
    except NotFullRank:
        return
    assert report.converged


# --- axis selection --------------------------------------------------------------

def test_axis_selection_basic():
    u = DualWeights(np.full(3, 1 / 3))
    c = axis_choice([2.4, 2.0, 1.6], u)
    assert c == (0, 2, 2.4, 1.6)
    eps_plus, eps_minus = gs_eps(c, 2)
    assert eps_plus == pytest.approx(0.2)
    assert eps_minus == pytest.approx(0.2)


def test_axis_selection_at_optimum():
    u = DualWeights(np.array([0.5, 0.5]))
    c = axis_choice([2.0, 2.0], u)
    assert gs_eps(c, 2) == (0.0, 0.0)


def test_axis_selection_respects_support():
    u = DualWeights(np.array([0.5, 0.5, 0.0]))
    c = axis_choice([2.4, 2.0, 1.6], u)
    assert c[1] == 1


def test_axis_selection_lowest_index_ties():
    u = DualWeights(np.full(4, 0.25))
    c = axis_choice([3.0, 3.0, 1.0, 1.0], u)
    assert c[:2] == (0, 2)


@given(st.integers(0, 5_000))
def test_axis_selection_ties_on_a_support_and_exact_values(seed):
    # kappa takes four values, so both extremes tie often, and the support
    # is a proper subset: j_plus is the lowest index of the largest kappa,
    # j_minus the lowest support index of the smallest kappa on the support,
    # both Python ints, and the two kappa are the array's entries bit for bit
    rng = np.random.default_rng(seed)
    kappa = rng.choice([0.1, 1.0 / 3.0, 2.0 / 3.0, 7.1], 12)
    support = np.flatnonzero(rng.uniform(size=12) < 0.5)
    if not support.size:
        support = np.array([11])
    j_plus, j_minus, kappa_plus, kappa_minus = \
        select_axis_gauss_southwell(kappa, support)
    assert j_plus == min(i for i in range(12) if kappa[i] == kappa.max())
    low = kappa[support].min()
    assert j_minus == min(i for i in support if kappa[i] == low)
    assert type(j_plus) is int and type(j_minus) is int
    assert kappa_plus.hex() == float(kappa[j_plus]).hex()
    assert kappa_minus.hex() == float(kappa[j_minus]).hex()


# --- Frank-Wolfe step -------------------------------------------------------------

def simplex_step(u, kappa, j, n):
    """An fwk or wa step as solve() takes it from normalised weights (c = 1):
    simplex_stepsize, then cd_step.  Returns the outcome, lambda = |t| of
    u' = (1 - t) u + t e_j, and the normalised weights u / e^T u after the
    step.  The same u held as v = 4 u with c = 1/4 (so kappa(v) = kappa / 4)
    takes the same step."""
    kappa = np.asarray(kappa, float)
    held = DualWeights(4.0 * u.u)
    theta = simplex_stepsize(float(u.u[j]), float(kappa[j]), n, 0)
    out = cd_step(u, j, theta)
    c = 0.25
    theta_held = simplex_stepsize(c * float(held.u[j]), float(kappa[j] / 4.0)
                                  / c, n, 0)
    out_held = cd_step(held, j, theta_held / c)
    lam = abs(out.theta_rel / (1.0 + out.theta_rel))
    step = c * out_held.theta_rel
    assert out_held.step_type is out.step_type
    assert abs(step / (1.0 + step)) == lam
    assert np.allclose(held.u / held.u.sum(), u.u / u.u.sum(),
                       rtol=1e-15, atol=0.0)
    return out, lam, u.u / u.u.sum()


def test_fwk_fixed_point():
    u = DualWeights(np.array([0.5, 0.5]))
    out, lam, after = simplex_step(u, [2.0, 2.0], 0, 2)
    assert lam == 0.0
    assert np.array_equal(after, [0.5, 0.5])


def test_fwk_keeps_simplex_and_lands_on_boundary():
    rng = np.random.default_rng(2)
    X = PointSet(rng.standard_normal((3, 12)), symmetric=True)
    u = init_khachiyan(12)
    kappa = factor_from_weights(X, u).kappa
    j = int(np.argmax(kappa))
    _, _, after = simplex_step(u, kappa, j, 3)
    assert after.sum() == pytest.approx(1.0, abs=1e-12)
    fresh = factor_from_weights(X, DualWeights(after)).kappa
    assert fresh[j] == pytest.approx(3.0, abs=1e-8)


def test_fwk_add_vs_increase():
    u = DualWeights(np.array([0.5, 0.5, 0.0]))
    out, _, after = simplex_step(u, [1.5, 1.5, 3.0], 2, 2)
    assert out.step_type is StepType.ADD
    assert after[2] > 0.0 and u.support[2]


# --- Wolfe-Atwood step ------------------------------------------------------------

def test_wa_tie_takes_increase_branch():
    u = DualWeights(np.full(3, 1 / 3))
    choice = axis_choice([2.4, 2.0, 1.6], u)
    eps_plus, eps_minus = gs_eps(choice, 2)
    assert eps_plus >= eps_minus
    j = gs_axis(choice, 2)
    out, _, _ = simplex_step(u, [2.4, 2.0, 1.6], j, 2)
    assert out.step_type in (StepType.ADD, StepType.INCREASE)
    assert j == 0


def test_wa_decrease_formula():
    # candidate stepsizes 0.5 and 2/3; the smaller wins, no drop
    u = DualWeights(np.array([0.3, 0.3, 0.4]))
    kappa = np.array([2.1, 2.05, 1.5])
    choice = (0, 2, 2.1, 1.5)
    out, lam, after = simplex_step(u, kappa, gs_axis(choice, 2), 2)
    assert out.step_type is StepType.DECREASE
    assert lam == pytest.approx(0.5)
    assert after[2] == pytest.approx(0.4 * 1.5 - 0.5)
    assert after.sum() == pytest.approx(1.0, abs=1e-12)


def test_wa_drop_lands_on_zero():
    u = DualWeights(np.array([0.65, 0.30, 0.05]))
    kappa = np.array([2.1, 2.05, 1.2])
    choice = (0, 2, 2.1, 1.2)
    out, lam, after = simplex_step(u, kappa, gs_axis(choice, 2), 2)
    assert out.step_type is StepType.DROP
    assert lam == pytest.approx(0.05 / 0.95)
    assert after[2] == 0.0 and not u.support[2]
    assert after.sum() == pytest.approx(1.0, abs=1e-12)


def test_wa_small_kappa_only_drop_bound():
    # kappa <= 1 leaves the decrease candidate unbounded
    u = DualWeights(np.array([0.4, 0.3, 0.3]))
    kappa = np.array([2.2, 2.0, 0.9])
    choice = (0, 2, 2.2, 0.9)
    out, _, after = simplex_step(u, kappa, gs_axis(choice, 2), 2)
    assert out.step_type is StepType.DROP
    assert after[2] == 0.0


def test_simplex_stepsize_at_kappa_one_is_a_drop():
    # kappa_j = 1 < n is a decrease whose whole away ray lowers h: the step
    # is -inf, which cd_step clamps to the drop
    assert simplex_stepsize(0.5, 1.0, 2, 0) == -math.inf
    out, lam, after = simplex_step(DualWeights([0.5, 0.5]), [1.0, 0.5], 0, 2)
    assert out.step_type is StepType.DROP and lam == 1.0
    assert np.array_equal(after, [0.0, 1.0])


@given(st.integers(2, 50), st.floats(0.0, 1e6, exclude_min=True),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(3, 1.5, 0.5)  # lambda_drop = lambda = 1 exactly: the drop binds
@example(2, 0.9, 0.3)  # kappa_j <= 1: only the drop bound is active
def test_simplex_stepsize_is_the_convex_combination_line_search(n, kappa_j,
                                                                u_j):
    # the step theta on u_j before renormalising is t / (1 - t) for the
    # convex combination u' = (1 - t) u + t e_j: lambda / (1 - lambda) for
    # the Frank-Wolfe step and -lambda / (1 + lambda) for the away step,
    # with lambda in its closed form on the simplex
    # (one formula, so both forms hold whichever way kappa_j lies from n)
    theta = simplex_stepsize(u_j, kappa_j, n, 0)
    if kappa_j > 1.0:
        lam = (kappa_j - n) / (n * (kappa_j - 1.0))
        assert theta == pytest.approx(lam / (1.0 - lam), rel=1e-13, abs=0.0)
    lam = (n - kappa_j) / (n * (kappa_j - 1.0)) if kappa_j > 1.0 else math.inf
    if kappa_j > 1.0:
        assert theta == pytest.approx(-lam / (1.0 + lam), rel=1e-13, abs=0.0)
    # cd_step's projection at -u_j is the away step's cap lambda_drop; the
    # two forms round differently only where lambda_drop and lambda tie to
    # within rounding
    lam_drop = u_j / (1.0 - u_j)
    u = DualWeights(np.array([u_j, 1.0 - u_j]))
    out = cd_step(u, 0, theta)
    if lam_drop == lam or not math.isclose(lam_drop, lam, rel_tol=1e-12):
        assert (out.step_type is StepType.DROP) == (lam_drop <= lam)


# --- coordinate-descent constant step ------------------------------------------------

def test_cd_add_step_and_decrement_value():
    u = DualWeights(np.array([0.5, 0.5, 0.0]))
    kappa = np.array([1.9, 1.8, 4.0])
    out = gs_cd_step(u, kappa, (2, 1, 4.0, 1.8), 2)
    assert out.step_type is StepType.ADD
    assert out.theta_rel == pytest.approx(0.125)
    dec = np.log1p(out.theta_rel * 4.0) - 2 * out.theta_rel
    assert dec == pytest.approx(np.log(1.5) - 0.25)
    assert dec >= (2 - 4.0) ** 2 / (2 * 4.0 ** 2)


def test_cd_decrease_step():
    u = DualWeights(np.array([0.2, 0.8]))
    out = gs_cd_step(u, np.array([2.2, 1.0]), (0, 1, 2.2, 1.0), 2)
    assert out.step_type is StepType.DECREASE
    assert out.theta_rel == pytest.approx(-0.5)
    assert u.u[1] == pytest.approx(0.3)


def test_cd_projected_drop():
    u = DualWeights(np.array([0.8, 0.2]))
    out = gs_cd_step(u, np.array([2.2, 1.0]), (0, 1, 2.2, 1.0), 2)
    assert out.step_type is StepType.DROP
    assert out.theta_rel == pytest.approx(-0.2)
    assert u.u[1] == 0.0 and not u.support[1]


def test_cd_decrease_landing_on_zero_is_a_drop():
    # theta = (1 - 2) / (2 * 1) = -0.5 takes u_1 exactly to zero: the weight
    # leaves the support, so support still means u_i > 0
    u = DualWeights(np.array([0.5, 0.5]))
    kappa = np.array([2.2, 1.0])
    out = gs_cd_step(u, kappa, axis_choice(kappa, u), 2)
    assert out.step_type is StepType.DROP
    assert out.theta_rel == pytest.approx(-0.5)
    assert np.array_equal(u.u, [0.5, 0.0])
    assert np.array_equal(u.support, [True, False])


# --- diminishing stepsize --------------------------------------------------------------

def test_diminishing_first_step_is_full():
    u = DualWeights(np.array([0.5, 0.5]))
    out = gs_cd_step(u, np.array([3.0, 1.5]), (0, 1, 3.0, 1.5), 2,
                     schedule_stepsize, 0)
    assert out.theta_rel == pytest.approx(1.0)


def test_diminishing_clamps_to_drop():
    u = DualWeights(np.array([0.95, 0.05]))
    out = gs_cd_step(u, np.array([2.5, 1.4]), (0, 1, 2.5, 1.4), 2,
                     schedule_stepsize, 8)
    assert out.step_type is StepType.DROP
    assert out.theta_rel == pytest.approx(-0.05)
    assert u.u[1] == 0.0


def test_diminishing_vanishes():
    u = DualWeights(np.array([0.5, 0.5]))
    out = gs_cd_step(u, np.array([2.5, 1.4]), (0, 1, 2.5, 1.4), 2,
                     schedule_stepsize, 10 ** 6)
    assert abs(out.theta_rel) <= 2e-6


# --- backtracking ------------------------------------------------------------------------

def test_backtracking_halves_until_armijo():
    assert armijo_stepsize(0.0, 4.0, 2, 0) == pytest.approx(0.125)


def test_backtracking_alpha_zero_accepts_first_descent(monkeypatch):
    monkeypatch.setattr(mvee.solvers, "_ARMIJO_ALPHA", 0.0)
    assert armijo_stepsize(0.0, 4.0, 2, 0) == pytest.approx(0.5)


def test_backtracking_negative_direction_respects_feasibility():
    theta = armijo_stepsize(0.3, 1.0, 2, 0)
    assert theta == pytest.approx(-0.25)
    assert -theta <= 0.3


def test_backtracking_stalls_when_target_unreachable(monkeypatch):
    monkeypatch.setattr(mvee.solvers, "_ARMIJO_ALPHA", 1.0)
    with pytest.raises(LineSearchStalled):
        armijo_stepsize(0.0, 2.5, 2, 0)


def test_armijo_drops_weights_below_floor():
    # a decrease on a weight at the drop floor removes it outright; above the
    # floor, and on increases, the rule is the Armijo search
    u = DualWeights(np.array([1.0, 1e-14]))
    out = gs_cd_step(u, np.array([2.2, 1.0]), (0, 1, 2.2, 1.0), 2,
                     armijo_stepsize)
    assert out.step_type is StepType.DROP and out.theta_rel == -1e-14
    assert u.u[1] == 0.0 and not u.support[1]
    assert armijo_stepsize(0.3, 1.0, 2, 0) == pytest.approx(-0.25)
    assert armijo_stepsize(0.0, 4.0, 2, 0) == pytest.approx(0.125)


# --- randomized coordinate descent -----------------------------------------------------------

def test_rcd_pick_degenerate_distribution():
    rng = np.random.default_rng(0)
    assert rcd_pick(np.array([0.0, 5.0, 0.0]), rng) == 1


def test_rcd_pick_frequencies():
    rng = np.random.default_rng(123)
    draws = np.array([rcd_pick(np.array([1.0, 1.0]), rng)
                      for _ in range(100_000)])
    assert abs((draws == 0).mean() - 0.5) < 0.01
    draws = np.array([rcd_pick(np.array([3.0, 1.0]), rng)
                      for _ in range(100_000)])
    assert abs((draws == 0).mean() - 0.75) < 0.01


def test_rcd_step_branches():
    u = DualWeights(np.array([0.5, 0.5, 0.0]))
    out = rcd_cd_step(u, np.array([2.0, 1.5, 4.0]), 2, 2)
    assert out.step_type is StepType.ADD and u.u[2] > 0

    u = DualWeights(np.array([0.5, 0.5, 0.0]))
    out = rcd_cd_step(u, np.array([2.0, 1.5, 1.0]), 2, 2)  # zero-weight interior
    assert out.step_type is StepType.DROP and out.theta_rel == 0.0

    # stationary axis: a zero step moves nothing; it is a decrease on the
    # support and a drop off it
    u = DualWeights(np.array([0.5, 0.5]))
    out = rcd_cd_step(u, np.array([2.0, 2.0]), 0, 2)
    assert out.theta_rel == 0.0 and u.u[0] == 0.5
    assert out.step_type is StepType.DECREASE and u.support[0]

    u = DualWeights(np.array([0.5, 0.5, 0.0]))
    out = rcd_cd_step(u, np.array([2.0, 2.0, 2.0]), 2, 2)
    assert out.step_type is StepType.DROP and out.theta_rel == 0.0
    assert np.array_equal(u.u, [0.5, 0.5, 0.0])
    assert np.array_equal(u.support, [True, True, False])


# --- axis rule equivalence ---------------------------------------------------------------------

@given(st.integers(0, 5_000))
def test_branch_choice_matches_gradient_rule(seed):
    # eps_plus vs eps_minus comparison equals largest |grad| over axes where
    # the move is admissible (off-support points only admit increases)
    rng = np.random.default_rng(seed)
    m, n = 12, 3
    kappa = rng.uniform(0.5, 6.0, m)
    w = rng.uniform(0.0, 1.0, m) * (rng.uniform(size=m) > 0.3)
    if not w.any():
        w[0] = 1.0
    u = DualWeights(w / w.sum())
    wa_axis = gs_axis(axis_choice(kappa, u), n)

    grad = n - kappa
    admissible = (kappa > n) | u.support
    best = -1.0
    pick = None
    for i in range(m):
        if not admissible[i]:
            continue
        g = abs(grad[i])
        if g > best + 1e-15:
            best, pick = g, i
    if abs(abs(grad[wa_axis]) - best) > 1e-12:
        assert wa_axis == pick


# --- full solves ----------------------------------------------------------------------------------

@pytest.mark.parametrize("alg", list(Algorithm))
def test_solve_cross_already_optimal(alg):
    cfg = SolverConfig(algorithm=alg, epsilon=1e-9, max_iter=100)
    rep = solve(CROSS, cfg)
    assert rep.converged and rep.iterations == 0
    assert rep.final_h == pytest.approx(np.log(4.0), abs=1e-12)


def test_solve_requires_symmetric():
    with pytest.raises(MveeError):
        solve(PointSet(np.array([[0.0, 1.0, 2.0]])), SolverConfig())


def test_solve_objectives_agree_across_algorithms():
    rng = np.random.default_rng(5)
    X = lift(PointSet(rng.standard_normal((10, 500))))
    h = {}
    for alg in (Algorithm.CD_CONST, Algorithm.WA):
        rep = solve(X, SolverConfig(algorithm=alg, epsilon=1e-7,
                                    max_iter=100_000))
        assert rep.converged
        h[alg] = rep.final_h
    a, b = h[Algorithm.CD_CONST], h[Algorithm.WA]
    assert abs(a - b) / abs(b) < 1e-6


def test_h_monotone_for_exact_stepsize_algorithms():
    X = lift(gen_sample(5, 60, 3))
    for alg in (Algorithm.CD_CONST, Algorithm.WA, Algorithm.FWK):
        rep = solve(X, SolverConfig(algorithm=alg, epsilon=1e-6,
                                    max_iter=3000))
        hs = np.array([r.h for r in rep.trace])
        assert (np.diff(hs) <= 1e-9).all(), alg


def test_support_bound_at_convergence():
    rng = np.random.default_rng(77)
    X = PointSet(rng.standard_normal((4, 200)), symmetric=True)
    rep = solve(X, SolverConfig(epsilon=1e-8, max_iter=50_000))
    assert rep.converged
    assert np.count_nonzero(rep.u_final.support) <= 4 * 7 // 2


def test_support_mask_matches_positive_weights():
    X = lift(gen_sample(4, 80, 9))
    rep = solve(X, SolverConfig(epsilon=1e-7, max_iter=50_000))
    u = rep.u_final
    assert np.array_equal(u.support, u.u > 0)


def test_fwk_stops_on_primal_feasibility_only():
    # from the uniform start FWK never drops, so the support keeps every
    # point and the approximate-optimality certificate stays loose
    X = lift(gen_sample(4, 100, 1))
    rep = solve(X, SolverConfig(algorithm=Algorithm.FWK, epsilon=1e-4,
                                init=InitScheme.KHACHIYAN, max_iter=80_000))
    assert rep.converged
    kappa = factor_from_weights(X, rep.u_final).kappa
    c = select_axis_gauss_southwell(kappa, np.flatnonzero(rep.u_final.u))
    eps_plus, eps_minus = gs_eps(c, X.dim)
    assert eps_plus <= 1e-4
    assert eps_minus > 1e-4


def test_nonconvergence_report_is_well_formed():
    X = lift(gen_sample(5, 100, 2))
    rep = solve(X, SolverConfig(epsilon=1e-12, max_iter=3))
    assert not rep.converged
    assert rep.iterations == 3 and len(rep.trace) == 3
    assert np.isfinite(rep.final_eps) and rep.final_eps > 1e-12


def test_rcd_seed_reproducibility():
    X = lift(gen_sample(5, 80, 4))
    cfg = dict(algorithm=Algorithm.RCD, epsilon=1e-4, max_iter=5000)
    a = solve(X, SolverConfig(seed=5, **cfg))
    b = solve(X, SolverConfig(seed=5, **cfg))
    assert a.iterations == b.iterations
    assert a.final_h == b.final_h


@pytest.mark.parametrize("alg,eps", [(Algorithm.CD_CONST, 1e-6),
                                     (Algorithm.RCD, 1e-3)],
                         ids=["cd_const", "rcd"])
def test_exact_stepsize_decrements_meet_bounds(alg, eps, monkeypatch):
    # every exact coordinate step lowers h by at least its guaranteed
    # decrement: (n - kappa_j)^2 / (2 kappa_j^2) on an add or increase,
    # (n - kappa_j)^2 / (2 n kappa_j) on a decrease, and 0 on a drop
    X = lift(gen_sample(4, 60, 6))
    n = X.dim
    kappas = []

    def recording(u_j, kappa_j, dim, k):
        kappas.append(kappa_j)
        return exact_stepsize(u_j, kappa_j, dim, k)

    monkeypatch.setattr(mvee.solvers, "exact_stepsize", recording)
    rep = solve(X, SolverConfig(algorithm=alg, epsilon=eps, max_iter=10_000))
    if alg is Algorithm.CD_CONST:
        assert rep.converged
    assert rep.iterations > 0
    assert len(kappas) == rep.iterations
    h = [r.h for r in rep.trace] + [rep.final_h]
    short = []
    for k, (rec, kj) in enumerate(zip(rep.trace, kappas)):
        if rec.step_type in (StepType.ADD, StepType.INCREASE):
            bound = (n - kj) ** 2 / (2.0 * kj * kj)
        elif rec.step_type is StepType.DECREASE:
            bound = (n - kj) ** 2 / (2.0 * n * kj)
        else:
            bound = 0.0
        if not h[k] - h[k + 1] >= bound - 1e-10:
            short.append((k, rec.step_type.value, h[k] - h[k + 1], bound))
    assert not short, short[:5]


# --- degenerate inputs ----------------------------------------------------------------------------

@pytest.mark.parametrize("alg", [Algorithm.CD_CONST, Algorithm.WA])
@pytest.mark.parametrize("init", list(InitScheme))
def test_duplicated_points_give_the_same_ellipsoid(alg, init):
    # every point three times, shuffled: from the Khachiyan start the weights
    # spread over the copies and the trajectory differs; the optimum does not
    P = gen_sample(3, 40, 2)
    perm = np.random.default_rng(0).permutation(3 * P.count)
    tripled = PointSet(np.tile(P.points, 3)[:, perm])
    ellipsoids = []
    for X in (P, tripled):
        E, rep = enclose(X, SolverConfig(algorithm=alg, init=init,
                                         epsilon=1e-8, max_iter=100_000))
        assert rep.converged
        ellipsoids.append(E)
    a, b = ellipsoids
    assert np.allclose(a.center, b.center, rtol=0, atol=1e-6)
    assert np.allclose(a.shape, b.shape, rtol=0,
                       atol=1e-6 * np.abs(a.shape).max())


_PLANE = np.random.default_rng(0).standard_normal((2, 12))
FLAT_SETS = {
    "collinear_2d": [[0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 5.0, 7.0, 9.0]],
    "coplanar_3d": np.vstack([_PLANE, _PLANE[0] - 2.0 * _PLANE[1] + 0.5]),
    "all_equal": np.tile([[1.5], [-0.5]], 4),
}


@pytest.mark.parametrize("name", list(FLAT_SETS))
@pytest.mark.parametrize("init", list(InitScheme))
@pytest.mark.parametrize("alg", list(Algorithm))
def test_lower_dimensional_sets_raise_not_full_rank(alg, init, name):
    X = lift(PointSet(FLAT_SETS[name]))
    with pytest.raises(NotFullRank):
        solve(X, SolverConfig(algorithm=alg, init=init))


# --- maintained state against dense recomputation -------------------------------------------------

def _close(got, want, tol):
    return np.abs(got - want).max() <= tol * max(1.0, np.abs(want).max())


def holding(init, weights):
    """Wrap an init so that the weights solve() then moves in place stay
    readable: each call's result is appended to `weights`."""
    def wrapper(*args):
        weights.append(init(*args))
        return weights[-1]
    return wrapper


def test_zero_step_on_the_support_is_labelled_a_decrease():
    # cd_diminish declines a decrease that would leave M singular; the trace
    # records that zero step in the direction the axis rule chose
    rng = np.random.default_rng(3550)
    X = PointSet(rng.standard_normal((4, 12)), symmetric=True)
    rep = solve(X, SolverConfig(algorithm=Algorithm.CD_DIMINISH,
                                init=InitScheme.KUMAR_YILDIRIM,
                                epsilon=1e-12, max_iter=50, seed=3550))
    for k in (3, 4):
        row = rep.trace[k]
        assert row.theta == 0.0
        assert row.step_type is StepType.DECREASE, (k, row)


def test_zero_column_is_dropped_by_the_exact_stepsize():
    # x_2 = 0 has kappa_2 = 0, and h changes by n theta along its decrease
    # ray: the step is -inf, which cd_step clamps to the drop
    assert exact_stepsize(0.25, 0.0, 2, 0) == -math.inf
    X = PointSet([[1, 0, 0, 2], [0, 1, 0, 1]], symmetric=True)
    rep = solve(X, SolverConfig(algorithm=Algorithm.CD_CONST,
                                init=InitScheme.KHACHIYAN))
    assert rep.converged
    assert rep.trace[0].axis == 2
    assert rep.trace[0].step_type is StepType.DROP
    assert rep.u_final.u[2] == 0.0
    rep = solve(X, SolverConfig(algorithm=Algorithm.RCD,
                                init=InitScheme.KHACHIYAN, max_iter=300))
    assert rep.iterations == 300


@pytest.mark.parametrize("alg", [Algorithm.CD_CONST, Algorithm.WA])
def test_huge_m_converges_with_a_fresh_certificate(alg):
    # 200,000 standard-normal points in R^3, lifted: the O(m) work of each
    # iteration dominates, and the reported eps still agrees with one fresh
    # rebuild from the final weights
    rng = np.random.default_rng(0)
    X = lift(PointSet(rng.standard_normal((3, 200_000))))
    rep = solve(X, SolverConfig(algorithm=alg, epsilon=1e-3))
    assert rep.converged
    kappa = factor_from_weights(X, rep.u_final).kappa
    cert = certificate(rep.u_final, kappa, X.dim, 1e-3)
    fresh = max(cert.eps_plus, cert.eps_minus)
    assert fresh <= 1e-3
    assert abs(fresh - rep.final_eps) <= 1e-10, (fresh, rep.final_eps)


# cd_diminish failed on each of these while its schedule could drop a point
# M cannot lose and while the kappa update took the maintained kappa_j: on
# the first two that drop raised NotFullRank, on the third (cond(M) = 3e6)
# it passed the 1e-12 singularity test and wrecked the state, and on the
# last the maintained kappa drifted about 3x per step
@pytest.mark.parametrize("alg", list(Algorithm))
@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(0, 8),
       st.sampled_from(list(InitScheme)), st.sampled_from([None, 2]))
@example(0, 4, 1, InitScheme.KHACHIYAN, None)
@example(3550, 4, 8, InitScheme.KUMAR_YILDIRIM, None)
@example(8203, 3, 0, InitScheme.KUMAR_YILDIRIM, None)
@example(0, 4, 4, InitScheme.KUMAR_YILDIRIM, None)
def test_maintained_state_matches_dense_every_step(alg, seed, n, extra, init,
                                                   per_dim):
    # after every step of every algorithm, M^{-1}, ln det M and kappa agree
    # with a dense recomputation from the weights solve holds, the support
    # indices are those of the nonzero weights, and h, read from the running
    # weight sum, agrees with the dense objective; a cadence of 2 n updates
    # (per_dim 2) forces scheduled rebuilds within the 50 steps
    rng = np.random.default_rng(seed)
    X = PointSet(rng.standard_normal((n, n + extra)), symmetric=True)
    checked, rebuilds, updates, weights = [], [], [], []

    def dense(u):
        M = (X.points * u.u) @ X.points.T
        Minv = np.linalg.inv(M)
        return M, Minv, np.einsum("ij,ij->j", X.points, Minv @ X.points)

    def select(kappa, support):
        u = weights[-1]
        assert np.array_equal(support, np.flatnonzero(u.u)), (
            len(checked), support, u.u)
        M, _, kappa_dense = dense(u)
        tol = 1e-13 * np.linalg.cond(M)
        assert _close(kappa, kappa_dense, tol), (len(checked), kappa,
                                                 kappa_dense)
        return real_select(kappa, support)

    def objective(total, state, c):
        # fwk and wa hold u = c v: the state is that of M(v), v the weights
        v = weights[-1]
        M, Minv, _ = dense(v)
        tol = 1e-13 * np.linalg.cond(M)
        assert _close(state.Minv, Minv, tol), (len(checked), state.Minv, Minv)
        log_det = np.linalg.slogdet(M)[1]
        assert abs(state.log_det - log_det) <= tol
        # on top of the ln det error, the running sum carries rounding of
        # at most 1e-13 relative over the 50 steps
        h = real_objective(total, state, c)
        want = -(log_det + n * math.log(c)) + n * (c * v.u.sum() - 1.0)
        assert abs(h - want) <= tol + 1e-13 * n * c * v.u.sum(), (
            len(checked), h, want)
        checked.append(len(checked))
        return h

    def factor(X, u):
        rebuilds.append(len(checked))
        return real_factor(X, u)

    def modify(*args):
        out = real_modify(*args)
        updates.append(len(checked))
        return out

    real_select = mvee.solvers.select_axis_gauss_southwell
    real_objective = mvee.solvers.objective_h
    real_factor = mvee.solvers.factor_from_weights
    real_modify = mvee.solvers.rank_one_modify
    patches = {"select_axis_gauss_southwell": select, "objective_h": objective,
               "factor_from_weights": factor, "rank_one_modify": modify,
               "init_khachiyan": holding(mvee.solvers.init_khachiyan, weights),
               "init_kumar_yildirim": holding(mvee.solvers.init_kumar_yildirim,
                                              weights)}
    if per_dim is not None:
        patches["_REBUILD_PER_DIM"] = per_dim
    saved = {name: getattr(mvee.solvers, name) for name in patches}
    for name, value in patches.items():
        setattr(mvee.solvers, name, value)
    try:
        rep = solve(X, SolverConfig(algorithm=alg, init=init, epsilon=1e-12,
                                    max_iter=50, seed=seed))
    finally:
        for name, value in saved.items():
            setattr(mvee.solvers, name, value)
    # one check per step plus the final objective
    assert len(checked) == rep.iterations + 1
    if per_dim is not None:
        # every 2 n successful updates since the last rebuild end in a
        # scheduled one, so the rebuild path ran more than once whenever
        # the solve made that many updates
        assert len(rebuilds) >= 1 + len(updates) // (per_dim * n), (
            rebuilds, updates)


def reference_simplex_step(u, kappa, j, increase, n):
    """The simplex step on normalised weights, in place: u <- (1 - t) u +
    t e_j over all m weights.  Returns the step type, scale = 1 - t and
    theta_rel = t / scale, for M(u') = scale (M(u) + theta_rel x_j x_j^T)."""
    kj, uj = kappa[j], u[j]
    if increase:
        t = (kj - n) / (n * (kj - 1.0))
        step_type = StepType.ADD if uj == 0.0 else StepType.INCREASE
    else:
        lam_drop = uj / (1.0 - uj)
        lam = (n - kj) / (n * (kj - 1.0)) if kj > 1.0 else np.inf
        step_type = StepType.DECREASE
        if lam_drop <= lam:
            lam, step_type = lam_drop, StepType.DROP
        t = -lam
    scale = 1.0 - t
    u *= scale
    if step_type is StepType.DROP:
        u[j] = 0.0
    else:
        u[j] += t
    return step_type, scale, (t / scale if scale > 1e-14 else np.inf)


@pytest.mark.parametrize("alg", [Algorithm.FWK, Algorithm.WA])
@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(0, 8),
       st.sampled_from(list(InitScheme)))
def test_simplex_weights_match_normalised_reference(alg, seed, n, extra,
                                                    init):
    # solve holds the fwk and wa iterate as u = c v and never rescales v,
    # kappa or M^{-1}; replaying its axes with the normalised step and the
    # rescaled state, c v follows the normalised weights step by step, stays
    # on the simplex, and c is 1 after every rebuild (a cadence of 2 n
    # updates forces several).  The solve stops at 1e-10: below about
    # cond(M) * 1e-16 its steps follow rounding noise in kappa, and two
    # roundings of one step then part by more than 1e-12 (m = n = 4,
    # seed 6534, where the start is already optimal, does at 1e-12)
    rng = np.random.default_rng(seed)
    X = PointSet(rng.standard_normal((n, n + extra)), symmetric=True)
    held, rebuilt, weights = [], set(), []

    def objective(total, state, c):
        held.append((weights[-1].u.copy(), c))
        return real_objective(total, state, c)

    def factor(X, v):
        # a rebuild and each stop's certificate factor the held weights
        if v is weights[-1]:
            rebuilt.add(len(held))
        return real_factor(X, v)

    real_objective = mvee.solvers.objective_h
    real_factor = mvee.solvers.factor_from_weights
    patches = {"objective_h": objective, "factor_from_weights": factor,
               "init_khachiyan": holding(mvee.solvers.init_khachiyan, weights),
               "init_kumar_yildirim": holding(mvee.solvers.init_kumar_yildirim,
                                              weights),
               "_REBUILD_PER_DIM": 2}
    saved = {name: getattr(mvee.solvers, name) for name in patches}
    for name, value in patches.items():
        setattr(mvee.solvers, name, value)
    try:
        rep = solve(X, SolverConfig(algorithm=alg, init=init, epsilon=1e-10,
                                    max_iter=200, seed=seed))
    finally:
        for name, value in saved.items():
            setattr(mvee.solvers, name, value)
    assert len(held) == rep.iterations + 1

    u = (init_khachiyan(X.count) if init is InitScheme.KHACHIYAN
         else init_kumar_yildirim(X, seed)).u
    stale = True
    for k in range(rep.iterations + 1):
        if stale or k in rebuilt:
            state = factor_from_weights(X, DualWeights(u))
            kappa = state.kappa
            stale = False
        v, c = held[k]
        if k in rebuilt:
            assert c == 1.0, (k, c)
        assert np.abs(c * v - u).max() <= 1e-12 * np.abs(u).max(), (k, c * v, u)
        assert abs((c * v).sum() - 1.0) <= 1e-12, k
        if k == rep.iterations:
            break
        row = rep.trace[k]
        increase = row.step_type in (StepType.ADD, StepType.INCREASE)
        step_type, scale, theta_rel = reference_simplex_step(
            u, kappa, row.axis, increase, n)
        assert step_type is row.step_type, (k, step_type, row)
        # the trace's theta is the step on u, t / (1 - t), and inf at the
        # jump; within 1e-12 of it, as the weights are, since near
        # kappa_j = n the step magnifies kappa's rounding by
        # kappa_j / (kappa_j - n): 1.6e-12 relative on fwk from the
        # Kumar-Yildirim start at seed 0, n 3, extra 4
        assert math.isclose(row.theta, theta_rel, rel_tol=1e-12,
                            abs_tol=1e-12), (k, row.theta, theta_rel)
        if not math.isfinite(theta_rel):
            stale = True
            continue
        try:
            rank_one_modify(state, X.points.T, row.axis, theta_rel)
        except SingularUpdate:
            stale = True
            continue
        # kappa and M^{-1} share the state's buffer
        state.buf /= scale
        state.log_det += n * math.log(scale)
    assert np.array_equal(rep.u_final.u, held[-1][1] * held[-1][0])


@pytest.mark.parametrize("runs", ["cd_small", "wa_small", "cd_moderate",
                                  "wa_moderate"])
def test_reported_eps_matches_fresh_certificate(runs, request):
    # the eps the loop stopped on, read from the kappa it maintained, and
    # the eps the report carries agree with one fresh rebuild from the
    # final weights, on the fixed-seed small (n=10, m=500) and moderate
    # (n=30, m=1800) regimes
    instances = request.getfixturevalue(
        "small_instances" if runs.endswith("small") else "moderate_instances")
    reports, _elapsed = request.getfixturevalue(runs)
    for seed, rep in reports.items():
        X = instances[seed]
        kappa = factor_from_weights(X, rep.u_final).kappa
        cert = certificate(rep.u_final, kappa, X.dim, 1e-7)
        fresh = max(cert.eps_plus, cert.eps_minus)
        for read in (rep.loop_eps, rep.final_eps):
            assert abs(fresh - read) <= 1e-10, (seed, fresh, read)


def longdouble_kappa(P, u):
    """kappa_i = p_i^T M^{-1} p_i for M = P diag(u) P^T by Gaussian
    elimination with partial pivoting in long double, and a first-order
    bound on its error relative to kappa.

    On the ill-conditioned sets cond(M) reaches 1e17, so elimination on M
    itself keeps only about cond(M) eps_ld = 1e-2 of kappa.  The points are
    first mapped through T = S^{-1} U^T of the float64 SVD P = U S V^T:
    kappa is the same for Y = T P in exact arithmetic, and M(Y) = T M T^T
    is well conditioned.  The rounding left is that of forming Y, at most
    rho = N^1.5 eps_ld cond(P) of each column, which moves kappa by at most
    4 rho sqrt(N cond(M(Y))) of itself, and that of forming and
    eliminating M(Y) in long double, (m + 2 N) N eps_ld cond(M(Y)).
    """
    N, m = P.shape
    U, sv, _ = np.linalg.svd(P, full_matrices=False)
    Y = (U / sv).T.astype(np.longdouble) @ P.astype(np.longdouble)
    A = (Y * u.astype(np.longdouble)) @ Y.T
    cond_my = np.linalg.cond(A.astype(float))
    B = Y.copy()
    for p in range(N):
        q = p + int(np.abs(A[p:, p]).argmax())
        A[[p, q]], B[[p, q]] = A[[q, p]], B[[q, p]]
        f = A[p + 1:, p] / A[p, p]
        A[p + 1:] -= f[:, None] * A[p]
        B[p + 1:] -= f[:, None] * B[p]
    Z = np.empty_like(B)
    for p in range(N - 1, -1, -1):
        Z[p] = (B[p] - A[p, p + 1:] @ Z[p + 1:]) / A[p, p]
    eps_ld = float(np.finfo(np.longdouble).eps)
    rho = N ** 1.5 * eps_ld * sv[0] / sv[-1]
    bound = (4.0 * rho * math.sqrt(N * cond_my)
             + (m + 2 * N) * N * eps_ld * cond_my)
    return np.einsum("ij,ij->j", Y, Z).astype(float), bound


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                    reason="long double is no wider than double here, so "
                    "the oracle would be no more precise than the solver")
@pytest.mark.parametrize("alg", [Algorithm.FWK, Algorithm.WA,
                                 Algorithm.CD_CONST])
@pytest.mark.parametrize("seed", [1234, 1235, 1236])
def test_reported_eps_holds_to_a_long_double_oracle(seed, alg):
    # at cond(A) = 1e7 the fresh kappa read as x^T (M^{-1} x) kept about one
    # digit: wa on seed 1235 reported converged at eps 9.09e-4 while its
    # weights read 1.02e-3.  Read as ||R^{-T} x||^2, a sum of squares from a
    # backward-stable QR of B = P U^{1/2}, kappa carries a relative error of
    # at most about 4 N u cond(B).  The reported eps, kappa / N - 1, is held
    # to the oracle within (1 + eps) times the two readings' relative
    # bounds, and its converged flag must agree wherever the oracle is
    # farther than that from the tolerance
    X = lift(ill_conditioned(seed))
    eps = 1e-3
    rep = solve(X, SolverConfig(algorithm=alg, epsilon=eps, max_iter=20_000))
    u = rep.u_final.u
    N = X.dim
    kappa, oracle_bound = longdouble_kappa(X.points, u)
    support = np.flatnonzero(u)
    sv = np.linalg.svd(X.points[:, support] * np.sqrt(u[support]),
                       compute_uv=False)
    solver_bound = 4 * N * np.finfo(float).eps * sv[0] / sv[-1]
    tol = (1.0 + eps) * (oracle_bound + solver_bound)
    cert = certificate(rep.u_final, kappa, N, eps)
    oracle = (cert.eps_plus if alg is Algorithm.FWK
              else max(cert.eps_plus, cert.eps_minus))
    assert abs(rep.final_eps - oracle) <= tol, (rep.final_eps, oracle, tol)
    if abs(oracle - eps) > tol:
        assert rep.converged == (oracle <= eps), (rep.final_eps, oracle)


@pytest.mark.parametrize("instance,alg,eps,max_iter,factors", [
    ("ill 1236", Algorithm.FWK, 1e-3, 20_000, None),
    ("gen 3 40", Algorithm.FWK, 1e-5, 200, 2),
    ("gen 3 40", Algorithm.CD_DIMINISH, 1e-5, 200, 2),
])
def test_no_stop_factors_the_weights_of_the_factor_before(
        instance, alg, eps, max_iter, factors, monkeypatch):
    # a stop is a rebuild, and solve() stops only on a state it has just
    # rebuilt, so no two consecutive factors are of the same weights, up to
    # scale.  On the ill-conditioned set fwk's maintained kappa drifts and
    # fresh readings refuse stops.  On gen_sample(3, 40, 0) (n = 4) the
    # scheduled rebuild after 50 n = 200 updates lands on k = max_iter, so
    # the start and that rebuild are the solve's only factors
    weights = []
    real_factor = mvee.solvers.factor_from_weights

    def recording(X, u):
        weights.append(u.u / u.u.sum())
        return real_factor(X, u)

    X = lift(ill_conditioned(1236) if instance == "ill 1236"
             else gen_sample(3, 40, 0))
    monkeypatch.setattr(mvee.solvers, "factor_from_weights", recording)
    rep = solve(X, SolverConfig(algorithm=alg, epsilon=eps, max_iter=max_iter))
    repeats = [k for k in range(1, len(weights))
               if np.allclose(weights[k], weights[k - 1], rtol=1e-12, atol=0)]
    assert not repeats, (len(weights), repeats)
    if factors is None:
        assert len(weights) > 2, len(weights)
    else:
        assert len(weights) == factors and rep.iterations == max_iter
        # the stop read the state the schedule rebuilt
        assert rep.loop_eps == rep.final_eps


# iterations and final h of every algorithm from both starts on lifted
# gen_sample(3, 40, 0) at eps 1e-5, max_iter 2000, seed 0.  Recorded with the
# six separate step functions that preceded the two kernels, so a refactor of
# the step layer that moves any trajectory shows here.
TRAJECTORIES = {
    ("fwk", "khachiyan"): (2000, -3.006161417439895),
    ("fwk", "kumar_yildirim"): (2000, -3.006481203573109),
    ("wa", "khachiyan"): (106, -3.00919434612231),
    ("wa", "kumar_yildirim"): (62, -3.009194346151878),
    ("cd_const", "khachiyan"): (157, -3.009194346161955),
    ("cd_const", "kumar_yildirim"): (99, -3.009194346183434),
    ("cd_diminish", "khachiyan"): (2000, -3.00918615669384),
    ("cd_diminish", "kumar_yildirim"): (2000, -3.009185526892855),
    ("cd_backtrack", "khachiyan"): (895, -3.009194345982945),
    ("cd_backtrack", "kumar_yildirim"): (167, -3.0091943460566073),
    ("rcd", "khachiyan"): (2000, -3.003931010624363),
    ("rcd", "kumar_yildirim"): (2000, -2.973633916161336),
}


@pytest.fixture(scope="module")
def small_lifted():
    return lift(gen_sample(3, 40, 0))


@pytest.mark.parametrize("alg,init", list(TRAJECTORIES))
def test_trajectory_pinned(small_lifted, alg, init):
    rep = solve(small_lifted, SolverConfig(algorithm=alg, init=init,
                                           epsilon=1e-5, max_iter=2000))
    iterations, final_h = TRAJECTORIES[alg, init]
    assert rep.iterations == iterations
    assert rep.final_h == pytest.approx(final_h, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("alg", list(Algorithm))
def test_kernels_called_once_per_iteration_through_module(small_lifted, alg,
                                                          monkeypatch):
    # the benchmark traces each layer by patching these module attributes,
    # and clocks its reference beside the solve from objective_h, so solve()
    # must look them up at call time and call each once per iteration or
    # once per incremental update; rank_one_modify looks apply_inverse up
    # through mvee.linalg
    calls = Counter()
    outcomes = []

    def counting(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            out = fn(*args)
            if isinstance(out, StepOutcome):
                outcomes.append(out)
            return out
        return wrapper

    for module, name in ((mvee.solvers, "cd_step"),
                         (mvee.solvers, "select_axis_gauss_southwell"),
                         (mvee.solvers, "objective_h"),
                         (mvee.linalg, "apply_inverse"),
                         (mvee.solvers, "rank_one_modify")):
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    rep = solve(small_lifted, SolverConfig(algorithm=alg, epsilon=1e-5,
                                           max_iter=300))
    assert rep.iterations > 0
    assert calls["cd_step"] == rep.iterations
    # the axis rule reads the certificate once per pass: one per step, one
    # for the last test on the maintained state, which calls for a rebuild,
    # and one for the fresh state's reading, which stops; the final
    # objective makes one objective_h call more
    assert calls["select_axis_gauss_southwell"] == rep.iterations + 2
    assert calls["objective_h"] == rep.iterations + 1
    # a step with a finite nonzero factor change is one incremental update
    updates = sum(math.isfinite(o.theta_rel) and o.theta_rel != 0.0
                  for o in outcomes)
    assert updates > 0
    for name in ("apply_inverse", "rank_one_modify"):
        assert calls[name] == updates, (name, calls[name], updates)


@pytest.mark.parametrize("alg", [Algorithm.CD_CONST, Algorithm.WA])
def test_singular_update_forces_one_rebuild(small_lifted, alg, monkeypatch):
    # a SingularUpdate from the kernel is caught in solve(), which rebuilds
    # from the weights once and carries on to a certificate that a fresh
    # factorization of the final weights confirms; the injected failure
    # comes before any scheduled rebuild (50 n = 200 updates)
    cfg = SolverConfig(algorithm=alg, epsilon=1e-5, max_iter=2000)
    factors = []
    real_factor = mvee.solvers.factor_from_weights

    def counting(X, u):
        factors.append(u)
        return real_factor(X, u)

    monkeypatch.setattr(mvee.solvers, "factor_from_weights", counting)
    plain = solve(small_lifted, cfg)
    plain_factors = len(factors)
    monkeypatch.setattr(mvee.solvers, "rank_one_modify",
                        singular_on_call(rank_one_modify, 20))
    rep = solve(small_lifted, cfg)
    assert plain.iterations > 20
    assert len(factors) - plain_factors == plain_factors + 1
    assert rep.converged
    kappa = real_factor(small_lifted, rep.u_final).kappa
    cert = certificate(rep.u_final, kappa, small_lifted.dim, cfg.epsilon)
    assert abs(max(cert.eps_plus, cert.eps_minus) - rep.final_eps) <= 1e-10


AXIS_RULE_INSTANCES = {
    "gen_sample": lift(gen_sample(3, 40, 0)),
    "zero_column": PointSet([[1, 0, 0, 2], [0, 1, 0, 1]], symmetric=True),
    "n1": PointSet(np.random.default_rng(0).standard_normal((1, 7)),
                   symmetric=True),
}


@pytest.mark.parametrize("name", list(AXIS_RULE_INSTANCES))
@pytest.mark.parametrize("init", list(InitScheme))
@pytest.mark.parametrize("alg", [Algorithm.RCD, Algorithm.CD_BACKTRACK])
def test_axis_rules_never_see_a_zero_gradient(name, init, alg, monkeypatch):
    # the loop stops once the certificate reaches epsilon > 0, so rcd_pick
    # never gets a vanishing gradient and every axis it or the Gauss-Southwell
    # rule hands to armijo_stepsize has kappa_j != n; neither guards it.  The
    # Kumar-Yildirim start on the zero-column instance is already optimal,
    # and that solve stops before any axis rule runs
    calls = []
    real_pick = mvee.solvers.rcd_pick
    real_armijo = mvee.solvers.armijo_stepsize

    def pick(grad, rng):
        assert np.abs(grad).sum() > 0.0
        j = real_pick(grad, rng)
        assert grad[j] != 0.0, (j, grad)
        calls.append(j)
        return j

    def armijo(u_j, kappa_j, n, k):
        assert n - kappa_j != 0.0, (k, kappa_j)
        calls.append(k)
        return real_armijo(u_j, kappa_j, n, k)

    monkeypatch.setattr(mvee.solvers, "rcd_pick", pick)
    monkeypatch.setattr(mvee.solvers, "armijo_stepsize", armijo)
    rep = solve(AXIS_RULE_INSTANCES[name],
                SolverConfig(algorithm=alg, init=init, max_iter=2000))
    assert len(calls) == rep.iterations


@pytest.mark.parametrize("name", list(AXIS_RULE_INSTANCES))
@pytest.mark.parametrize("init", list(InitScheme))
@pytest.mark.parametrize("alg", list(Algorithm))
def test_step_goes_up_exactly_when_the_axis_rule_chose_the_increase(
        name, init, alg, monkeypatch):
    # the stepsize rules read the direction from kappa_j > n alone; on every
    # step it agrees with the one the loop chose: the Gauss-Southwell argmax
    # (always for fwk), or a negative gradient at rcd's sampled axis.  fwk
    # and wa read kappa_j / c against n while the Gauss-Southwell direction
    # reads kappa_j against n c, with c that of the objective_h call that
    # follows each selection, and they agree too
    X = AXIS_RULE_INSTANCES[name]
    choices, scales, descents, steps = [], [], [], []
    real_select = mvee.solvers.select_axis_gauss_southwell
    real_objective = mvee.solvers.objective_h
    real_pick = mvee.solvers.rcd_pick
    real_step = mvee.solvers.cd_step
    fwk = alg is Algorithm.FWK

    def select(kappa, support):
        choices.append(real_select(kappa, support))
        return choices[-1]

    def objective(total, state, c):
        scales.append(c)
        return real_objective(total, state, c)

    def pick(grad, rng):
        j = real_pick(grad, rng)
        descents.append(grad[j] < 0.0)
        return j

    def step(u, j, theta):
        chosen = choices[-1]
        if alg is Algorithm.RCD:
            up = descents[-1]
        else:
            j_plus, j_minus, kappa_plus, kappa_minus = chosen
            nc = X.dim * scales[-1]
            up = fwk or kappa_plus / nc - 1.0 >= 1.0 - kappa_minus / nc
            assert j == (j_plus if up else j_minus), (len(steps), j, chosen)
        assert (theta > 0.0) == up, (len(steps), j, theta, chosen)
        steps.append(up)
        return real_step(u, j, theta)

    monkeypatch.setattr(mvee.solvers, "select_axis_gauss_southwell", select)
    monkeypatch.setattr(mvee.solvers, "objective_h", objective)
    monkeypatch.setattr(mvee.solvers, "rcd_pick", pick)
    monkeypatch.setattr(mvee.solvers, "cd_step", step)
    rep = solve(X, SolverConfig(algorithm=alg, init=init, max_iter=2000))
    assert len(steps) == rep.iterations


def test_wall_time_includes_the_start(small_lifted, monkeypatch):
    real_init = mvee.solvers.init_kumar_yildirim

    def slow_init(X, seed):
        time.sleep(0.05)
        return real_init(X, seed)

    monkeypatch.setattr(mvee.solvers, "init_kumar_yildirim", slow_init)
    rep = solve(small_lifted, SolverConfig(epsilon=1e-5))
    assert rep.wall_time >= 0.05


@pytest.mark.parametrize("init", list(InitScheme))
@pytest.mark.parametrize("alg", list(Algorithm))
def test_solve_from_a_given_start_is_bit_identical(small_lifted, alg, init,
                                                   monkeypatch):
    cfg = SolverConfig(algorithm=alg, init=init, epsilon=1e-5, max_iter=2000)
    start = initial_weights(small_lifted, cfg)
    before = start.u.tobytes()
    own = solve(small_lifted, cfg)

    def no_init(*args):
        raise AssertionError("solve computed a start it was given")

    monkeypatch.setattr(mvee.solvers, "init_khachiyan", no_init)
    monkeypatch.setattr(mvee.solvers, "init_kumar_yildirim", no_init)
    given = solve(small_lifted, cfg, start)
    assert given.trace == own.trace
    assert (given.iterations, given.final_eps, given.final_h) == \
        (own.iterations, own.final_eps, own.final_h)
    assert given.u_final.u.tobytes() == own.u_final.u.tobytes()
    assert start.u.tobytes() == before  # solve moved its own copy


@pytest.mark.parametrize("given", [False, True])
@pytest.mark.parametrize("alg", list(Algorithm))
def test_report_returns_the_weights_solve_iterated_on(small_lifted, alg,
                                                      given, monkeypatch):
    # u_final is the array the loop stepped, not a copy made after the loop:
    # a fresh m-length copy, kept by a caller until its checks ran, made the
    # bench's worker threads fault in the pages of every later instance
    cfg = SolverConfig(algorithm=alg, epsilon=1e-5, max_iter=2000)
    start = initial_weights(small_lifted, cfg) if given else None
    factored = []
    real_factor = mvee.solvers.factor_from_weights

    def recording(X, u):
        factored.append(u)
        return real_factor(X, u)

    monkeypatch.setattr(mvee.solvers, "factor_from_weights", recording)
    rep = solve(small_lifted, cfg, start)
    # the first rebuild factors the loop's own weights
    assert rep.u_final is factored[0]
    if given:
        assert rep.u_final is not start


def test_khachiyan_init_supported():
    X = lift(gen_sample(3, 40, 8))
    rep = solve(X, SolverConfig(init=InitScheme.KHACHIYAN, epsilon=1e-7,
                                max_iter=20_000))
    assert rep.converged


def test_backtracking_solver_end_to_end():
    X = lift(gen_sample(4, 90, 12))
    rep = solve(X, SolverConfig(algorithm=Algorithm.CD_BACKTRACK,
                                epsilon=1e-7, max_iter=50_000))
    assert rep.converged
    assert rep.final_eps <= 1e-7


# --- configuration and traces -------------------------------------------------------------------

def test_solver_config_coerces_and_validates():
    cfg = SolverConfig(algorithm="wa", init="khachiyan")
    assert cfg.algorithm is Algorithm.WA
    assert cfg.init is InitScheme.KHACHIYAN
    with pytest.raises(MveeError):
        SolverConfig(epsilon=0.0)
    with pytest.raises(MveeError):
        SolverConfig(max_iter=0)
    for bad in (dict(algorithm="newton"), dict(init="uniform")):
        with pytest.raises(MveeError) as info:
            SolverConfig(**bad)
        assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("alg", list(Algorithm))
def test_trace_csv_format(alg, tmp_path):
    X = lift(gen_sample(3, 30, 5))
    rep = solve(X, SolverConfig(algorithm=alg, epsilon=1e-5, max_iter=500))
    path = tmp_path / "trace.csv"
    write_trace(rep.trace, path)
    lines = path.read_text().strip().splitlines()
    # the documented header: a renamed IterationRecord field must show here
    assert lines[0] == TRACE_HEADER == (
        "iter,step_type,axis,kappa_max,kappa_min_support,eps,h,theta")
    assert len(lines) == rep.iterations + 1
    # a row's cells are its position and IterationRecord's fields in order,
    # so a field write_trace leaves out or moves shows here
    numeric = [f.name for f in fields(IterationRecord) if f.type is float]
    assert numeric == TRACE_HEADER.split(",")[3:]
    for k, (line, rec) in enumerate(zip(lines[1:], rep.trace)):
        cols = line.split(",")
        assert len(cols) == len(TRACE_HEADER.split(","))
        assert cols[0] == str(k)  # a row's iteration is its position
        assert cols[1] == rec.step_type.value
        assert int(cols[2]) == rec.axis
        for name, cell in zip(numeric, cols[3:]):
            assert float(cell) == getattr(rec, name), (k, name)


@pytest.mark.parametrize("init", list(InitScheme))
@pytest.mark.parametrize("alg", list(Algorithm))
def test_trace_theta_is_signed_by_the_step(alg, init):
    # theta is the step on u as taken, so it is positive exactly on the
    # steps that move u_j up; a wa away step reads negative, like a cd one
    X = lift(gen_sample(3, 40, 0))
    rep = solve(X, SolverConfig(algorithm=alg, init=init, epsilon=1e-5,
                                max_iter=2000))
    assert rep.trace
    for k, row in enumerate(rep.trace):
        up = row.step_type in (StepType.ADD, StepType.INCREASE)
        assert (row.theta > 0.0) == up, (k, row)


@pytest.mark.parametrize("alg", [Algorithm.FWK, Algorithm.WA])
def test_simplex_full_jump_at_n_1(alg, tmp_path):
    # at n = 1 the simplex increase is the full jump u' = e_j onto the
    # farthest point, which already certifies the optimum
    X = PointSet(np.random.default_rng(0).standard_normal((1, 7)),
                 symmetric=True)
    x = X.points[0]
    j = int(np.abs(x).argmax())
    cfg = SolverConfig(algorithm=alg, init=InitScheme.KHACHIYAN)
    rep = solve(X, cfg)
    assert rep.iterations == 1 and rep.converged
    (row,) = rep.trace
    assert (row.step_type, row.axis, row.theta) == (
        StepType.INCREASE, j, math.inf)
    assert np.array_equal(rep.u_final.u, np.eye(7)[j])
    E, _ = enclose(X, cfg)
    assert E.shape[0, 0] == pytest.approx(1.0 / x[j] ** 2, rel=1e-15)
    path = tmp_path / "trace.csv"
    write_trace(rep.trace, path)
    assert path.read_text().splitlines()[1].split(",")[-1] == "inf"
    # the Kumar-Yildirim start is that point already
    rep = solve(X, SolverConfig(algorithm=alg))
    assert rep.iterations == 0 and rep.converged
