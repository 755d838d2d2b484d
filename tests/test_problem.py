import io
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

import mvee.solvers
from conftest import ill_conditioned
from mvee.cli import _load_plan
from mvee.errors import InvalidInput, MveeError, NotFullRank
from mvee.harness import (BenchmarkPlan, Regime, emit_decrement_curves,
                          gen_sample, run_benchmark)
from mvee.linalg import factor_from_weights
from mvee.problem import (
    DualWeights,
    Ellipsoid,
    PointSet,
    certificate,
    lift,
    objective_h,
    read_points,
    volume,
    write_ellipsoid_json,
    write_points,
)
from mvee.solvers import (Algorithm, InitScheme, SolverConfig, enclose,
                          init_khachiyan, solve)

SQUARE = PointSet(np.array([[1.0, 1.0], [1.0, -1.0]]), symmetric=True)
INTERVAL = PointSet(np.array([[0.0, 1.0]]))


# --- point sets and weights ---------------------------------------------------

def test_pointset_coerces_and_validates():
    ps = PointSet([[0, 1, 2], [3, 4, 5]])
    assert ps.dim == 2 and ps.count == 3
    assert ps.points.dtype == np.float64


def test_pointset_rejects_nonfinite():
    with pytest.raises(MveeError):
        PointSet(np.array([[1.0, np.nan]]))


def test_pointset_too_few_points():
    with pytest.raises(InvalidInput):
        PointSet(np.eye(3)[:, :2] * 0 + np.array([[1.0, 2.0]] * 3))
    # symmetric storage only needs n columns
    assert PointSet(np.eye(2), symmetric=True).count == 2


def test_dual_weights_support():
    u = DualWeights(np.array([0.5, 0.0, 0.5]))
    assert np.flatnonzero(u.support).tolist() == [0, 2]
    assert u.u.sum() == pytest.approx(1.0)
    # the support follows the weights: there is no mask to keep in step
    u.u[1], u.u[2] = 0.5, 0.0
    assert np.flatnonzero(u.support).tolist() == [0, 1]


# --- lifting --------------------------------------------------------------------

def test_lift_interval():
    lifted = lift(INTERVAL)
    assert lifted.symmetric
    assert np.array_equal(lifted.points, [[0.0, 1.0], [1.0, 1.0]])


def test_lift_appends_ones_row():
    ps = PointSet(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    assert np.array_equal(lift(ps).points[-1], np.ones(3))


def test_lift_requires_interior():
    with pytest.raises(InvalidInput):
        lift(PointSet(np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0],
                                [0.0, 1.0, 2.0]])))


def test_lift_rejects_symmetric_input():
    with pytest.raises(MveeError):
        lift(SQUARE)


# --- the enclosing ellipsoid ------------------------------------------------------

@pytest.mark.parametrize("init", list(InitScheme))
def test_enclose_interval(init):
    # both starts weight each end 1/2, the optimum: no step is taken
    E, rep = enclose(INTERVAL, SolverConfig(init=init))
    assert rep.iterations == 0
    assert E.center[0] == pytest.approx(0.5, abs=1e-14)
    assert E.shape[0, 0] == pytest.approx(4.0, abs=1e-12)
    # the recovered set {x : 4 (x - 1/2)^2 <= 1} is exactly [0, 1]
    assert volume(E) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("init", list(InitScheme))
def test_enclose_symmetric_passthrough(init):
    E, rep = enclose(SQUARE, SolverConfig(init=init))
    assert rep.iterations == 0
    assert np.allclose(E.center, 0.0)
    assert np.allclose(E.shape, np.eye(2), atol=1e-12)
    assert E.level == 2.0


@pytest.mark.parametrize("init", list(InitScheme))
def test_enclose_degenerate_support(init):
    pts = PointSet(np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]]))
    with pytest.raises(NotFullRank):
        enclose(pts, SolverConfig(init=init))


@pytest.mark.parametrize("lifted", [True, False], ids=["lifted", "unlifted"])
@pytest.mark.parametrize("n", [1, 3, 11])
def test_enclose_shape_is_the_inverse_covariance(n, lifted):
    rng = np.random.default_rng(n)
    m = 3 * n + 4
    P = rng.standard_normal((n, m))
    X = PointSet(P, symmetric=not lifted)
    E, rep = enclose(X, SolverConfig())
    # the weights enclose used, normalised: at n = 3 and 11 cd_const ends
    # with e^T u 1e-8 off 1, which the 1e-12 bound would see unnormalised
    u = rep.u_final
    w = u.u / u.u.sum()
    c = P @ w if lifted else np.zeros(n)
    want = np.linalg.inv((P * w) @ P.T - np.outer(c, c))
    assert np.abs(E.shape - want).max() <= 1e-12 * np.abs(want).max()
    assert np.array_equal(E.shape, E.shape.T)
    assert E.center == pytest.approx(c, rel=1e-12, abs=1e-15)
    # ln det H comes from the solver's factor: -ln det M(w)
    assert E.logdet == pytest.approx(np.linalg.slogdet(E.shape)[1],
                                     rel=1e-12, abs=0.0)


# the small sets of `mvee solve`'s fingerprint lines, as enclose takes them
CERTIFIED_SETS = {
    "gen(3,40,0)": lambda: gen_sample(3, 40, 0),
    "gen(5,80,5)": lambda: gen_sample(5, 80, 5),
    "normal(4,30,7)": lambda: PointSet(
        np.random.default_rng(7).standard_normal((30, 4)).T, symmetric=True),
}
CERTIFIED_ALGORITHMS = [Algorithm.CD_CONST, Algorithm.WA, Algorithm.FWK]


@pytest.mark.parametrize("alg", CERTIFIED_ALGORITHMS, ids=lambda a: a.value)
@pytest.mark.parametrize("name", CERTIFIED_SETS)
def test_enclose_report_matches_solve_on_well_conditioned_sets(name, alg):
    # enclose returns solve()'s report, certificate and all
    X = CERTIFIED_SETS[name]()
    config = SolverConfig(algorithm=alg, epsilon=1e-3)
    _, rep = enclose(X, config)
    want = solve(X if X.symmetric else lift(X), config)
    assert rep.iterations == want.iterations
    assert rep.final_h == want.final_h
    assert np.array_equal(rep.u_final.u, want.u_final.u)
    assert rep.converged is want.converged
    assert rep.final_eps == want.final_eps


@pytest.mark.parametrize("alg", CERTIFIED_ALGORITHMS, ids=lambda a: a.value)
@pytest.mark.parametrize("name", CERTIFIED_SETS)
def test_enclose_factors_as_often_as_solve(name, alg, monkeypatch):
    # the ellipsoid is read from the factor that certifies solve()'s report
    calls = []
    real = mvee.solvers.factor_from_weights

    def counting(X, u):
        calls.append(u)
        return real(X, u)

    monkeypatch.setattr(mvee.solvers, "factor_from_weights", counting)
    X = CERTIFIED_SETS[name]()
    config = SolverConfig(algorithm=alg, epsilon=1e-3)
    enclose(X, config)
    by_enclose = len(calls)
    solve(X if X.symmetric else lift(X), config)
    assert len(calls) - by_enclose == by_enclose


@pytest.mark.parametrize("alg", CERTIFIED_ALGORITHMS, ids=lambda a: a.value)
@pytest.mark.parametrize("name", CERTIFIED_SETS)
def test_enclose_reads_h_and_the_ellipsoid_from_the_factor_of_u(name, alg):
    # the report's factor is that of u_final itself, and final h is read
    # from it; H = s M(u)^{-1} and ln det H = N ln s - ln det M(u), s = e^T u,
    # agree with a factor of the normalised weights u / s
    X = CERTIFIED_SETS[name]()
    E, rep = enclose(X, SolverConfig(algorithm=alg, epsilon=1e-3))
    solved = X if X.symmetric else lift(X)
    u = rep.u_final
    s = float(u.u.sum())
    assert rep.final_h == objective_h(s, factor_from_weights(solved, u), 1.0)
    n = X.dim
    normalised = factor_from_weights(solved, DualWeights(u.u / s))
    want = normalised.Minv[:n, :n]
    assert np.abs(E.shape - want).max() <= 1e-12 * np.abs(want).max()
    assert E.logdet == pytest.approx(-normalised.log_det, rel=1e-12, abs=0.0)


# the two ways to a report: solve() on the lifted set, and enclose()
ENTRY_POINTS = {
    "solve": lambda X, config: solve(lift(X), config),
    "enclose": lambda X, config: enclose(X, config)[1],
}


@pytest.mark.parametrize("alg", CERTIFIED_ALGORITHMS, ids=lambda a: a.value)
@pytest.mark.parametrize("seed", [1234, 1235, 1236])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_enclose_reads_the_certificate_from_a_fresh_factor(entry, seed, alg):
    # at cond(A) = 1e7 the kappa solve() maintains drifts, and the
    # certificate read from it passed eps = 1e-3 on these runs while a
    # fresh factor did not; solve() steps on until the fresh reading passes
    # or max_iter is reached.  The report reads the factor of u_final
    # itself: a factor of u / e^T u rounds differently, by up to about
    # 1e-6 of eps here
    X = ill_conditioned(seed)
    eps = 1e-3
    rep = ENTRY_POINTS[entry](X, SolverConfig(algorithm=alg, epsilon=eps,
                                              max_iter=20_000))
    assert rep.converged or rep.iterations == 20_000
    u = rep.u_final
    cert = certificate(u, factor_from_weights(lift(X), u).kappa, X.dim + 1,
                       eps)
    fresh = (cert.eps_plus if alg is Algorithm.FWK
             else max(cert.eps_plus, cert.eps_minus))
    assert rep.final_eps == pytest.approx(fresh, rel=1e-12, abs=0.0)
    assert rep.converged == (rep.final_eps <= eps)


# --- volume -----------------------------------------------------------------------

def test_volume_disk():
    # {x : |x|^2 <= level}: the unit disk at level 1, radius sqrt 2 at 2
    for level, area in ((1.0, np.pi), (2.0, 2 * np.pi)):
        E = Ellipsoid(np.zeros(2), np.eye(2), level, 0.0)
        assert volume(E) == pytest.approx(area, rel=1e-12)


def test_volume_unit_ball():
    E = Ellipsoid(np.zeros(3), 3.0 * np.eye(3), 3.0, 3 * np.log(3.0))
    assert volume(E) == pytest.approx(4 * np.pi / 3, rel=1e-12)


# {x : |x|^2 <= n}, the level-n ball of H = I; n = 2 is test_volume_disk
@pytest.mark.parametrize("n,want", [
    (1, 2.0),
    (3, 4.0 / 3.0 * np.pi * 3.0 ** 1.5),
    (4, 8.0 * np.pi ** 2),
    (5, 8.0 / 15.0 * np.pi ** 2 * 5.0 ** 2.5),
    (6, 36.0 * np.pi ** 3),
])
def test_volume_level_n_ball(n, want):
    E = Ellipsoid(np.zeros(n), np.eye(n), float(n), 0.0)
    assert volume(E) == pytest.approx(want, rel=1e-12)


@given(st.integers(0, 5_000), st.integers(1, 4), st.floats(0.1, 9.0))
def test_volume_scaling(seed, n, t):
    # shape t*H shrinks the volume by t^(n/2)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    H = A @ A.T + n * np.eye(n)
    logdet = np.linalg.slogdet(H)[1]
    base = Ellipsoid(np.zeros(n), H, float(n), logdet)
    scaled = Ellipsoid(np.zeros(n), t * H, float(n), n * np.log(t) + logdet)
    assert volume(scaled) == pytest.approx(volume(base) / t ** (n / 2),
                                           rel=1e-9)


# --- objective and certificate -------------------------------------------------------

def test_objective_matches_dense():
    rng = np.random.default_rng(4)
    X = PointSet(rng.standard_normal((3, 7)), symmetric=True)
    u = DualWeights(rng.uniform(0.1, 0.5, 7))
    state = factor_from_weights(X, u)
    M = (X.points * u.u) @ X.points.T
    want = -np.linalg.slogdet(M)[1] + 3 * (u.u.sum() - 1.0)
    assert objective_h(u.u.sum(), state) == pytest.approx(want, abs=1e-12)


def test_certificate_at_optimum():
    u = DualWeights(np.array([0.5, 0.5]))
    rep = certificate(u, np.array([2.0, 2.0]), 2, 1e-7)
    assert rep.eps_plus == 0.0 and rep.eps_minus == 0.0
    assert rep.eps_primal_feasible and rep.eps_approx_optimal
    assert rep.gap_bound == 0.0


def test_certificate_infeasible():
    u = DualWeights(np.array([0.5, 0.5]))
    rep = certificate(u, np.array([2.2, 1.9]), 2, 0.05)
    assert rep.eps_plus == pytest.approx(0.1)
    assert not rep.eps_primal_feasible
    assert not rep.eps_approx_optimal


def test_certificate_within_tolerance():
    u = DualWeights(np.array([0.5, 0.5]))
    rep = certificate(u, np.array([2.08, 1.94]), 2, 0.05)
    assert rep.eps_primal_feasible and rep.eps_approx_optimal
    assert rep.gap_bound <= 2 * np.log(1.04) + 1e-12


def test_certificate_requires_support():
    with pytest.raises(MveeError):
        certificate(DualWeights(np.zeros(2)), np.array([2.0, 2.0]), 2, 1e-7)


def _file(tmp, name, text):
    path = tmp / name
    path.write_text(text)
    return path


BAD_INPUTS = {
    "pointset_not_2d": lambda tmp: PointSet(np.zeros(3)),
    "pointset_nonfinite": lambda tmp: PointSet(np.array([[1.0, np.inf]])),
    "pointset_zero_dim": lambda tmp: PointSet(np.zeros((0, 3)), symmetric=True),
    "pointset_m_equals_n": lambda tmp: PointSet(np.eye(3)),
    "pointset_symmetric_m_below_n": lambda tmp: PointSet(np.eye(3)[:, :2],
                                                         symmetric=True),
    "weights_not_1d": lambda tmp: DualWeights(np.ones((2, 2))),
    "weights_negative": lambda tmp: DualWeights(np.array([1.0, -1.0])),
    "weights_nan": lambda tmp: DualWeights(np.array([0.5, np.nan])),
    "weights_inf": lambda tmp: DualWeights(np.array([np.inf, 0.5])),
    "pointset_complex": lambda tmp: PointSet(
        np.array([[1 + 1j, 2, 3], [0, 1, 2]]), symmetric=True),
    "weights_complex": lambda tmp: DualWeights(np.array([0.5 + 1j, 0.5])),
    "pointset_str": lambda tmp: PointSet(
        np.array([["1", "2", "3"], ["0", "1", "2"]]), symmetric=True),
    "weights_str": lambda tmp: DualWeights(["x", "1"]),
    "lift_symmetric": lambda tmp: lift(SQUARE),
    "certificate_no_support": lambda tmp: certificate(
        DualWeights(np.zeros(2)), np.array([2.0, 2.0]), 2, 1e-7),
    "config_epsilon": lambda tmp: SolverConfig(epsilon=-1.0),
    "config_epsilon_nan": lambda tmp: SolverConfig(epsilon=float("nan")),
    "config_epsilon_str": lambda tmp: SolverConfig(epsilon="1e-3"),
    "config_epsilon_none": lambda tmp: SolverConfig(epsilon=None),
    "config_epsilon_complex": lambda tmp: SolverConfig(epsilon=1 + 0j),
    "config_epsilon_bool": lambda tmp: SolverConfig(epsilon=True),
    "config_max_iter": lambda tmp: SolverConfig(max_iter=0),
    "config_max_iter_float": lambda tmp: SolverConfig(max_iter=2.5),
    "config_seed_negative": lambda tmp: SolverConfig(seed=-1),
    "config_seed_float": lambda tmp: SolverConfig(seed=1.5),
    "config_max_iter_bool": lambda tmp: SolverConfig(max_iter=True),
    "config_algorithm": lambda tmp: SolverConfig(algorithm="newton"),
    "config_init": lambda tmp: SolverConfig(init="uniform"),
    "init_khachiyan_empty": lambda tmp: init_khachiyan(0),
    "init_khachiyan_bool": lambda tmp: init_khachiyan(True),
    "init_khachiyan_float": lambda tmp: init_khachiyan(2.0),
    "solve_not_symmetric": lambda tmp: solve(INTERVAL, SolverConfig()),
    "solve_start_length": lambda tmp: solve(
        SQUARE, SolverConfig(), DualWeights(np.full(3, 1 / 3))),
    "regime_n": lambda tmp: Regime("r", 0, 5, 1),
    "regime_m": lambda tmp: Regime("r", 4, 4, 1),
    "regime_repetitions": lambda tmp: Regime("r", 4, 30, 0),
    "regime_n_float": lambda tmp: Regime("r", 4.5, 30, 1),
    "regime_m_float": lambda tmp: Regime("r", 3, 20.5, 1),
    "regime_repetitions_float": lambda tmp: Regime("r", 3, 20, 1.5),
    "regime_bool": lambda tmp: Regime("r", True, 3, True),
    "regime_label_dot": lambda tmp: Regime(".", 4, 30, 1),
    "plan_no_regimes": lambda tmp: BenchmarkPlan(
        [], [Algorithm.CD_CONST], tmp),
    "plan_no_algorithms": lambda tmp: BenchmarkPlan(
        [Regime("r", 4, 30, 1)], [], tmp),
    "plan_seed_negative": lambda tmp: BenchmarkPlan(
        [Regime("r", 4, 30, 1)], [Algorithm.CD_CONST], tmp, seed=-1),
    "plan_epsilon_nan": lambda tmp: BenchmarkPlan(
        [Regime("r", 4, 30, 1)], [Algorithm.CD_CONST], tmp,
        epsilon=float("nan")),
    "plan_repeated_algorithm": lambda tmp: BenchmarkPlan(
        [Regime("r", 4, 30, 1)], [Algorithm.CD_CONST, "cd_const"], tmp),
    "run_benchmark_parallelism_zero": lambda tmp: run_benchmark(
        BenchmarkPlan([Regime("r", 4, 30, 1)], [Algorithm.CD_CONST],
                      tmp / "out"),
        parallelism=0),
    "gen_sample_n": lambda tmp: gen_sample(0, 5, 0),
    "gen_sample_m": lambda tmp: gen_sample(3, 3, 0),
    "gen_sample_seed_negative": lambda tmp: gen_sample(3, 20, -1),
    "gen_sample_n_float": lambda tmp: gen_sample(4.5, 30, 0),
    "gen_sample_m_float": lambda tmp: gen_sample(3, 20.5, 0),
    "curves_no_dimensions": lambda tmp: emit_decrement_curves(
        [], tmp / "curves.csv"),
    "curves_non_integer_dimension": lambda tmp: emit_decrement_curves(
        [2.5], tmp / "curves.csv"),
    "points_non_numeric": lambda tmp: read_points(
        _file(tmp, "pts.txt", "1 2\n3 oops\n")),
    "points_ragged": lambda tmp: read_points(
        _file(tmp, "pts.txt", "1 2\n3\n")),
    "points_empty_field": lambda tmp: read_points(
        _file(tmp, "pts.csv", "1,2\n3,,4\n")),
    "points_nan": lambda tmp: read_points(_file(tmp, "pts.txt", "1 2\n3 nan\n")),
    "points_inf": lambda tmp: read_points(_file(tmp, "pts.txt", "1 2\n3 inf\n")),
    "points_comment_only": lambda tmp: read_points(
        _file(tmp, "pts.txt", "# nothing\n")),
    "plan_broken_ini": lambda tmp: _load_plan(
        _file(tmp, "plan.ini", "[plan\nseed = 1\n"), tmp / "out"),
    "plan_unknown_key": lambda tmp: _load_plan(
        _file(tmp, "plan.ini", "[plan]\nmax_iters = 5\n\n[regime.r]\nn = 4\n"
              "m = 30\n"), tmp / "out"),
    "plan_unknown_section": lambda tmp: _load_plan(
        _file(tmp, "plan.ini", "[plan]\n\n[regim.r]\nn = 4\nm = 30\n"),
        tmp / "out"),
    "plan_unknown_algorithm": lambda tmp: _load_plan(
        _file(tmp, "plan.ini", "[plan]\nalgorithms = simplex\n\n[regime.r]\n"
              "n = 4\nm = 30\n"), tmp / "out"),
    "plan_missing_file": lambda tmp: _load_plan(tmp / "nope.ini", tmp / "out"),
    "plan_percent_algorithm": lambda tmp: _load_plan(
        _file(tmp, "plan.ini", "[plan]\nalgorithms = cd%\n\n[regime.r]\n"
              "n = 4\nm = 30\n"), tmp / "out"),
    "plan_percent_seed": lambda tmp: _load_plan(
        _file(tmp, "plan.ini", "[plan]\nseed = 1%\n\n[regime.r]\nn = 4\n"
              "m = 30\n"), tmp / "out"),
    "plan_label_escapes": lambda tmp: _load_plan(
        _file(tmp, "plan.ini", "[plan]\n\n[regime.../escaped]\nn = 4\n"
              "m = 30\n"), tmp / "out" / "o"),
    "plan_label_slash": lambda tmp: _load_plan(
        _file(tmp, "plan.ini", "[plan]\n\n[regime.a/b]\nn = 4\nm = 30\n"),
        tmp / "out"),
    "plan_label_empty": lambda tmp: _load_plan(
        _file(tmp, "plan.ini", "[plan]\n\n[regime.]\nn = 4\nm = 30\n"),
        tmp / "out"),
}


@pytest.mark.parametrize("make", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_raises_invalid_input(make, tmp_path):
    # a named MveeError that `except ValueError` callers still catch
    with pytest.raises(InvalidInput) as info:
        make(tmp_path)
    assert isinstance(info.value, MveeError)
    assert isinstance(info.value, ValueError)


# the rule each rejected epsilon breaks
EPSILON_MESSAGES = {
    "config_epsilon": "epsilon must be positive",
    "config_epsilon_nan": "epsilon must be positive",
    "config_epsilon_str": "epsilon must be a real number",
    "config_epsilon_none": "epsilon must be a real number",
    "config_epsilon_complex": "epsilon must be a real number",
    "config_epsilon_bool": "epsilon must be a real number",
}


@pytest.mark.parametrize("case", EPSILON_MESSAGES)
def test_rejected_epsilon_names_its_rule(case, tmp_path):
    with pytest.raises(InvalidInput) as info:
        BAD_INPUTS[case](tmp_path)
    assert str(info.value) == EPSILON_MESSAGES[case]


# --- solver-facing invariants ---------------------------------------------------------

def test_containment_after_solve():
    rng = np.random.default_rng(8)
    ps = PointSet(rng.standard_normal((3, 40)))
    E, rep = enclose(ps, SolverConfig(epsilon=1e-9, max_iter=50_000))
    assert rep.converged
    r = np.einsum("ij,ij->j", ps.points - E.center[:, None],
                  E.shape @ (ps.points - E.center[:, None]))
    assert r.max() <= 3 * (1 + 1e-7)


def test_affine_equivariance():
    rng = np.random.default_rng(15)
    ps = PointSet(rng.standard_normal((2, 30)))
    A = np.array([[2.0, 1.0], [0.5, -1.5]])
    b = np.array([3.0, -1.0])
    mapped = PointSet(A @ ps.points + b[:, None])

    cfg = SolverConfig(epsilon=1e-10, max_iter=50_000)
    E1, _ = enclose(ps, cfg)
    E2, _ = enclose(mapped, cfg)

    Ainv = np.linalg.inv(A)
    assert np.allclose(E2.center, A @ E1.center + b, rtol=1e-5, atol=1e-7)
    assert np.allclose(E2.shape, Ainv.T @ E1.shape @ Ainv, rtol=1e-5,
                       atol=1e-8)
    assert volume(E2) == pytest.approx(abs(np.linalg.det(A)) * volume(E1),
                                       rel=1e-5)


def test_objective_lower_bounded_by_optimum():
    rng = np.random.default_rng(30)
    X = PointSet(rng.standard_normal((2, 8)), symmetric=True)
    best = solve(X, SolverConfig(epsilon=1e-11, max_iter=50_000))
    assert best.converged
    for k in range(20):
        w = np.random.default_rng(k).dirichlet(np.ones(8))
        h = objective_h(w.sum(), factor_from_weights(X, DualWeights(w)))
        assert h >= best.final_h - 1e-8


# --- point file round trips --------------------------------------------------------------

def test_point_file_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    rows = rng.standard_normal((12, 3))
    path = tmp_path / "pts.txt"
    write_points(path, rows)
    assert np.allclose(read_points(path), rows, atol=0)


def test_read_points_csv_with_header(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("x,y\n1.0,2.0\n3.0,4.0\n")
    assert np.array_equal(read_points(path), [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("text", [
    "0,0\n1,0\n0,1\n1,1\n",
    "x,y\n0,0\n1,0\n0,1\n1,1\n",
    "0 0\n1 0\n0 1\n1 1\n",
], ids=["csv", "csv_header", "whitespace"])
def test_read_points_ignores_a_byte_order_mark(tmp_path, text):
    # a UTF-8 byte-order mark before the first point is no header: read in
    # the locale's encoding it made the first field non-numeric, and the
    # point was skipped as a header row
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert np.array_equal(read_points(marked), read_points(plain))
    assert read_points(marked).shape == (4, 2)


def test_read_points_skips_blank_lines(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("1.0 2.0\n\n3.0 4.0\n")
    assert read_points(path).shape == (2, 2)


@pytest.mark.parametrize("text,rows", [
    ("# a\n1 2\n# b\n3 4\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("1 2\n3 4 # x\n5 6\n", [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
    ("# written by mvee gen\nx,y\n1,2 # first\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
], ids=["full_line", "trailing", "before_csv_header"])
def test_read_points_ignores_comments(tmp_path, text, rows):
    path = tmp_path / "pts.txt"
    path.write_text(text)
    assert np.array_equal(read_points(path), rows)


def test_read_points_comment_only_file_has_no_points(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("# nothing\n\n  # here\n")
    with pytest.raises(InvalidInput, match="no points found"):
        read_points(path)


def test_read_points_comments_keep_line_numbers(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("# a\n1 2\n3 oops # c\n")
    with pytest.raises(InvalidInput, match="line 3"):
        read_points(path)


def test_read_points_reports_bad_token_line(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("1.0 2.0\n3.0 oops\n")
    with pytest.raises(InvalidInput, match="line 2"):
        read_points(path)


def test_read_points_rejects_empty_field(tmp_path):
    # an empty CSV field is a missing value, not a separator to skip
    path = tmp_path / "pts.csv"
    path.write_text("1,2\n3,,4\n5,6\n")
    with pytest.raises(InvalidInput, match="line 2"):
        read_points(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_read_points_names_the_line_of_a_non_finite_value(tmp_path, token):
    path = tmp_path / "pts.txt"
    path.write_text(f"1 2\n3 {token}\n5 6\n")
    with pytest.raises(InvalidInput) as info:
        read_points(path)
    assert str(info.value) == f"{path}: line 2: non-finite value {token!r}"


def test_read_points_rejects_ragged_rows(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("1.0 2.0\n3.0\n")
    with pytest.raises(InvalidInput, match="line 2"):
        read_points(path)


# --- ellipsoid JSON -------------------------------------------------------------------------

def test_ellipsoid_dict_fields():
    E = Ellipsoid(np.array([0.5]), np.array([[4.0]]), 1.0, np.log(4.0))
    buf = io.StringIO()
    write_ellipsoid_json(E, buf)
    d = json.loads(buf.getvalue())
    assert d["n"] == 1
    assert d["center"] == [0.5]
    assert d["shape"] == [[4.0]]
    assert d["level"] == 1.0
    assert d["volume"] == pytest.approx(1.0)
    assert d["logdet_H"] == pytest.approx(np.log(4.0))


def test_ellipsoid_json_writes_strict_json_or_nothing():
    # a volume past a double is null; any other non-finite value raises
    # before a byte is written
    E = Ellipsoid(np.zeros(2), np.eye(2), 2.0, -2000.0)
    buf = io.StringIO()
    write_ellipsoid_json(E, buf)
    assert json.loads(buf.getvalue())["volume"] is None
    E.shape = np.array([[1.0, 0.0], [0.0, np.nan]])
    buf = io.StringIO()
    with pytest.raises(ValueError):
        write_ellipsoid_json(E, buf)
    assert buf.getvalue() == ""


def test_ellipsoid_json_with_extras():
    E = Ellipsoid(np.zeros(2), np.eye(2), 2.0, 0.0)
    buf = io.StringIO()
    write_ellipsoid_json(E, buf, extra={"converged": True})
    payload = json.loads(buf.getvalue())
    assert payload["converged"] is True
    assert payload["n"] == 2
