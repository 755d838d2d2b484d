import io
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mvee.errors import (DegenerateCovariance, InvalidInput, MveeError,
                         PointParseError, TooFewPoints)
from mvee.harness import BenchmarkPlan, Regime, emit_decrement_curves, gen_sample
from mvee.linalg import factor_from_weights
from mvee.problem import (
    DualWeights,
    Ellipsoid,
    PointSet,
    certificate,
    ellipsoid_to_dict,
    lift,
    objective_h,
    read_points,
    recover_ellipsoid,
    shape_logdet,
    volume,
    write_ellipsoid_json,
    write_points,
)
from mvee.solvers import SolverConfig, init_khachiyan, solve

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
    with pytest.raises(TooFewPoints):
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
    with pytest.raises(TooFewPoints):
        lift(PointSet(np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0],
                                [0.0, 1.0, 2.0]])))


def test_lift_rejects_symmetric_input():
    with pytest.raises(MveeError):
        lift(SQUARE)


# --- ellipsoid recovery ----------------------------------------------------------

def test_recover_interval():
    u = DualWeights(np.array([0.5, 0.5]))
    E = recover_ellipsoid(u, INTERVAL, lift(INTERVAL))
    assert E.center[0] == pytest.approx(0.5, abs=1e-14)
    assert E.shape[0, 0] == pytest.approx(4.0, abs=1e-12)
    # the recovered set {x : 4 (x - 1/2)^2 <= 1} is exactly [0, 1]
    assert volume(E) == pytest.approx(1.0, abs=1e-12)


def test_recover_symmetric_passthrough():
    u = DualWeights(np.array([0.5, 0.5]))
    E = recover_ellipsoid(u, SQUARE, SQUARE)
    assert np.allclose(E.center, 0.0)
    assert np.allclose(E.shape, np.eye(2), atol=1e-12)
    assert E.level == 2.0


def test_recover_normalizes_weights():
    u = DualWeights(np.array([2.0, 2.0]))
    E = recover_ellipsoid(u, SQUARE, SQUARE)
    assert np.allclose(E.shape, np.eye(2), atol=1e-12)


def test_recover_degenerate_support():
    pts = PointSet(np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]]))
    u = DualWeights(np.full(3, 1 / 3))
    with pytest.raises(DegenerateCovariance):
        recover_ellipsoid(u, pts, lift(pts))


@pytest.mark.parametrize("lifted", [True, False], ids=["lifted", "unlifted"])
@pytest.mark.parametrize("n", [1, 3, 11])
def test_recover_shape_is_the_inverse_covariance(n, lifted):
    rng = np.random.default_rng(n)
    m = 3 * n + 4
    P = rng.standard_normal((n, m))
    X = PointSet(P, symmetric=not lifted)
    u = DualWeights(rng.uniform(0.1, 1.0, m))
    E = recover_ellipsoid(u, X, lift(X) if lifted else X)
    w = u.u / u.u.sum()
    c = P @ w if lifted else np.zeros(n)
    want = np.linalg.inv((P * w) @ P.T - np.outer(c, c))
    assert np.abs(E.shape - want).max() <= 1e-12 * np.abs(want).max()
    assert np.array_equal(E.shape, E.shape.T)
    assert E.center == pytest.approx(c, rel=1e-12, abs=1e-15)


# --- volume -----------------------------------------------------------------------

def test_volume_disk():
    E = Ellipsoid(np.zeros(2), np.eye(2), 2.0)
    assert volume(E) == pytest.approx(2 * np.pi, rel=1e-12)


def test_volume_unit_ball():
    E = Ellipsoid(np.zeros(3), 3.0 * np.eye(3), 3.0)
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
    E = Ellipsoid(np.zeros(n), np.eye(n), float(n))
    assert volume(E) == pytest.approx(want, rel=1e-12)


def test_volume_rejects_indefinite_shape():
    E = Ellipsoid(np.zeros(2), np.diag([1.0, -1.0]), 2.0)
    with pytest.raises(DegenerateCovariance):
        volume(E)


def test_shape_logdet():
    E = Ellipsoid(np.zeros(2), np.diag([4.0, 0.25]), 2.0)
    assert shape_logdet(E) == pytest.approx(0.0, abs=1e-14)


@given(st.integers(0, 5_000), st.integers(1, 4), st.floats(0.1, 9.0))
def test_volume_scaling(seed, n, t):
    # shape t*H shrinks the volume by t^(n/2)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    H = A @ A.T + n * np.eye(n)
    base = Ellipsoid(np.zeros(n), H, float(n))
    scaled = Ellipsoid(np.zeros(n), t * H, float(n))
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


BAD_INPUTS = {
    "pointset_not_2d": lambda tmp: PointSet(np.zeros(3)),
    "pointset_nonfinite": lambda tmp: PointSet(np.array([[1.0, np.inf]])),
    "weights_not_1d": lambda tmp: DualWeights(np.ones((2, 2))),
    "weights_negative": lambda tmp: DualWeights(np.array([1.0, -1.0])),
    "lift_symmetric": lambda tmp: lift(SQUARE),
    "certificate_no_support": lambda tmp: certificate(
        DualWeights(np.zeros(2)), np.array([2.0, 2.0]), 2, 1e-7),
    "config_epsilon": lambda tmp: SolverConfig(epsilon=-1.0),
    "config_max_iter": lambda tmp: SolverConfig(max_iter=0),
    "config_algorithm": lambda tmp: SolverConfig(algorithm="newton"),
    "config_init": lambda tmp: SolverConfig(init="uniform"),
    "init_khachiyan_empty": lambda tmp: init_khachiyan(0),
    "solve_not_symmetric": lambda tmp: solve(INTERVAL, SolverConfig()),
    "regime_m": lambda tmp: Regime("r", 4, 4, 1),
    "regime_repetitions": lambda tmp: Regime("r", 4, 30, 0),
    "plan_no_regimes": lambda tmp: BenchmarkPlan([], [SolverConfig()], tmp),
    "plan_no_algorithms": lambda tmp: BenchmarkPlan(
        [Regime("r", 4, 30, 1)], [], tmp),
    "gen_sample_m": lambda tmp: gen_sample(3, 3, 0),
    "curves_no_dimensions": lambda tmp: emit_decrement_curves(
        [], tmp / "curves.csv"),
}


@pytest.mark.parametrize("make", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_raises_invalid_input(make, tmp_path):
    # a named MveeError that `except ValueError` callers still catch
    with pytest.raises(InvalidInput) as info:
        make(tmp_path)
    assert isinstance(info.value, MveeError)
    assert isinstance(info.value, ValueError)


# --- solver-facing invariants ---------------------------------------------------------

def test_containment_after_solve():
    rng = np.random.default_rng(8)
    ps = PointSet(rng.standard_normal((3, 40)))
    lifted = lift(ps)
    rep = solve(lifted, SolverConfig(epsilon=1e-9, max_iter=50_000))
    assert rep.converged
    E = recover_ellipsoid(rep.u_final, ps, lifted)
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
    E1 = recover_ellipsoid(solve(lift(ps), cfg).u_final, ps, lift(ps))
    E2 = recover_ellipsoid(solve(lift(mapped), cfg).u_final, mapped,
                           lift(mapped))

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
    with pytest.raises(PointParseError, match="no points found"):
        read_points(path)


def test_read_points_comments_keep_line_numbers(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("# a\n1 2\n3 oops # c\n")
    with pytest.raises(PointParseError, match="line 3"):
        read_points(path)


def test_read_points_reports_bad_token_line(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("1.0 2.0\n3.0 oops\n")
    with pytest.raises(PointParseError, match="line 2"):
        read_points(path)


def test_read_points_rejects_ragged_rows(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("1.0 2.0\n3.0\n")
    with pytest.raises(PointParseError, match="line 2"):
        read_points(path)


# --- ellipsoid JSON -------------------------------------------------------------------------

def test_ellipsoid_dict_fields():
    E = Ellipsoid(np.array([0.5]), np.array([[4.0]]), 1.0)
    d = ellipsoid_to_dict(E)
    assert d["n"] == 1
    assert d["center"] == [0.5]
    assert d["shape"] == [[4.0]]
    assert d["level"] == 1.0
    assert d["volume"] == pytest.approx(1.0)
    assert d["logdet_H"] == pytest.approx(np.log(4.0))


def test_ellipsoid_json_with_extras():
    E = Ellipsoid(np.zeros(2), np.eye(2), 2.0)
    buf = io.StringIO()
    write_ellipsoid_json(E, buf, extra={"converged": True})
    payload = json.loads(buf.getvalue())
    assert payload["converged"] is True
    assert payload["n"] == 2
