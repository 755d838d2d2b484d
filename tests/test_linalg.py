import numpy as np
import pytest
from hypothesis import given, strategies as st

from mvee.errors import NotFullRank, SingularUpdate
from mvee.linalg import (
    FactorState,
    apply_inverse,
    factor_from_weights,
    gradient_rank_one,
    gradient_refresh,
    logdet,
    quad_form,
    rank_one_modify,
)
from mvee.problem import DualWeights, PointSet, objective_h


def state_from_matrix(M):
    """Build a FactorState for an explicit SPD matrix from its dense inverse."""
    return FactorState(Minv=np.linalg.inv(M), log_det=np.linalg.slogdet(M)[1])


def modify(state, x, theta):
    """The state of M + theta x x^T, fed as solve() feeds it."""
    return rank_one_modify(state, apply_inverse(state, x), theta,
                           quad_form(state, x))


def random_state(rng, n):
    A = rng.standard_normal((n, n))
    return state_from_matrix(A @ A.T + n * np.eye(n))


# --- factor_from_weights -----------------------------------------------------

def test_factor_cross_uniform_weights():
    # columns +-e1, +-e2 with equal weights accumulate to M = I/2
    X = PointSet(np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]]),
                 symmetric=True)
    u = DualWeights(np.full(4, 0.25))
    st_ = factor_from_weights(X, u)
    assert np.allclose(st_.Minv, 2.0 * np.eye(2), atol=1e-14)
    assert logdet(st_) == pytest.approx(np.log(0.25), abs=1e-14)


def test_factor_scalar_instance():
    X = PointSet(np.array([[1.0, 2.0]]), symmetric=True)
    u = DualWeights(np.array([0.5, 0.5]))
    st_ = factor_from_weights(X, u)
    assert st_.Minv[0, 0] == pytest.approx(1.0 / 2.5, abs=1e-15)
    assert logdet(st_) == pytest.approx(np.log(2.5), abs=1e-15)


def test_factor_matches_dense_accumulation():
    rng = np.random.default_rng(3)
    X = PointSet(rng.standard_normal((3, 5)), symmetric=True)
    u = DualWeights(rng.uniform(0.1, 1.0, 5))
    st_ = factor_from_weights(X, u)
    dense = (X.points * u.u) @ X.points.T
    assert np.allclose(st_.Minv, np.linalg.inv(dense), atol=1e-12)
    assert np.array_equal(st_.Minv, st_.Minv.T)
    assert logdet(st_) == pytest.approx(np.linalg.slogdet(dense)[1],
                                        abs=1e-12)


@pytest.mark.parametrize("n", [1, 3, 11, 31])
def test_factor_inverts_random_weighted_sets(n):
    # weights off the support (u_i = 0) must not enter the factor
    rng = np.random.default_rng(n)
    m = 4 * n + 3
    X = PointSet(rng.standard_normal((n, m)), symmetric=True)
    u = DualWeights(rng.uniform(0.1, 1.0, m) * (rng.uniform(size=m) < 0.75))
    st_ = factor_from_weights(X, u)
    M = (X.points * u.u) @ X.points.T
    assert np.allclose(st_.Minv @ M, np.eye(n), rtol=0.0, atol=1e-12)
    assert logdet(st_) == pytest.approx(np.linalg.slogdet(M)[1], rel=1e-12)


def test_factor_rejects_rank_deficiency():
    X = PointSet(np.array([[1.0, 2.0, -1.0], [0.0, 0.0, 0.0]]), symmetric=True)
    u = DualWeights(np.full(3, 1.0 / 3.0))
    with pytest.raises(NotFullRank):
        factor_from_weights(X, u)


def test_factor_rejects_small_support():
    # two positive weights cannot span R^3
    rng = np.random.default_rng(0)
    X = PointSet(rng.standard_normal((3, 6)), symmetric=True)
    w = np.zeros(6)
    w[:2] = 0.5
    with pytest.raises(NotFullRank):
        factor_from_weights(X, DualWeights(w))


# --- rank-one updates ---------------------------------------------------------

def test_rank_one_diagonal_update():
    st_ = state_from_matrix(np.eye(2))
    nxt = modify(st_, np.array([1.0, 0.0]), 3.0)
    assert np.allclose(nxt.Minv, np.diag([0.25, 1.0]), atol=1e-14)
    assert logdet(nxt) == pytest.approx(np.log(4.0), abs=1e-12)


def test_rank_one_downdate():
    st_ = state_from_matrix(2.0 * np.eye(2))
    nxt = modify(st_, np.array([1.0, 1.0]), -0.5)
    assert np.allclose(nxt.Minv,
                       np.linalg.inv([[1.5, -0.5], [-0.5, 1.5]]), atol=1e-14)
    assert logdet(nxt) == pytest.approx(np.log(2.0), abs=1e-12)


def test_rank_one_downdate_to_singular_raises():
    st_ = state_from_matrix(np.eye(1))
    with pytest.raises(SingularUpdate):
        modify(st_, np.array([1.0]), -1.0)


def test_rank_one_does_not_mutate_input():
    st_ = state_from_matrix(np.eye(2))
    before = st_.Minv.copy()
    modify(st_, np.array([0.3, 0.4]), 1.0)
    assert np.array_equal(st_.Minv, before)
    assert st_.log_det == 0.0


@given(st.integers(0, 10_000), st.integers(1, 6),
       st.floats(0.05, 4.0), st.booleans())
def test_rank_one_round_trip(seed, n, theta, down):
    rng = np.random.default_rng(seed)
    s0 = random_state(rng, n)
    x = rng.standard_normal(n)
    t = -theta if down else theta
    if t < 0 and 1.0 + t * quad_form(s0, x) <= 0.05:
        return  # keep the downdate clearly PD
    s1 = modify(s0, x, t)
    s2 = modify(s1, x, -t)
    assert logdet(s2) == pytest.approx(logdet(s0), abs=1e-10)
    assert np.allclose(s2.Minv, s0.Minv, rtol=1e-9, atol=1e-10)


@given(st.integers(0, 10_000), st.integers(1, 6), st.floats(-0.4, 3.0))
def test_determinant_lemma(seed, n, theta):
    # logdet(M + theta x x^T) - logdet(M) = ln(1 + theta x^T M^-1 x)
    rng = np.random.default_rng(seed)
    s0 = random_state(rng, n)
    x = rng.standard_normal(n)
    q = quad_form(s0, x)
    if 1.0 + theta * q <= 0.05:
        return
    s1 = modify(s0, x, theta)
    assert logdet(s1) - logdet(s0) == pytest.approx(np.log1p(theta * q),
                                                    abs=1e-10)


# --- quadratic forms and inverses ----------------------------------------------

def test_quad_form_diagonal():
    st_ = state_from_matrix(0.5 * np.eye(2))
    assert quad_form(st_, np.array([1.0, 0.0])) == pytest.approx(2.0, abs=1e-14)


def test_quad_form_identity():
    st_ = state_from_matrix(np.eye(3))
    assert quad_form(st_, np.array([1.0, 2.0, 2.0])) == pytest.approx(9.0)


def test_quad_form_matches_dense_inverse():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((4, 4))
    M = A @ A.T + 4 * np.eye(4)
    x = rng.standard_normal(4)
    st_ = state_from_matrix(M)
    assert quad_form(st_, x) == pytest.approx(x @ np.linalg.solve(M, x),
                                              abs=1e-12)


@given(st.integers(0, 10_000), st.integers(1, 6), st.floats(-8.0, 8.0))
def test_quad_form_positive_and_quadratic(seed, n, alpha):
    rng = np.random.default_rng(seed)
    s0 = random_state(rng, n)
    x = rng.standard_normal(n)
    base = quad_form(s0, x)
    assert base > 0.0
    assert quad_form(s0, alpha * x) == pytest.approx(alpha ** 2 * base,
                                                     rel=1e-12, abs=1e-12)


def test_apply_inverse_matches_solve():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((5, 5))
    M = A @ A.T + 5 * np.eye(5)
    x = rng.standard_normal(5)
    st_ = state_from_matrix(M)
    assert np.allclose(apply_inverse(st_, x), np.linalg.solve(M, x),
                       atol=1e-12)


# --- logdet ---------------------------------------------------------------------

def test_logdet_diagonal():
    assert logdet(state_from_matrix(0.5 * np.eye(2))) == pytest.approx(
        np.log(0.25), abs=1e-14)


def test_logdet_identity():
    assert logdet(state_from_matrix(np.eye(4))) == 0.0


def test_logdet_matches_dense():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((5, 5))
    M = A @ A.T + 5 * np.eye(5)
    assert logdet(state_from_matrix(M)) == pytest.approx(
        np.linalg.slogdet(M)[1], abs=1e-12)


@given(st.integers(0, 10_000), st.integers(1, 5), st.floats(0.1, 10.0))
def test_scale_factor_shifts_logdet(seed, n, c):
    # the simplex steps hold u = c v and keep the state of M(v):
    # M(c v) = c M(v) has ln det shifted by n ln c and inverse over c, and
    # h(u) is evaluated from the state of M(v) and the normaliser c
    rng = np.random.default_rng(seed)
    X = PointSet(rng.standard_normal((n, n + 4)), symmetric=True)
    v = DualWeights(rng.uniform(0.1, 1.0, n + 4))
    held = factor_from_weights(X, v)
    scaled = factor_from_weights(X, DualWeights(c * v.u))
    assert logdet(scaled) == pytest.approx(logdet(held) + n * np.log(c),
                                           abs=1e-10)
    assert (np.abs(scaled.Minv * c - held.Minv).max()
            <= 1e-10 * np.abs(held.Minv).max())
    assert objective_h(v.u.sum(), held, c) == pytest.approx(
        objective_h((c * v.u).sum(), scaled), abs=1e-10)


# --- gradient maintenance --------------------------------------------------------

def test_gradient_refresh_cross_is_flat():
    X = PointSet(np.array([[1.0, 0.0], [0.0, 1.0]]), symmetric=True)
    u = DualWeights(np.array([0.5, 0.5]))
    st_ = factor_from_weights(X, u)
    assert np.allclose(gradient_refresh(st_, X), [2.0, 2.0], atol=1e-12)


def test_gradient_refresh_matches_dense():
    rng = np.random.default_rng(21)
    X = PointSet(rng.standard_normal((3, 8)), symmetric=True)
    u = DualWeights(rng.uniform(0.05, 1.0, 8))
    st_ = factor_from_weights(X, u)
    M = (X.points * u.u) @ X.points.T
    dense = np.einsum("ij,ij->j", X.points, np.linalg.solve(M, X.points))
    assert np.allclose(gradient_refresh(st_, X), dense, atol=1e-11)


def test_gradient_rank_one_zero_theta_is_identity():
    # kappa is updated in place, so compare with a copy taken before the call
    kappa = np.array([1.0, 2.0, 3.0])
    before = kappa.copy()
    out = gradient_rank_one(kappa, np.array([0.5, 0.5, 0.5]), 0.0, 2.0)
    assert np.array_equal(out, before)


def test_gradient_rank_one_updates_kappa_in_place_and_keeps_w():
    # solve() and the drift loop of criterion 8 read w_j after the call
    kappa = np.array([1.0, 2.0, 3.0])
    w = np.array([0.5, -1.0, 2.0])
    w_before = w.copy()
    want = kappa - (0.5 / (1.0 + 0.5 * 2.0)) * (w * w)
    out = gradient_rank_one(kappa, w, 0.5, 2.0)
    assert out is kappa
    assert np.array_equal(kappa, want)
    assert np.array_equal(w, w_before)


def test_gradient_rank_one_singular_pivot_raises():
    # the state is rebuilt after this, so kappa must be left as it was
    kappa = np.array([2.0])
    with pytest.raises(SingularUpdate):
        gradient_rank_one(kappa, np.array([1.0]), -0.5, 2.0)
    assert np.array_equal(kappa, [2.0])


def test_gradient_rank_one_sequence_matches_refresh():
    # 50 random updates, incremental kappa vs full recomputation
    rng = np.random.default_rng(5)
    X = PointSet(rng.standard_normal((4, 20)), symmetric=True)
    w = rng.uniform(0.1, 1.0, 20)
    u = DualWeights(w.copy())
    state = factor_from_weights(X, u)
    kappa = gradient_refresh(state, X)
    for _ in range(50):
        j = int(rng.integers(20))
        theta = float(rng.uniform(-0.2, 0.5))
        if w[j] + theta <= 1e-3:
            continue
        kj = float(kappa[j])
        if 1.0 + theta * kj <= 0.05:
            continue
        xj = X.points[:, j]
        y = apply_inverse(state, xj)
        wvec = X.points.T @ y
        kappa = gradient_rank_one(kappa, wvec, theta, kj)
        state = rank_one_modify(state, y, theta, float(wvec[j]))
        w[j] += theta
    assert np.allclose(kappa, gradient_refresh(state, X), atol=1e-10)
    assert np.allclose(kappa, gradient_refresh(factor_from_weights(
        X, DualWeights(w)), X), atol=1e-10)
