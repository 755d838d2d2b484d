import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mvee.errors import NotFullRank, SingularUpdate
from mvee.harness import gen_sample
from mvee.linalg import (
    FactorState,
    apply_inverse,
    factor_from_weights,
    gradient_refresh,
    rank_one_modify,
)
from mvee.problem import DualWeights, PointSet, lift, objective_h


def state_from_matrix(M, m=1):
    """Build a FactorState with m kappa slots for an explicit SPD matrix from
    its dense inverse."""
    state = FactorState(m, len(M))
    state.Minv[...] = np.linalg.inv(M)
    state.log_det = np.linalg.slogdet(M)[1]
    return state


def quad_form(state, x):
    """x^T M^{-1} x as solve() forms it: x^T y with y = M^{-1} x."""
    return float(x @ apply_inverse(state, x))


def factor_of(M):
    """The state factor_from_weights builds for an explicit SPD matrix,
    from the columns of its Cholesky factor at unit weights."""
    L = np.linalg.cholesky(M)
    return factor_from_weights(PointSet(L, symmetric=True),
                               DualWeights(np.ones(M.shape[0])))


def modify(state, x, theta):
    """Move the state to M + theta x x^T in place by the one-call update,
    with x as the only point, that of kappa slot 0."""
    state.kappa[0] = quad_form(state, x)
    rank_one_modify(state, x[None, :], 0, theta)


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
    assert st_.log_det == pytest.approx(np.log(0.25), abs=1e-14)


def test_factor_scalar_instance():
    X = PointSet(np.array([[1.0, 2.0]]), symmetric=True)
    u = DualWeights(np.array([0.5, 0.5]))
    st_ = factor_from_weights(X, u)
    assert st_.Minv[0, 0] == pytest.approx(1.0 / 2.5, abs=1e-15)
    assert st_.log_det == pytest.approx(np.log(2.5), abs=1e-15)


def test_factor_matches_dense_accumulation():
    rng = np.random.default_rng(3)
    X = PointSet(rng.standard_normal((3, 5)), symmetric=True)
    u = DualWeights(rng.uniform(0.1, 1.0, 5))
    st_ = factor_from_weights(X, u)
    dense = (X.points * u.u) @ X.points.T
    assert np.allclose(st_.Minv, np.linalg.inv(dense), atol=1e-12)
    assert np.array_equal(st_.Minv, st_.Minv.T)
    assert st_.log_det == pytest.approx(np.linalg.slogdet(dense)[1],
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
    assert st_.log_det == pytest.approx(np.linalg.slogdet(M)[1], rel=1e-12)
    dense = np.einsum("ij,ij->j", X.points, np.linalg.solve(M, X.points))
    assert np.allclose(st_.kappa, dense, rtol=1e-10, atol=0.0)


def test_factor_kappa_is_zero_at_a_zero_column():
    # the state comes whole: kappa_i = x_i^T M^{-1} x_i for every column,
    # exactly 0 at x_i = 0
    X = PointSet(np.array([[1.0, 0.0, 0.0, 2.0], [0.0, 1.0, 0.0, 1.0]]),
                 symmetric=True)
    u = DualWeights(np.full(4, 0.25))
    st_ = factor_from_weights(X, u)
    M = (X.points * u.u) @ X.points.T
    dense = np.einsum("ij,ij->j", X.points, np.linalg.solve(M, X.points))
    assert st_.kappa[2] == 0.0
    assert np.allclose(st_.kappa, dense, rtol=1e-12, atol=0.0)


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
    modify(st_, np.array([1.0, 0.0]), 3.0)
    assert np.allclose(st_.Minv, np.diag([0.25, 1.0]), atol=1e-14)
    assert st_.log_det == pytest.approx(np.log(4.0), abs=1e-12)


def test_rank_one_downdate():
    st_ = state_from_matrix(2.0 * np.eye(2))
    modify(st_, np.array([1.0, 1.0]), -0.5)
    assert np.allclose(st_.Minv,
                       np.linalg.inv([[1.5, -0.5], [-0.5, 1.5]]), atol=1e-14)
    assert st_.log_det == pytest.approx(np.log(2.0), abs=1e-12)


def test_rank_one_downdate_to_singular_raises():
    st_ = state_from_matrix(np.eye(1))
    with pytest.raises(SingularUpdate):
        modify(st_, np.array([1.0]), -1.0)


# three points in R^2 with dyadic coordinates: at M = I the pass
# w = X^T M^{-1} x_j is exact, [0.5, -1.0, 0.5] for j = 2
DYADIC = np.array([[1.0, -1.0, 0.5], [0.0, -1.0, 0.5]])


def test_rank_one_moves_the_state_in_place():
    # solve() holds one state between rebuilds and its kappa view: the update
    # writes into the state's buffer, whose views stay, and leaves the points
    st_ = state_from_matrix(np.eye(2), m=3)
    buf, kappa, Minv = st_.buf, st_.kappa, st_.Minv
    kappa[:] = [1.0, 2.0, 3.0]
    X = PointSet(DYADIC, symmetric=True)
    y = X.points[:, 2].copy()  # M^{-1} x_2 at M = I
    w = np.array([0.5, -1.0, 0.5])
    rank_one_modify(st_, X.points.T, 2, 1.0)
    assert st_.buf is buf and st_.kappa is kappa and st_.Minv is Minv
    assert np.shares_memory(kappa, buf) and np.shares_memory(Minv, buf)
    s = 1.0 / (1.0 + 0.5)
    assert np.array_equal(Minv, np.eye(2) - s * (y[:, None] * y))
    assert np.array_equal(kappa, [1.0, 2.0, 3.0] - s * (w * w))
    assert st_.log_det == math.log(1.5)
    assert np.array_equal(X.points, DYADIC)


@given(st.integers(0, 10_000), st.integers(1, 6),
       st.floats(0.05, 4.0), st.booleans())
def test_rank_one_round_trip(seed, n, theta, down):
    rng = np.random.default_rng(seed)
    st_ = random_state(rng, n)
    Minv0, log_det0 = st_.Minv.copy(), st_.log_det
    x = rng.standard_normal(n)
    t = -theta if down else theta
    if t < 0 and 1.0 + t * quad_form(st_, x) <= 0.05:
        return  # keep the downdate clearly PD
    modify(st_, x, t)
    modify(st_, x, -t)
    assert st_.log_det == pytest.approx(log_det0, abs=1e-10)
    assert np.allclose(st_.Minv, Minv0, rtol=1e-9, atol=1e-10)


@given(st.integers(0, 10_000), st.integers(1, 6), st.floats(-0.4, 3.0))
def test_determinant_lemma(seed, n, theta):
    # logdet(M + theta x x^T) - logdet(M) = ln(1 + theta x^T M^-1 x)
    rng = np.random.default_rng(seed)
    st_ = random_state(rng, n)
    log_det0 = st_.log_det
    x = rng.standard_normal(n)
    q = quad_form(st_, x)
    if 1.0 + theta * q <= 0.05:
        return
    modify(st_, x, theta)
    assert st_.log_det - log_det0 == pytest.approx(np.log1p(theta * q),
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
    y = apply_inverse(st_, x)
    assert np.allclose(y, np.linalg.solve(M, x), atol=1e-12)
    # the result lands in a buffer the state owns, so no call allocates
    assert apply_inverse(st_, x) is y


# --- logdet ---------------------------------------------------------------------

def test_logdet_diagonal():
    assert factor_of(0.5 * np.eye(2)).log_det == pytest.approx(
        np.log(0.25), abs=1e-14)


def test_logdet_identity():
    assert factor_of(np.eye(4)).log_det == 0.0


def test_logdet_matches_dense():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((5, 5))
    M = A @ A.T + 5 * np.eye(5)
    assert factor_of(M).log_det == pytest.approx(
        np.linalg.slogdet(M)[1], abs=1e-12)


@given(st.integers(0, 10_000), st.integers(1, 5), st.floats(0.1, 10.0))
def test_scaled_weights_scale_the_matrix(seed, n, c):
    # the simplex steps hold u = c v and keep the state of M(v):
    # M(c v) = c M(v) has ln det shifted by n ln c and inverse over c, and
    # h(u) is evaluated from the state of M(v) and the normaliser c
    rng = np.random.default_rng(seed)
    X = PointSet(rng.standard_normal((n, n + 4)), symmetric=True)
    v = DualWeights(rng.uniform(0.1, 1.0, n + 4))
    held = factor_from_weights(X, v)
    scaled = factor_from_weights(X, DualWeights(c * v.u))
    assert scaled.log_det == pytest.approx(held.log_det + n * np.log(c),
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


def test_rank_one_zero_theta_is_identity():
    st_ = state_from_matrix(np.eye(2), m=3)
    st_.kappa[:] = [1.0, 2.0, 3.0]
    rank_one_modify(st_, DYADIC.T, 1, 0.0)
    assert np.array_equal(st_.kappa, [1.0, 2.0, 3.0])
    assert np.array_equal(st_.Minv, np.eye(2))
    assert st_.log_det == 0.0


def test_rank_one_updates_kappa_in_place_from_the_pass():
    # kappa_j is read from the pass w, not from the maintained kappa; at
    # M = I, x_2 = (1, 1) makes w = [0.5, -1.0, 2.0] exactly
    st_ = state_from_matrix(np.eye(2), m=3)
    kappa = st_.kappa
    kappa[:] = [1.0, 2.0, 3.0]
    w = np.array([0.5, -1.0, 2.0])
    want = np.array([1.0, 2.0, 3.0]) - (0.5 / (1.0 + 0.5 * 2.0)) * (w * w)
    rank_one_modify(st_, np.array([[0.5, 0.0], [-0.5, -0.5], [1.0, 1.0]]),
                    2, 0.5)
    assert np.array_equal(kappa, want)


def test_rank_one_singular_pivot_raises():
    # the state is rebuilt after this, so kappa and the state must be left
    # as they were, to the byte; at M = I, x = (1, 1) has kappa_j = 2
    # exactly, and theta = -1/2 makes 1 + theta kappa_j = 0
    st_ = state_from_matrix(np.eye(2))
    st_.kappa[0] = 2.0
    before = st_.buf.tobytes()
    with pytest.raises(SingularUpdate):
        rank_one_modify(st_, np.ones((1, 2)), 0, -0.5)
    assert st_.buf.tobytes() == before
    assert np.array_equal(st_.kappa, [2.0])
    assert np.array_equal(st_.Minv, np.eye(2))
    assert st_.log_det == 0.0


def test_rank_one_sequence_matches_refresh():
    # 50 random updates, incremental kappa vs full recomputation
    rng = np.random.default_rng(5)
    X = PointSet(rng.standard_normal((4, 20)), symmetric=True)
    w = rng.uniform(0.1, 1.0, 20)
    u = DualWeights(w.copy())
    state = factor_from_weights(X, u)
    kappa = state.kappa
    for _ in range(50):
        j = int(rng.integers(20))
        theta = float(rng.uniform(-0.2, 0.5))
        if w[j] + theta <= 1e-3:
            continue
        kj = float(kappa[j])
        if 1.0 + theta * kj <= 0.05:
            continue
        rank_one_modify(state, X.points.T, j, theta)
        w[j] += theta
    # a refresh overwrites the state's kappa, so compare a copy
    maintained = kappa.copy()
    assert np.allclose(maintained, gradient_refresh(state, X), atol=1e-10)
    assert np.allclose(maintained, factor_from_weights(
        X, DualWeights(w)).kappa, atol=1e-10)


def out_of_place_modify(Minv, log_det, kappa, y, w, theta, kappa_j):
    """The rank-one update as it was before kappa and M^{-1} shared a buffer:
    kappa in place, a new M^{-1} and ln det M returned."""
    denom = 1.0 + theta * kappa_j
    s = theta / denom
    change = w * w
    change *= s
    kappa -= change
    outer = y[:, None] * y
    outer *= s
    np.subtract(Minv, outer, out=outer)
    return outer, log_det + math.log(denom)


def greedy_update(k, u, kappa, d):
    """Increases at the argmax kappa with the exact step, and every third
    update the drop of the support point of least kappa."""
    if k % 3 == 2:
        support = np.flatnonzero(u)
        j = int(support[kappa[support].argmin()])
        return j, -u[j]
    j = int(kappa.argmax())
    return j, (kappa[j] - d) / (kappa[j] * kappa[j])


def cyclic_update(k, u, kappa, d):
    """Each column in turn, its weight doubled on one sweep and halved on
    the next; since u_j kappa_j <= 1, 1 + theta kappa_j >= 1/2.  Greedy
    drops would leave a four-point set singular."""
    j = k % u.size
    return j, u[j] if k // u.size % 2 == 0 else -u[j] / 2


UPDATE_CASES = [
    *(pytest.param(lift(gen_sample(n, 3 * n + 20, n)), greedy_update, 20, 0,
                   id=str(n)) for n in (1, 10, 30, 100)),
    # y = M^{-1} x_j is exact zeros at the zero column, every fourth update
    pytest.param(PointSet([[1, 0, 0, 2], [0, 1, 0, 1]], symmetric=True),
                 cyclic_update, 0, 15, id="zero_column"),
]


@pytest.mark.parametrize("X, update, drops, zero_ys", UPDATE_CASES)
def test_rank_one_bit_identical_to_out_of_place(X, update, drops, zero_ys):
    # the one-call kernel (y y^T one BLAS product, its own pass) rounding
    # for rounding as the out-of-place update (y y^T broadcast) fed by
    # np.dot, and M^{-1} exactly symmetric, after each of 60 updates;
    # np.array_equal takes -0.0 == 0.0
    pts, pts_t = X.points, X.points.T
    d, m = X.dim, X.count
    u = np.full(m, 1.0 / m)
    state = factor_from_weights(X, DualWeights(u))
    kappa = state.kappa
    Minv_ref, log_det_ref, kappa_ref = (state.Minv.copy(), state.log_det,
                                        kappa.copy())
    w_ref = np.empty(m)
    seen_drops = seen_zero_ys = 0
    for k in range(60):
        j, theta = update(k, u, kappa, d)
        u[j] += theta
        seen_drops += u[j] == 0.0
        y_ref = Minv_ref.dot(pts[:, j])
        seen_zero_ys += not y_ref.any()
        np.dot(pts_t, y_ref, out=w_ref)
        rank_one_modify(state, pts_t, j, theta)
        Minv_ref, log_det_ref = out_of_place_modify(
            Minv_ref, log_det_ref, kappa_ref, y_ref, w_ref, theta,
            w_ref.item(j))
        assert np.array_equal(kappa, kappa_ref), k
        assert np.array_equal(state.Minv, Minv_ref), k
        assert np.array_equal(state.Minv, state.Minv.T), k
        assert state.log_det == log_det_ref, k
    assert (seen_drops, seen_zero_ys) == (drops, zero_ys)
