"""Explicit-inverse maintenance for the weighted scatter matrix M = X U X^T.

Every solver iteration goes through this module.  The step rules need only
M^{-1} x_j, the quadratic forms kappa_i = x_i^T M^{-1} x_i and ln det M, so
the state holds M^{-1}, kappa and ln det M rather than a factor of M.  A
rank-one change M -> M + theta x x^T is one in-place call that reads
vectors the state owns (see FactorState): a Sherman-Morrison step on
M^{-1}, O(n^2), and on kappa, O(m) from the O(m n) pass w = X^T M^{-1} x
the caller writes into state.w, plus a determinant-lemma step on ln det M.
A full rebuild from the current weights is an orthogonal factorization,
O(m n^2).  When to rebuild (at initialization, on a schedule that bounds
floating-point drift, after a numerically singular update or a simplex
step's full jump, and for a stop, which solve accepts only on a fresh
state) is decided by solvers.solve, not here.  numpy is the only dependency, so importing
the package stays cheap.
"""

import math

import numpy as np

from .errors import NotFullRank, SingularUpdate

# Positive-definiteness threshold near machine-epsilon scale for doubles:
# relative to the largest triangular diagonal in factor_from_weights, but an
# absolute floor on the update denominator 1 + theta kappa_j, whose rounding
# grows with cond(M).
PD_TOL = 1e-12


class FactorState:
    """kappa, M^{-1} and ln det M for M = X U X^T, moved in place by
    rank_one_modify; solvers.solve decides when to rebuild them from the
    weights.

    kappa and Minv are views of one contiguous buffer of m + n^2 floats, and
    a scratch buffer of the same layout holds the rank-one change, so an
    update is one scale and one subtract over both.  The state owns the two
    vectors rank_one_modify reads: y = M^{-1} x_j, which apply_inverse
    writes, and w, the scratch buffer's first m floats, where the caller
    writes the gradient pass X^T y.  FactorState(m, n) allocates the buffers
    for m points in R^n; factor_from_weights fills kappa, Minv and log_det.

    Attributes
    ----------
    buf : ndarray, shape (m + n * n,)
        kappa followed by the rows of M^{-1}.
    kappa : ndarray, shape (m,)
        x_i^T M^{-1} x_i, the view buf[:m].
    Minv : ndarray, shape (n, n)
        Symmetric positive definite inverse of M, the view buf[m:].
    log_det : float
        ln det M.
    w : ndarray, shape (m,)
        The pass X^T y, the head of the scratch buffer; rank_one_modify
        overwrites it.
    y : ndarray, shape (n,)
        M^{-1} x_j, apply_inverse's result.
    """

    __slots__ = ("buf", "kappa", "Minv", "log_det", "w", "y", "_change",
                 "_change_Minv", "_y_col", "_y_row")

    def __init__(self, m, n):
        self.buf = np.empty(m + n * n)
        self.kappa = self.buf[:m]
        self.Minv = self.buf[m:].reshape(n, n)
        self.log_det = 0.0
        self._change = np.empty(m + n * n)
        self.w = self._change[:m]
        self._change_Minv = self._change[m:].reshape(n, n)
        self.y = np.empty(n)
        self._y_col = self.y[:, None]
        self._y_row = self.y[None, :]


def factor_from_weights(X, u):
    """Build the state for M = sum_i u_i x_i x_i^T through the support columns.

    Forms B = X_support * sqrt(u_support) and takes the triangular factor R
    of an orthogonal factorization of B^T, so M = R^T R without forming M,
    which is numerically safer; then M^{-1} = R^{-1} R^{-T} for the updates,
    ln det M = 2 sum_i ln |R_ii|, and kappa_i = ||R^{-T} x_i||^2, a sum of
    squares.  Read as x_i^T (M^{-1} x_i), as gradient_refresh does, its
    terms cancel: on points through a linear map of condition 1e7 that
    reading keeps about one digit.  This is the package's one full kappa
    computation.  O(m n^2).  numpy only: the LU solve for R^{-1} is a
    triangular solve, as R is upper triangular (partial pivoting swaps no
    rows) and the rank check rules out a zero pivot.

    Parameters
    ----------
    X : PointSet
    u : DualWeights

    Returns
    -------
    FactorState
        With kappa, Minv and log_det set.

    Raises
    ------
    NotFullRank
        If the weighted support points do not span R^n.
    """
    pts = X.points
    n = X.dim
    support = np.flatnonzero(u.support)
    if support.size < n:
        raise NotFullRank(
            f"support has {support.size} points, need at least {n}")
    B = pts[:, support] * np.sqrt(u.u[support])
    R = np.linalg.qr(B.T, mode="r")[:n, :n]
    d = np.abs(np.diag(R))
    if d.min() <= PD_TOL * d.max():
        raise NotFullRank("weighted points are rank deficient")
    Rinv = np.linalg.solve(R, np.eye(n))
    state = FactorState(X.count, n)
    np.matmul(Rinv, Rinv.T, out=state.Minv)
    state.log_det = 2.0 * float(np.log(d).sum())
    Z = Rinv.T @ pts
    np.einsum("ij,ij->j", Z, Z, out=state.kappa)
    return state


def rank_one_modify(state, j, theta):
    """Move the state to M' = M + theta * x_j x_j^T in place.

    Reads y = M^{-1} x_j from state.y, where apply_inverse leaves it, and
    the pass w = X^T y from state.w, where the caller writes it, rather
    than x_j.  kappa_j = w_j is read from the pass, not from the maintained
    kappa, whose error 1 / (1 + theta kappa_j) would scale.  With
    s = theta / (1 + theta kappa_j): kappa_i <- kappa_i - s w_i^2,
    M'^{-1} = M^{-1} - s y y^T and ln det M' = ln det M + ln(1 + theta
    kappa_j).  O(n^2 + m) in four numpy calls and no allocation; w * w is
    formed and scaled in state.w, so the pass is lost.  y y^T is one BLAS
    product of the n x 1 and 1 x n views of state.y, made once per state,
    which rounds each y_i y_j once.

    Raises
    ------
    SingularUpdate
        If 1 + theta * kappa_j <= PD_TOL: M + theta x x^T is (numerically)
        singular and the caller should rebuild from (X, u) instead; the
        state is not touched.
    """
    w = state.w
    denom = 1.0 + theta * w.item(j)
    if denom <= PD_TOL:
        raise SingularUpdate(f"update denominator {denom:.3e}")
    # w * w and y y^T are rounded, then scaled, then subtracted: the
    # roundings of kappa - s (w * w) and M^{-1} - s (y y^T) taken one
    # operation at a time
    np.square(w, out=w)
    np.dot(state._y_col, state._y_row, out=state._change_Minv)
    change = state._change
    change *= theta / denom
    state.buf -= change
    state.log_det += math.log(denom)


def apply_inverse(state, x):
    """M^{-1} x, one matrix-vector product into state.y, which it returns.
    O(n^2)."""
    return state.Minv.dot(x, out=state.y)


def gradient_refresh(state, X):
    """Recompute kappa_i = x_i^T M^{-1} x_i for all columns into
    state.kappa, and return it.  O(m n^2).  The package does not call it:
    factor_from_weights reads kappa more accurately from the factor R;
    perfbench's certificate check does."""
    return np.einsum("ij,ij->j", X.points, state.Minv @ X.points,
                     out=state.kappa)
