"""Explicit-inverse maintenance for the weighted scatter matrix M = X U X^T.

Every solver iteration goes through this module.  The step rules need only
M^{-1} x_j, the quadratic forms kappa_i = x_i^T M^{-1} x_i and ln det M, so
the state holds M^{-1}, kappa and ln det M rather than a factor of M.  A
rank-one change M -> M + theta x_j x_j^T is one in-place call,
rank_one_modify: it forms y = M^{-1} x_j, O(n^2), and the O(m n) pass
w = X^T y in buffers the state owns (see FactorState), then takes a
Sherman-Morrison step on M^{-1}, O(n^2), and on kappa, O(m), and a
determinant-lemma step on ln det M.  A full rebuild from the current
weights is an orthogonal factorization, O(m n^2).  When to rebuild (at
initialization, on a schedule that bounds floating-point drift, after a
numerically singular update or a simplex step's full jump, and for a
stop, which solve accepts only on a fresh state) is decided by
solvers.solve, not here.  numpy is the only dependency, so importing the
package stays cheap.
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
    update is one scale and one subtract over both.  The state also owns
    the two vectors rank_one_modify forms: y = M^{-1} x_j, which
    apply_inverse writes, and the pass w = X^T y, the scratch buffer's
    first m floats; both are private to this module.  FactorState(m, n)
    allocates the buffers for m points in R^n; factor_from_weights fills
    kappa, Minv and log_det.

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
    """

    __slots__ = ("buf", "kappa", "Minv", "log_det", "_w", "_y", "_change",
                 "_change_Minv", "_y_col", "_y_row")

    def __init__(self, m, n):
        self.buf = np.empty(m + n * n)
        self.kappa = self.buf[:m]
        self.Minv = self.buf[m:].reshape(n, n)
        self.log_det = 0.0
        self._change = np.empty(m + n * n)
        self._w = self._change[:m]
        self._change_Minv = self._change[m:].reshape(n, n)
        self._y = np.empty(n)
        self._y_col = self._y[:, None]
        self._y_row = self._y[None, :]


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
        If the weighted support points do not span R^n, or M^{-1} is out
        of floating-point range: not finite, or a diagonal entry not
        positive.  This is the package's one rank decision.
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
    state = FactorState(X.count, n)
    # far from 1 in scale, M^{-1} leaves the floating-point range: the test
    # below names that, not numpy's warning
    with np.errstate(over="ignore", under="ignore"):
        Rinv = np.linalg.solve(R, np.eye(n))
        Minv = np.matmul(Rinv, Rinv.T, out=state.Minv)
    if not (np.isfinite(Minv).all() and Minv.diagonal().min() > 0.0):
        raise NotFullRank("M^-1 of the weighted points is out of range")
    state.log_det = 2.0 * float(np.log(d).sum())
    Z = Rinv.T @ pts
    np.einsum("ij,ij->j", Z, Z, out=state.kappa)
    return state


def rank_one_modify(state, points_t, j, theta):
    """Move the state to M' = M + theta * x_j x_j^T in place.

    points_t is the m x n view X.points.T, whose row j is x_j.  Forms
    y = M^{-1} x_j through apply_inverse and the pass w = X^T y, O(m n),
    in the state's buffers.  kappa_j = w_j is read from the pass, not from
    the maintained kappa, whose error 1 / (1 + theta kappa_j) would scale.
    With s = theta / (1 + theta kappa_j): kappa_i <- kappa_i - s w_i^2,
    M'^{-1} = M^{-1} - s y y^T and ln det M' = ln det M + ln(1 + theta
    kappa_j).  Six numpy calls and no allocation: the product, the pass
    and four for the step; w * w is formed and scaled in the pass's
    buffer.  y y^T is one BLAS product of the n x 1 and 1 x n views of y,
    made once per state, which rounds each y_i y_j once.

    Raises
    ------
    SingularUpdate
        If 1 + theta * kappa_j <= PD_TOL, or is nan, as an overflowed
        M^{-1} makes it: M + theta x x^T is (numerically) singular and the
        caller should rebuild from (X, u) instead; kappa, M^{-1} and
        ln det M are not touched.
    """
    w = points_t.dot(apply_inverse(state, points_t[j]), out=state._w)
    denom = 1.0 + theta * w.item(j)
    if not denom > PD_TOL:  # nan too
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
    """M^{-1} x, one matrix-vector product into the state's y buffer,
    which it returns.  O(n^2)."""
    return state.Minv.dot(x, out=state._y)


def gradient_refresh(state, X):
    """Recompute kappa_i = x_i^T M^{-1} x_i for all columns into
    state.kappa, and return it.  O(m n^2).  The package does not call it:
    factor_from_weights reads kappa more accurately from the factor R;
    perfbench's certificate check does."""
    return np.einsum("ij,ij->j", X.points, state.Minv @ X.points,
                     out=state.kappa)
