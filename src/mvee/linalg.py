"""Explicit-inverse maintenance for the weighted scatter matrix M = X U X^T.

Every solver iteration goes through this module.  The step rules need only
M^{-1} x_j, the quadratic forms kappa_i = x_i^T M^{-1} x_i and ln det M, so
the state holds M^{-1} and ln det M rather than a factor of M.  A rank-one
change M -> M + theta x x^T is one call with one denominator
1 + theta kappa_j: a Sherman-Morrison step on M^{-1}, O(n^2), and on kappa
in place, O(m) from the caller's O(m n) pass w = X^T M^{-1} x, and a
determinant-lemma step on ln det M.  A full rebuild from the
current weights is an orthogonal factorization, O(m n^2).  When to rebuild
(at initialization, on a schedule that bounds floating-point drift, and
after a numerically singular update) is decided by solvers.solve, not here.
numpy is the only dependency, so importing the package stays cheap.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotFullRank, SingularUpdate

# Positive-definiteness threshold near machine-epsilon scale for doubles:
# relative to the largest triangular diagonal in factor_from_weights, but an
# absolute floor on the update denominator 1 + theta kappa_j, whose rounding
# grows with cond(M).
PD_TOL = 1e-12


@dataclass
class FactorState:
    """M^{-1} and ln det M for M = X U X^T; solvers.solve decides when to
    rebuild them from the weights.

    Attributes
    ----------
    Minv : ndarray, shape (n, n)
        Symmetric positive definite inverse of M.
    log_det : float
        ln det M.
    """

    Minv: np.ndarray
    log_det: float


def factor_from_weights(X, u):
    """Build the state for M = sum_i u_i x_i x_i^T through the support columns.

    Forms B = X_support * sqrt(u_support) and takes the triangular factor R
    of an orthogonal factorization of B^T, so M = R^T R without forming M,
    which is numerically safer; then M^{-1} = R^{-1} R^{-T} and
    ln det M = 2 sum_i ln |R_ii|.  O(m n^2).  numpy only: the LU solve for
    R^{-1} is a triangular solve, as R is upper triangular (partial pivoting
    swaps no rows) and the rank check rules out a zero pivot.

    Parameters
    ----------
    X : PointSet
    u : DualWeights

    Returns
    -------
    FactorState

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
    if d.max() <= 0.0 or d.min() <= PD_TOL * d.max():
        raise NotFullRank("weighted points are rank deficient")
    Rinv = np.linalg.solve(R, np.eye(n))
    Minv = Rinv @ Rinv.T
    return FactorState(Minv, 2.0 * float(np.log(d).sum()))


def rank_one_modify(state, kappa, y, w, theta, kappa_j):
    """Return the state of M' = M + theta * x x^T and update kappa in place.

    Takes y = M^{-1} x, the pass w = X^T y and kappa_j = x^T M^{-1} x rather
    than x, since the caller forms y and w for its gradient pass:
    M'^{-1} = M^{-1} - s y y^T, kappa_i <- kappa_i - s w_i^2 with
    s = theta / (1 + theta kappa_j), and
    ln det M' = ln det M + ln(1 + theta kappa_j).  O(n^2 + m); w and the
    input state are left unchanged.

    Raises
    ------
    SingularUpdate
        If 1 + theta * kappa_j <= PD_TOL: M + theta x x^T is (numerically)
        singular and the caller should rebuild from (X, u) instead; neither
        the state nor kappa is touched.
    """
    denom = 1.0 + theta * kappa_j
    if denom <= PD_TOL:
        raise SingularUpdate(f"update denominator {denom:.3e}")
    s = theta / denom
    change = w * w
    change *= s
    kappa -= change
    # M^{-1} - s (y y^T), operation by operation in one buffer: the same
    # bits without the two n x n temporaries
    outer = y[:, None] * y
    outer *= s
    np.subtract(state.Minv, outer, out=outer)
    return FactorState(outer, state.log_det + math.log(denom))


def apply_inverse(state, x):
    """M^{-1} x, one matrix-vector product.  O(n^2)."""
    return state.Minv.dot(x)


def gradient_refresh(state, X):
    """Recompute kappa_i = x_i^T M^{-1} x_i for all columns.  O(m n^2)."""
    return np.einsum("ij,ij->j", X.points, state.Minv @ X.points)
