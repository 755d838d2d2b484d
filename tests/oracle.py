"""A high-precision oracle for a solve's certificate, independent of the
float64 code under test.

certificate(points, u) converts each double of the n x m points and the
weights u exactly, forms M(u) = sum_i u_i x_i x_i^T over the support at
`dps` decimal digits, takes its Cholesky factor L, and reads
kappa_i = ||L^{-1} x_i||^2, eps_plus = max_i kappa_i / n - 1,
eps_minus = 1 - min over the support of kappa_i / n,
h = -ln det M + n (e^T u - 1) and cond(M), the ratio of M's extreme
eigenvalues.  Each is rounded to the nearest double.  Needs mpmath; the
package never imports this file.
"""

from typing import NamedTuple

import mpmath


class Certificate(NamedTuple):
    eps_plus: float
    eps_minus: float
    h: float
    cond: float


def certificate(points, u, dps=40) -> Certificate:
    n, m = points.shape
    support = [i for i in range(m) if u[i] > 0]
    with mpmath.workdps(dps):
        X = mpmath.matrix(points.tolist())
        w = {i: mpmath.mpf(float(u[i])) for i in support}
        M = mpmath.matrix(n, n)
        for r in range(n):
            for s in range(r + 1):
                M[r, s] = M[s, r] = mpmath.fsum(
                    w[i] * X[r, i] * X[s, i] for i in support)
        L = mpmath.cholesky(M)
        Y = mpmath.inverse(L) * X
        kappa = [mpmath.fsum(Y[r, i] ** 2 for r in range(n)) / n
                 for i in range(m)]
        log_det = 2 * mpmath.fsum(mpmath.log(L[r, r]) for r in range(n))
        h = -log_det + n * (mpmath.fsum(w.values()) - 1)
        eig = mpmath.eigsy(M, eigvals_only=True)
        return Certificate(float(max(kappa) - 1),
                           float(1 - min(kappa[i] for i in support)),
                           float(h), float(max(eig) / min(eig)))
