"""Problem data model: point sets, dual weights, lifting, ellipsoid recovery,
objectives, and optimality certificates.

Conventions: points are stored as columns of an n x m matrix.  A centrally
symmetric instance {+-x_i} keeps only one representative per pair, because
every quantity used by the solvers depends on x_i only through x_i x_i^T.
The enclosing ellipsoid is E(H, c) = {x : (x - c)^T H (x - c) <= level} with
level equal to the ambient dimension n.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateCovariance, InvalidInput, PointParseError,
                     TooFewPoints)


@dataclass
class PointSet:
    """Columns are points.  `symmetric` marks an implicit +- mirror per column."""

    points: np.ndarray
    symmetric: bool = False

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        if pts.ndim != 2:
            raise InvalidInput("points must be a 2-D array (columns are points)")
        if not np.isfinite(pts).all():
            raise InvalidInput("points contain non-finite entries")
        n, m = pts.shape
        # full-dimensional MVEE needs n points on a symmetric instance,
        # n + 1 otherwise (affine hull requirement)
        needed = n if self.symmetric else n + 1
        if m < needed:
            raise TooFewPoints(f"have {m} points, need at least {needed}")
        self.points = pts

    @property
    def dim(self) -> int:
        return self.points.shape[0]

    @property
    def count(self) -> int:
        return self.points.shape[1]


@dataclass
class DualWeights:
    """Nonnegative weights u; the support {i : u_i > 0} is derived from u."""

    u: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float).copy()
        if self.u.ndim != 1:
            raise InvalidInput("u must be a vector")
        if (self.u < 0).any():
            raise InvalidInput("weights must be nonnegative")

    @property
    def support(self) -> np.ndarray:
        return self.u > 0


@dataclass
class Ellipsoid:
    """E(H, c) = {x : (x - c)^T H (x - c) <= level}; H symmetric PD."""

    center: np.ndarray
    shape: np.ndarray
    level: float


@dataclass
class CertificateReport:
    eps_plus: float
    eps_minus: float
    eps_primal_feasible: bool
    eps_approx_optimal: bool
    gap_bound: float


def lift(X: PointSet) -> PointSet:
    """Embed x_i -> (x_i, 1) so an arbitrary set becomes centrally symmetric
    one dimension higher.  The mirror -(x_i, 1) is implicit."""
    if X.symmetric:
        raise InvalidInput("instance is already symmetric")
    if X.count < X.dim + 1:
        raise TooFewPoints(f"need at least {X.dim + 1} points to lift")
    Y = np.vstack([X.points, np.ones((1, X.count))])
    return PointSet(Y, symmetric=True)


def recover_ellipsoid(u: DualWeights, X_original: PointSet,
                      X_lifted: PointSet) -> Ellipsoid:
    """Turn (near-)optimal lifted weights into the enclosing ellipsoid.

    Weights are rescaled to sum to one first: the optimum satisfies
    e^T u = 1 exactly, so this is a no-op there and a normalization at
    solver tolerance.  For a symmetric instance passed through unlifted
    (X_lifted is X_original) the center is the origin and H = (X U X^T)^{-1}.

    Raises
    ------
    DegenerateCovariance
        If the support's affine hull is lower-dimensional.
    """
    total = u.u.sum()
    if total <= 0.0:
        raise DegenerateCovariance("weights sum to zero")
    w = u.u / total
    P = X_original.points
    n = X_original.dim
    if X_lifted.dim == n:
        c = np.zeros(n)
        sigma = (P * w) @ P.T
    else:
        c = P @ w
        sigma = (P * w) @ P.T - np.outer(c, c)
    sigma = (sigma + sigma.T) / 2.0
    try:
        Lc = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise DegenerateCovariance(
            "support points span a lower-dimensional affine set") from None
    # sigma = R^T R for upper triangular R = Lc^T; invert as in linalg
    Rinv = np.linalg.solve(Lc.T, np.eye(n))
    H = Rinv @ Rinv.T
    return Ellipsoid(center=c, shape=H, level=float(n))


def volume(E: Ellipsoid) -> float:
    """Volume of {x : (x-c)^T H (x-c) <= n}, i.e. n^{n/2} Vol(B_n) / sqrt(det H)."""
    n = E.center.size
    return float(np.exp(0.5 * n * np.log(n) + 0.5 * n * np.log(np.pi)
                        - math.lgamma(0.5 * n + 1.0) - 0.5 * shape_logdet(E)))


def shape_logdet(E: Ellipsoid) -> float:
    sign, ld = np.linalg.slogdet(E.shape)
    if sign <= 0:
        raise DegenerateCovariance("shape matrix is not positive definite")
    return float(ld)


def objective_h(total: float, state, c: float = 1.0) -> float:
    """h(c v) = -ln det(c X V X^T) + n (c e^T v - 1) from total = e^T v and
    the state of M(v) = X V X^T, in O(1); ln det(c M) = ln det M + n ln c.
    c is the normaliser of weights held up to scale, and 1 for weights held
    as they are.  solvers.solve keeps e^T v as a running sum; pass
    v.u.sum() for weights held elsewhere."""
    n = len(state.Minv)
    return -(state.log_det + n * math.log(c)) + n * (c * total - 1.0)


def certificate(u: DualWeights, kappa: np.ndarray, n: int,
                eps: float) -> CertificateReport:
    """Optimality certificate from the current quadratic forms.

    eps_plus bounds how far the worst point pokes outside the trial
    ellipsoid; eps_minus how far the weakest support point sits inside.
    The certified objective gap is n ln(1 + eps_plus), clamped at zero.
    """
    kappa = np.asarray(kappa)
    eps_plus = float(kappa.max() / n - 1.0)
    sup = u.support
    if not sup.any():
        raise InvalidInput("empty support")
    eps_minus = float(1.0 - kappa[sup].min() / n)
    feasible = eps_plus <= eps
    optimal = feasible and eps_minus <= eps
    gap = max(0.0, n * np.log1p(eps_plus))
    return CertificateReport(eps_plus, eps_minus, feasible, optimal, gap)


# ---------------------------------------------------------------------------
# point-file and ellipsoid-JSON interfaces

def read_points(path) -> np.ndarray:
    """Read a point file: one point per row, CSV or whitespace-delimited.

    `#` starts a comment that runs to the end of the line; blank and
    comment-only lines are skipped.  An optional header row is auto-detected
    by a non-numeric first token.  Returns the points as rows (count x dim).
    Errors carry line numbers.
    """
    rows = []
    header_allowed = True
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            toks = (line.split(",") if "," in line else line.split())
            toks = [t.strip() for t in toks if t.strip()]
            if header_allowed:
                # only the first non-empty row may be a header
                header_allowed = False
                try:
                    float(toks[0])
                except ValueError:
                    continue
            vals = []
            for t in toks:
                try:
                    vals.append(float(t))
                except ValueError:
                    raise PointParseError(
                        f"{path}: line {lineno}: non-numeric value {t!r}") from None
            if rows and len(vals) != len(rows[0]):
                raise PointParseError(
                    f"{path}: line {lineno}: expected {len(rows[0])} columns, "
                    f"got {len(vals)}")
            rows.append(vals)
    if not rows:
        raise PointParseError(f"{path}: no points found")
    return np.array(rows, dtype=float)


def write_points(path, rows: np.ndarray) -> None:
    """Write points (one per row) in the whitespace format, full precision."""
    with open(path, "w") as fh:
        for row in np.atleast_2d(rows):
            fh.write(" ".join(f"{v:.17g}" for v in row))
            fh.write("\n")


def ellipsoid_to_dict(E: Ellipsoid) -> dict:
    return {
        "n": int(E.center.size),
        "center": [float(v) for v in E.center],
        "shape": [[float(v) for v in row] for row in E.shape],
        "level": float(E.level),
        "logdet_H": shape_logdet(E),
        "volume": volume(E),
    }


def write_ellipsoid_json(E: Ellipsoid, fh, extra: dict | None = None) -> None:
    doc = ellipsoid_to_dict(E)
    if extra:
        doc.update(extra)
    json.dump(doc, fh, indent=2)
    fh.write("\n")
