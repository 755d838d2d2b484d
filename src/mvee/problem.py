"""Problem data model: point sets, dual weights, lifting, the ellipsoid,
objectives, and the optimality certificate with the Gauss-Southwell axis
rule that reads it.

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

from .errors import InvalidInput


@dataclass
class PointSet:
    """Columns are points.  `symmetric` marks an implicit +- mirror per column."""

    points: np.ndarray
    symmetric: bool = False

    def __post_init__(self):
        pts = np.asarray(self.points)
        if pts.ndim != 2 or pts.dtype.kind not in "biuf":
            raise InvalidInput("points must be a real 2-D array of columns")
        pts = np.ascontiguousarray(pts, dtype=float)
        if not np.isfinite(pts).all():
            raise InvalidInput("points contain non-finite entries")
        n, m = pts.shape
        if n < 1:
            raise InvalidInput("points need at least one coordinate")
        # full-dimensional MVEE needs n points on a symmetric instance,
        # n + 1 otherwise (affine hull requirement)
        needed = n if self.symmetric else n + 1
        if m < needed:
            raise InvalidInput(f"have {m} points, need at least {needed}")
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
        u = np.asarray(self.u)
        if u.ndim != 1 or u.dtype.kind not in "biuf":
            raise InvalidInput("u must be a real vector")
        self.u = u.astype(float)
        if not np.isfinite(self.u).all():
            raise InvalidInput("weights contain non-finite entries")
        if (self.u < 0).any():
            raise InvalidInput("weights must be nonnegative")

    @property
    def support(self) -> np.ndarray:
        return self.u > 0


@dataclass
class Ellipsoid:
    """E(H, c) = {x : (x-c)^T H (x-c) <= level}; H SPD, logdet = ln det H."""

    center: np.ndarray
    shape: np.ndarray
    level: float
    logdet: float


@dataclass
class CertificateReport:
    """certificate()'s reading of kappa: eps_plus = max kappa/n - 1 and
    eps_minus = 1 - (min kappa over the support)/n, each checked against
    eps, and the certified objective gap max(0, n ln(1 + eps_plus))."""

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
    Y = np.vstack([X.points, np.ones((1, X.count))])
    return PointSet(Y, symmetric=True)


def volume(E: Ellipsoid) -> float:
    """Volume of {x : (x-c)^T H (x-c) <= level}, i.e.
    level^{n/2} Vol(B_n) / sqrt(det H); inf, without a warning, where it
    overflows a double, as E.logdet still gives it."""
    n = E.center.size
    with np.errstate(over="ignore"):
        return float(np.exp(0.5 * n * np.log(E.level) + 0.5 * n * np.log(np.pi)
                            - math.lgamma(0.5 * n + 1.0) - 0.5 * E.logdet))


def objective_h(total: float, state, c: float = 1.0) -> float:
    """h(c v) = -ln det(c X V X^T) + n (c e^T v - 1) from total = e^T v and
    the state of M(v) = X V X^T, in O(1); ln det(c M) = ln det M + n ln c."""
    n = len(state.Minv)
    return -(state.log_det + n * math.log(c)) + n * (c * total - 1.0)


def select_axis_gauss_southwell(kappa: np.ndarray, support: np.ndarray
                                ) -> tuple[int, int, float, float]:
    """Largest-|gradient| axes (j_plus, j_minus, kappa[j_plus],
    kappa[j_minus]): the argmax of kappa and its argmin over the support,
    ties to the lowest index.  `support` holds the indices of the positive
    weights in increasing order, so the decrease axis costs O(s) on top of
    the O(m) argmax.  eps_plus = kappa_plus/n - 1 and
    eps_minus = 1 - kappa_minus/n are the certificate quantities."""
    j_plus = int(kappa.argmax())
    on_support = kappa[support]
    i = int(on_support.argmin())
    return j_plus, support.item(i), kappa.item(j_plus), on_support.item(i)


def certificate(u: DualWeights, kappa: np.ndarray, n: int,
                eps: float) -> CertificateReport:
    """Optimality certificate from the current quadratic forms.

    eps_plus bounds how far the worst point pokes outside the trial
    ellipsoid; eps_minus how far the weakest support point sits inside.
    Both come from the Gauss-Southwell axis rule.  The certified objective
    gap is n ln(1 + eps_plus), clamped at zero.
    """
    support = np.flatnonzero(u.u)
    if not support.size:
        raise InvalidInput("empty support")
    _, _, kappa_plus, kappa_minus = select_axis_gauss_southwell(
        np.asarray(kappa), support)
    eps_plus, eps_minus = kappa_plus / n - 1.0, 1.0 - kappa_minus / n
    feasible = eps_plus <= eps
    optimal = feasible and eps_minus <= eps
    gap = max(0.0, n * np.log1p(eps_plus))
    return CertificateReport(eps_plus, eps_minus, feasible, optimal, gap)


# ---------------------------------------------------------------------------
# point-file and ellipsoid-JSON interfaces

def read_points(path) -> np.ndarray:
    """Read a UTF-8 point file, a leading byte-order mark dropped: one point
    per row, CSV or whitespace-delimited.

    `#` starts a comment that runs to the end of the line; blank and
    comment-only lines are skipped.  An optional header row is auto-detected
    by a non-empty, non-numeric first field.  Returns the points as rows
    (count x dim).  Errors, such as an empty field or a nan or inf value,
    carry line numbers.
    """
    rows = []
    header_allowed = True
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            toks = (line.split(",") if "," in line else line.split())
            if header_allowed:
                # only the first non-empty row may be a header
                header_allowed = False
                try:
                    float(toks[0])
                except ValueError:
                    if toks[0].strip():
                        continue
            vals = []
            for t in toks:
                try:
                    v = float(t)
                except ValueError:
                    raise InvalidInput(
                        f"{path}: line {lineno}: non-numeric value {t.strip()!r}") from None
                if not math.isfinite(v):
                    raise InvalidInput(
                        f"{path}: line {lineno}: non-finite value {t.strip()!r}")
                vals.append(v)
            if rows and len(vals) != len(rows[0]):
                raise InvalidInput(
                    f"{path}: line {lineno}: expected {len(rows[0])} columns, "
                    f"got {len(vals)}")
            rows.append(vals)
    if not rows:
        raise InvalidInput(f"{path}: no points found")
    return np.array(rows, dtype=float)


def write_points(path, rows: np.ndarray) -> None:
    """Write points (one per row) in the whitespace format, full precision."""
    np.savetxt(path, np.atleast_2d(rows), fmt="%.17g")


def write_ellipsoid_json(E: Ellipsoid, fh, extra: dict | None = None) -> None:
    """Write E as the ellipsoid JSON, `extra`'s keys after its own, a
    volume past a double as null.  Any other non-finite value raises
    ValueError before a byte is written: fh gets strict JSON or nothing."""
    vol = volume(E)
    doc = {
        "n": int(E.center.size),
        "center": [float(v) for v in E.center],
        "shape": [[float(v) for v in row] for row in E.shape],
        "level": float(E.level),
        "logdet_H": float(E.logdet),
        "volume": vol if math.isfinite(vol) else None,
        **(extra or {}),
    }
    fh.write(json.dumps(doc, indent=2, allow_nan=False) + "\n")
