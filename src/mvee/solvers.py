"""Iterative dual solvers for the minimum volume enclosing ellipsoid.

Six algorithm variants over the dual objective
h(u) = -ln det(X U X^T) + n (e^T u - 1), all driven by the quadratic forms
kappa_i = x_i^T (X U X^T)^{-1} x_i and the gradient identity
grad h(u)_i = n - kappa_i:

- fwk: Frank-Wolfe / Khachiyan, increase-only steps on the simplex.
- wa: Wolfe-Atwood, Frank-Wolfe plus away (decrease/drop) steps.
- cd_const: Gauss-Southwell coordinate descent, per-axis exact smoothness
  stepsize, projection onto u >= 0.
- cd_diminish: same axis rule with the 2/(k+2) schedule.
- cd_backtrack: same axis rule with Armijo backtracking.
- rcd: randomized coordinate descent, axis sampled proportionally to the
  absolute gradient, constant-stepsize update.

Each iteration is O(m n) after an O(m n^2) initialization: M^{-1}, ln det M
and the kappa vector are maintained incrementally, one Sherman-Morrison
step per iteration on the vector y = M^{-1} x_j that the O(m n) gradient
pass needs anyway (see linalg), with a periodic full rebuild to bound
drift.
"""

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .errors import (
    ExactOptimum,
    LineSearchStalled,
    NotFullRank,
    SingularUpdate,
    StepRuleViolation,
)
from .linalg import (
    apply_inverse,
    factor_from_weights,
    gradient_rank_one,
    gradient_refresh,
    rank_one_modify,
)
from .problem import DualWeights, PointSet, objective_h

# scales below which a convex-combination factor update degenerates and the
# factor is rebuilt from the weights instead
_SCALE_FLOOR = 1e-14
# weights below this are dropped outright by the backtracking variant rather
# than decayed geometrically forever (the line search itself never hits zero)
_DROP_FLOOR = 1e-14


class Algorithm(str, Enum):
    FWK = "fwk"
    WA = "wa"
    CD_CONST = "cd_const"
    CD_DIMINISH = "cd_diminish"
    CD_BACKTRACK = "cd_backtrack"
    RCD = "rcd"


class InitScheme(str, Enum):
    KHACHIYAN = "khachiyan"
    KUMAR_YILDIRIM = "kumar_yildirim"


class StepType(str, Enum):
    ADD = "add"
    INCREASE = "increase"
    DECREASE = "decrease"
    DROP = "drop"


@dataclass
class SolverConfig:
    algorithm: Algorithm = Algorithm.CD_CONST
    epsilon: float = 1e-7
    max_iter: int = 100_000
    init: InitScheme = InitScheme.KUMAR_YILDIRIM
    seed: int = 0
    backtrack_alpha: float = 0.5
    backtrack_beta: float = 0.5
    refactor_period: Optional[int] = None  # None means 50 * n

    def __post_init__(self):
        self.algorithm = Algorithm(self.algorithm)
        self.init = InitScheme(self.init)
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not 0.0 < self.backtrack_beta < 1.0:
            raise ValueError("backtrack_beta must lie in (0, 1)")


@dataclass
class IterationRecord:
    iter: int
    step_type: StepType
    axis: int
    kappa_max: float
    kappa_min_support: float
    eps_k: float
    h_value: float
    theta_or_lambda: float


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    final_eps: float
    final_h: float
    trace: list
    wall_time: float
    u_final: DualWeights


@dataclass
class AxisChoice:
    j_plus: int
    j_minus: int
    eps_plus: float
    eps_minus: float


@dataclass
class StepOutcome:
    """What a single step did, with the factor-update parametrization
    M' = scale * (M + theta_rel * x_j x_j^T)."""

    step_type: StepType
    axis: int
    recorded: float  # lambda for simplex steps, theta for additive steps
    scale: float
    theta_rel: float


def init_khachiyan(m: int) -> DualWeights:
    """Uniform weights 1/m on every point."""
    if m < 1:
        raise ValueError("need at least one point")
    return DualWeights(np.full(m, 1.0 / m))


def init_kumar_yildirim(X: PointSet, seed: int) -> DualWeights:
    """Pick n points along n independent directions, weight 1/n each.

    The first direction is random; each later direction is a fresh random
    vector projected orthogonally to the span of the points already chosen
    (retried up to n times if the projection norm falls below 1e-10).  Along
    each direction the point with the largest |d . x| is taken.  The
    resulting X U X^T is positive definite.

    Raises
    ------
    NotFullRank
        If fewer than n independent directions can be found.
    """
    pts = X.points
    n, m = pts.shape
    rng = np.random.default_rng(seed)
    Q = np.zeros((n, 0))  # orthonormal basis of span of chosen points
    chosen = []
    for _ in range(n):
        d = None
        for _attempt in range(n):
            cand = rng.standard_normal(n)
            if Q.shape[1]:
                cand = cand - Q @ (Q.T @ cand)
            norm = np.linalg.norm(cand)
            if norm >= 1e-10:
                d = cand / norm
                break
        if d is None:
            raise NotFullRank("cannot find a direction outside the chosen span")
        j = int(np.argmax(np.abs(d @ pts)))
        r = pts[:, j].copy()
        if Q.shape[1]:
            r = r - Q @ (Q.T @ r)
        rnorm = np.linalg.norm(r)
        if rnorm <= 1e-10 * max(1.0, np.linalg.norm(pts[:, j])):
            raise NotFullRank("points do not span the space")
        Q = np.hstack([Q, (r / rnorm)[:, None]])
        chosen.append(j)
    u = np.zeros(m)
    u[chosen] = 1.0 / n
    return DualWeights(u)


def select_axis_gauss_southwell(kappa: np.ndarray, u: DualWeights,
                                n: int) -> AxisChoice:
    """Largest-|gradient| axes: argmax kappa overall, argmin over the support.

    Ties break to the lowest index.  eps_plus = kappa_max/n - 1 and
    eps_minus = 1 - kappa_min_support/n are the two certificate quantities.
    """
    j_plus = int(np.argmax(kappa))
    masked = np.where(u.support, kappa, np.inf)
    j_minus = int(np.argmin(masked))
    return AxisChoice(j_plus, j_minus,
                      float(kappa[j_plus] / n - 1.0),
                      float(1.0 - kappa[j_minus] / n))


def fwk_step(u: DualWeights, kappa: np.ndarray, j: int, n: int) -> StepOutcome:
    """Frank-Wolfe increase step u' = u + lambda (e_j - u) with the exact
    minimizing stepsize lambda = (kappa_j - n) / (n (kappa_j - 1)).

    Keeps e^T u = 1.  After the step the chosen point lies exactly on the
    trial ellipsoid boundary (kappa'_j = n).
    """
    kj = float(kappa[j])
    # on a full-rank symmetric instance kappa at the argmax exceeds 1
    # whenever the iterate is not yet optimal
    if not kj > 1.0:
        raise StepRuleViolation(
            f"fwk stepsize denominator requires kappa_j > 1, got {kj}")
    lam = (kj - n) / (n * (kj - 1.0))
    step_type = StepType.ADD if u.u[j] == 0.0 else StepType.INCREASE
    u.u *= 1.0 - lam
    u.u[j] += lam
    u.support[j] = True
    if lam >= 1.0:
        # full jump (n = 1 only): every other weight just became zero
        u.support = u.u > 0
    scale = 1.0 - lam
    theta_rel = lam / scale if scale > _SCALE_FLOOR else np.inf
    return StepOutcome(step_type, j, lam, scale, theta_rel)


def wa_step(u: DualWeights, kappa: np.ndarray, choice: AxisChoice,
            n: int) -> StepOutcome:
    """Wolfe-Atwood step: the Frank-Wolfe increase when eps_plus >= eps_minus
    (ties to the increase branch), otherwise the away step
    u' = u + lambda (u - e_{j-}) with
    lambda = min{ (n - kappa_j)/(n (kappa_j - 1)), u_{j-}/(1 - u_{j-}) }.

    When the second candidate attains the min the weight lands exactly on
    zero and the step is a drop.  For kappa_j <= 1 the first candidate is
    treated as +inf: the objective decreases along the whole ray, so only
    the drop bound is active.
    """
    if choice.eps_plus >= choice.eps_minus:
        return fwk_step(u, kappa, choice.j_plus, n)
    j = choice.j_minus
    kj = float(kappa[j])
    uj = float(u.u[j])
    if not uj < 1.0:
        raise StepRuleViolation(
            f"away step needs mass outside the pivot, u_j = {uj}")
    lam_drop = uj / (1.0 - uj)
    lam_decrease = ((n - kj) / (n * (kj - 1.0))) if kj > 1.0 else np.inf
    if lam_drop <= lam_decrease:
        lam = lam_drop
        u.u *= 1.0 + lam
        u.u[j] = 0.0
        u.support[j] = False
        step_type = StepType.DROP
    else:
        lam = lam_decrease
        u.u *= 1.0 + lam
        u.u[j] -= lam
        step_type = StepType.DECREASE
    scale = 1.0 + lam
    return StepOutcome(step_type, j, lam, scale, -lam / scale)


def cd_step(u: DualWeights, kappa: np.ndarray, choice: AxisChoice,
            n: int) -> StepOutcome:
    """Coordinate-descent step with the per-axis exact smoothness constant.

    Increase branch (kappa_j >= n): theta = (kappa_j - n) / kappa_j^2.
    Decrease branch (kappa_j <= n): theta = (kappa_j - n) / (n kappa_j),
    projected onto u >= 0; a clamped step is a drop.  e^T u moves freely.
    """
    if choice.eps_plus >= choice.eps_minus:
        j = choice.j_plus
        kj = float(kappa[j])
        if not kj >= n:
            raise StepRuleViolation(
                f"increase branch needs kappa_j >= n, got {kj} < {n}")
        theta = (kj - n) / (kj * kj)
        step_type = StepType.ADD if u.u[j] == 0.0 else StepType.INCREASE
        u.u[j] += theta
        u.support[j] = True
        return StepOutcome(step_type, j, theta, 1.0, theta)
    j = choice.j_minus
    kj = float(kappa[j])
    if not kj <= n:
        raise StepRuleViolation(
            f"decrease branch needs kappa_j <= n, got {kj} > {n}")
    theta = (kj - n) / (n * kj)
    if u.u[j] + theta >= 0.0:
        u.u[j] += theta
        return StepOutcome(StepType.DECREASE, j, theta, 1.0, theta)
    theta = -float(u.u[j])
    u.u[j] = 0.0
    u.support[j] = False
    return StepOutcome(StepType.DROP, j, theta, 1.0, theta)


def cd_diminishing_step(u: DualWeights, kappa: np.ndarray, k: int,
                        choice: AxisChoice, n: int) -> StepOutcome:
    """Schedule stepsize 2/(k+2) on the Gauss-Southwell axis; the decrease
    branch clamps at zero (drop).  Ties go to the increase branch."""
    lam = 2.0 / (k + 2.0)
    if choice.eps_plus >= choice.eps_minus:
        j = choice.j_plus
        step_type = StepType.ADD if u.u[j] == 0.0 else StepType.INCREASE
        u.u[j] += lam
        u.support[j] = True
        return StepOutcome(step_type, j, lam, 1.0, lam)
    j = choice.j_minus
    if u.u[j] <= lam:
        theta = -float(u.u[j])
        u.u[j] = 0.0
        u.support[j] = False
        return StepOutcome(StepType.DROP, j, theta, 1.0, theta)
    u.u[j] -= lam
    return StepOutcome(StepType.DECREASE, j, -lam, 1.0, -lam)


def backtracking_stepsize(u_j: float, kappa_j: float, d: float, n: int,
                          alpha: float = 0.5, beta: float = 0.5) -> float:
    """Armijo backtracking along +-e_j, exploiting the closed form
    h(u + theta e_j) - h(u) = n theta - ln(1 + theta kappa_j).

    Trials lambda = beta^t from 1 are rejected while infeasible (a negative
    direction may not exceed u_j or make the log argument vanish) or while
    the decrease is worse than alpha * lambda * |grad h_j|.  Returns the
    signed step theta = d * lambda.

    Raises
    ------
    LineSearchStalled
        If lambda underflows below 1e-16 without acceptance.
    """
    grad = n - kappa_j
    if grad == 0.0 or d == 0.0:
        return 0.0
    target = alpha * abs(grad)
    lam = 1.0
    while lam >= 1e-16:
        theta = d * lam
        feasible = True
        if d < 0.0:
            feasible = lam <= u_j and 1.0 + theta * kappa_j > 1e-12
        if feasible:
            dh = n * theta - np.log1p(theta * kappa_j)
            if dh <= -target * lam:
                return theta
        lam *= beta
    raise LineSearchStalled(f"no acceptable step above 1e-16 (kappa={kappa_j})")


def cd_backtracking_step(u: DualWeights, kappa: np.ndarray, choice: AxisChoice,
                         n: int, alpha: float, beta: float) -> StepOutcome:
    """Gauss-Southwell axis, Armijo stepsize.  The search direction is the
    descent sign -sign(grad h_j).  Weights below the drop floor are removed
    outright: backtracking alone shrinks them geometrically but never to
    zero, which would stall the support certificate."""
    if choice.eps_plus >= choice.eps_minus:
        j = choice.j_plus
        theta = backtracking_stepsize(float(u.u[j]), float(kappa[j]), +1.0, n,
                                      alpha, beta)
        step_type = StepType.ADD if u.u[j] == 0.0 else StepType.INCREASE
        u.u[j] += theta
        u.support[j] = True
        return StepOutcome(step_type, j, theta, 1.0, theta)
    j = choice.j_minus
    if u.u[j] <= _DROP_FLOOR:
        theta = -float(u.u[j])
        u.u[j] = 0.0
        u.support[j] = False
        return StepOutcome(StepType.DROP, j, theta, 1.0, theta)
    theta = backtracking_stepsize(float(u.u[j]), float(kappa[j]), -1.0, n,
                                  alpha, beta)
    u.u[j] += theta
    if u.u[j] <= 0.0:
        u.u[j] = 0.0
        u.support[j] = False
        return StepOutcome(StepType.DROP, j, theta, 1.0, theta)
    return StepOutcome(StepType.DECREASE, j, theta, 1.0, theta)


def rcd_pick(grad: np.ndarray, rng: np.random.Generator) -> int:
    """Sample an axis with probability proportional to |grad h_i|.

    Raises
    ------
    ExactOptimum
        If the gradient vanishes identically.
    """
    weights = np.abs(grad)
    total = weights.sum()
    if total <= 0.0:
        raise ExactOptimum("gradient is identically zero")
    return int(rng.choice(weights.size, p=weights / total))


def rcd_step(u: DualWeights, kappa: np.ndarray, j: int, n: int) -> StepOutcome:
    """Constant-stepsize coordinate update on a sampled axis, descent sign,
    projected onto u >= 0.  Sampling can land on a zero-weight interior
    point; the projected step is then zero and classified as a drop."""
    kj = float(kappa[j])
    if kj > n:
        theta = (kj - n) / (kj * kj)
        step_type = StepType.ADD if u.u[j] == 0.0 else StepType.INCREASE
        u.u[j] += theta
        u.support[j] = True
        return StepOutcome(step_type, j, theta, 1.0, theta)
    if kj < n:
        theta = (kj - n) / (n * kj)
        if u.u[j] + theta > 0.0:
            u.u[j] += theta
            return StepOutcome(StepType.DECREASE, j, theta, 1.0, theta)
        theta = -float(u.u[j])
        u.u[j] = 0.0
        u.support[j] = False
        return StepOutcome(StepType.DROP, j, theta, 1.0, theta)
    # kappa_j == n: stationary axis, nothing to do
    step_type = StepType.DROP if u.u[j] == 0.0 else StepType.INCREASE
    return StepOutcome(step_type, j, 0.0, 1.0, 0.0)


def _decrement_assertions(outcome: StepOutcome, kappa_j: float, n: int) -> None:
    # closed-form per-step decrement against the guaranteed lower bounds
    theta = outcome.theta_rel
    dec = np.log1p(theta * kappa_j) - n * theta
    if outcome.step_type in (StepType.ADD, StepType.INCREASE):
        bound = (n - kappa_j) ** 2 / (2.0 * kappa_j * kappa_j)
    elif outcome.step_type is StepType.DECREASE:
        bound = (n - kappa_j) ** 2 / (2.0 * n * kappa_j)
    else:  # drop: no decrease guaranteed, but never an increase
        bound = 0.0
    if not dec >= bound - 1e-10:
        raise StepRuleViolation(
            f"decrement {dec:.3e} below bound {bound:.3e} "
            f"({outcome.step_type.value}, kappa={kappa_j})")


def solve(X: PointSet, config: SolverConfig, debug: bool = False) -> SolveReport:
    """Run the configured algorithm on a symmetric instance.

    Stops when the certificate reaches the tolerance: fwk certifies primal
    feasibility only (eps_plus <= epsilon); every other algorithm requires
    max(eps_plus, eps_minus) <= epsilon.  Hitting max_iter returns a report
    with converged=False rather than raising.

    Parameters
    ----------
    X : PointSet
        Must be symmetric; lift(...) arbitrary instances first.
    config : SolverConfig
    debug : bool
        Check per-step decrement lower bounds on constant-stepsize
        coordinate steps, raising StepRuleViolation (slows the loop; tests
        only).

    Returns
    -------
    SolveReport
    """
    if not X.symmetric:
        raise ValueError("solve expects a symmetric instance; lift(...) first")
    n, m = X.dim, X.count
    period = config.refactor_period if config.refactor_period else 50 * n
    alg = config.algorithm

    if config.init is InitScheme.KHACHIYAN:
        u = init_khachiyan(m)
    else:
        u = init_kumar_yildirim(X, config.seed)

    t0 = time.perf_counter()
    pts = X.points
    state = factor_from_weights(X, u, period)
    kappa = gradient_refresh(state, X)
    rng = np.random.default_rng(config.seed)
    trace: list[IterationRecord] = []
    converged = False
    final_eps = np.inf

    for k in range(config.max_iter):
        choice = select_axis_gauss_southwell(kappa, u, n)
        eps_k = max(choice.eps_plus, choice.eps_minus)
        stop_eps = choice.eps_plus if alg is Algorithm.FWK else eps_k
        if stop_eps <= config.epsilon:
            converged = True
            final_eps = stop_eps
            break
        h_k = objective_h(u, state)
        kappa_max = float(kappa[choice.j_plus])
        kappa_min = float(kappa[choice.j_minus])

        if alg is Algorithm.FWK:
            outcome = fwk_step(u, kappa, choice.j_plus, n)
        elif alg is Algorithm.WA:
            outcome = wa_step(u, kappa, choice, n)
        elif alg is Algorithm.CD_CONST:
            outcome = cd_step(u, kappa, choice, n)
        elif alg is Algorithm.CD_DIMINISH:
            outcome = cd_diminishing_step(u, kappa, k, choice, n)
        elif alg is Algorithm.CD_BACKTRACK:
            outcome = cd_backtracking_step(u, kappa, choice, n,
                                           config.backtrack_alpha,
                                           config.backtrack_beta)
        else:
            j = rcd_pick(n - kappa, rng)
            outcome = rcd_step(u, kappa, j, n)

        if debug and alg in (Algorithm.CD_CONST, Algorithm.RCD):
            _decrement_assertions(outcome, float(kappa[outcome.axis]), n)

        # inverse and gradient maintenance
        if outcome.scale < _SCALE_FLOOR or not np.isfinite(outcome.theta_rel):
            # degenerate convex combination (lambda = 1): rebuild outright
            state = factor_from_weights(X, u, period)
            kappa = gradient_refresh(state, X)
        elif outcome.theta_rel != 0.0:
            xj = pts[:, outcome.axis]
            kj = float(kappa[outcome.axis])
            y = apply_inverse(state, xj)
            w = pts.T @ y
            try:
                kappa = gradient_rank_one(kappa, w, outcome.theta_rel, kj)
                # the inverse takes its own quadratic form x_j^T y = w_j, not
                # the maintained kappa_j: the Sherman-Morrison step is then
                # exact for the matrix the stored inverse represents
                state = rank_one_modify(state, y, outcome.theta_rel,
                                        float(w[outcome.axis]), outcome.scale)
            except SingularUpdate:
                # exact drop of a geometrically loaded point; rebuild
                state = factor_from_weights(X, u, period)
                kappa = gradient_refresh(state, X)
            else:
                if outcome.scale != 1.0:
                    kappa /= outcome.scale
                if state.needs_refactor:
                    state = factor_from_weights(X, u, period)
                    kappa = gradient_refresh(state, X)

        trace.append(IterationRecord(k, outcome.step_type, outcome.axis,
                                     kappa_max, kappa_min, eps_k, h_k,
                                     outcome.recorded))

    if converged:
        final_eps = float(final_eps)
    else:
        choice = select_axis_gauss_southwell(kappa, u, n)
        final_eps = float(choice.eps_plus if alg is Algorithm.FWK
                          else max(choice.eps_plus, choice.eps_minus))
        if final_eps <= config.epsilon:
            # max_iter landed exactly on the boundary
            converged = True
    final_h = objective_h(u, state)
    return SolveReport(converged=converged, iterations=len(trace),
                       final_eps=final_eps, final_h=float(final_h),
                       trace=trace, wall_time=time.perf_counter() - t0,
                       u_final=u)


TRACE_HEADER = "iter,step_type,axis,kappa_max,kappa_min_support,eps,h,theta"


def write_trace(trace, path) -> None:
    """Write one CSV row per iteration in the fixed trace format."""
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for r in trace:
            fh.write(f"{r.iter},{r.step_type.value},{r.axis},{r.kappa_max!r},"
                     f"{r.kappa_min_support!r},{r.eps_k!r},{r.h_value!r},"
                     f"{r.theta_or_lambda!r}\n")
