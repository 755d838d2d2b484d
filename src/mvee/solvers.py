"""Iterative dual solvers for the minimum volume enclosing ellipsoid.

Six algorithms over the dual objective
h(u) = -ln det(X U X^T) + n (e^T u - 1), all driven by the quadratic forms
kappa_i = x_i^T (X U X^T)^{-1} x_i and the gradient identity
grad h(u)_i = n - kappa_i.  They are one coordinate-wise method: an axis
rule picks a point j and a direction (increase or decrease u_j), and one of
two kernels moves u along e_j.

- wa_step, the simplex step: u <- (1 - t) u + t e_j with the exact
  line-search stepsize; keeps e^T u = 1.  solve() holds this iterate as
  u = c v with one scalar c > 0, so the step changes v_j alone
  (v_j += t / (s c), or v_j = 0 on a drop) and the normaliser c <- s c,
  s = 1 - t.  As M(u) = c M(v), kappa(u) = kappa(v) / c and
  ln det M(u) = ln det M(v) + n ln c, M(v) takes a plain rank-one update
  and no weight, kappa or M^{-1} entry is rescaled.
- cd_step, the projected coordinate step: u_j <- max(u_j + theta, 0) with
  theta from a stepsize rule; e^T u moves freely and c stays 1.

    algorithm     axis rule                   kernel   stepsize
    fwk           argmax kappa, increase      simplex  exact
    wa            Gauss-Southwell             simplex  exact, capped at a drop
    cd_const      Gauss-Southwell             cd       exact_stepsize
    cd_diminish   Gauss-Southwell             cd       schedule_stepsize
    cd_backtrack  Gauss-Southwell             cd       armijo_stepsize
    rcd           sampled by |grad h_j|       cd       exact_stepsize

The Gauss-Southwell rule takes the larger certificate violation: argmax
kappa (increase) or argmin kappa over the support (decrease), ties to the
increase.  rcd samples j with probability proportional to |grad h_j| and
steps in the descent direction.

Each iteration is O(m n) after an O(m n^2) initialization: M^{-1}, ln det M
and the kappa vector are maintained incrementally, one Sherman-Morrison
step per iteration on the vector y = M^{-1} x_j that the O(m n) gradient
pass needs anyway (see linalg); solve() also decides when to rebuild them
from the weights.  Besides that pass, which writes into one buffer per
solve, an iteration makes two O(m) sweeps (argmax kappa and the kappa
update) and one O(s) scan of the s support indices for the decrease axis;
a simplex step writes one weight, as a coordinate step does, and the
objective is O(1) from a running sum of the weights.
"""

import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ExactOptimum,
    InvalidInput,
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

# scales below which a convex combination degenerates to the full jump
# u' = e_j (t = 1, only at n = 1) and the factor is rebuilt from the weights
_SCALE_FLOOR = 1e-14
# weights below this are dropped outright by the backtracking variant rather
# than decayed geometrically forever (the line search itself never hits zero)
_DROP_FLOOR = 1e-14
# about sqrt(machine epsilon): kappa_j carries a relative error of about
# cond(M) * 1e-16, so u_j kappa_j = 1 can read 1 - 2e-11 at cond(M) = 3e6
_SINGULAR_STEP_TOL = 1.5e-8
# Armijo sufficient-decrease fraction and backtracking factor
_ARMIJO_ALPHA = 0.5
_ARMIJO_BETA = 0.5
# incremental updates per dimension between rebuilds, bounding their drift
_REBUILD_PER_DIM = 50


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

    def __post_init__(self):
        try:
            self.algorithm = Algorithm(self.algorithm)
            self.init = InitScheme(self.init)
        except ValueError as exc:
            raise InvalidInput(str(exc)) from None
        if self.epsilon <= 0:
            raise InvalidInput("epsilon must be positive")
        if self.max_iter < 1:
            raise InvalidInput("max_iter must be at least 1")


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

    @property
    def increase(self) -> bool:
        """Direction of the Gauss-Southwell step; ties go to the increase."""
        return self.eps_plus >= self.eps_minus


@dataclass
class StepOutcome:
    """What a single step did to the held weights v of the iterate u = c v:
    v_j moved by theta_rel, so M(v) -> M(v) + theta_rel x_j x_j^T, and the
    normaliser c -> scale * c.  theta_rel is inf after a full jump, which
    leaves u itself in v (so c = 1) and needs a rebuild."""

    step_type: StepType
    axis: int
    recorded: float  # lambda for simplex steps, theta for additive steps
    scale: float  # 1 - t for simplex steps, 1 for additive steps
    theta_rel: float


def init_khachiyan(m: int) -> DualWeights:
    """Uniform weights 1/m on every point."""
    if m < 1:
        raise InvalidInput("need at least one point")
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
    p = np.empty(m)  # |d . x_i| for each direction, reused
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
        np.dot(d, pts, out=p)
        np.abs(p, out=p)
        j = int(p.argmax())
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


def select_axis_gauss_southwell(kappa: np.ndarray, support: np.ndarray,
                                n: float) -> AxisChoice:
    """Largest-|gradient| axes: argmax kappa overall, argmin over the support.

    `support` holds the indices of the positive weights in increasing order,
    so the decrease axis costs O(s) for s support points on top of the O(m)
    argmax.  Ties break to the lowest index.  eps_plus = kappa_max/n - 1 and
    eps_minus = 1 - kappa_min_support/n are the two certificate quantities;
    for weights v held up to a normaliser c, kappa(v) is passed with n c.
    """
    j_plus = int(kappa.argmax())
    on_support = kappa[support]
    i = int(on_support.argmin())
    return AxisChoice(j_plus, support.item(i),
                      kappa.item(j_plus) / n - 1.0,
                      1.0 - on_support.item(i) / n)


def wa_step(v: DualWeights, kappa: np.ndarray, j: int, increase: bool,
            n: int, c: float) -> StepOutcome:
    """Simplex step u' = (1 - t) u + t e_j on the exact line-search stepsize,
    for the iterate u = c v given as its weights v, kappa = kappa(v) and the
    normaliser c.

    Increase (t = lambda, the Frank-Wolfe step):
    lambda = (kappa_j - n) / (n (kappa_j - 1)); afterwards the point lies
    exactly on the trial ellipsoid boundary (kappa'_j = n).  Away step
    (t = -lambda): lambda = min{ (n - kappa_j)/(n (kappa_j - 1)),
    u_j/(1 - u_j) }; when the second candidate attains the min, u_j lands
    exactly on zero and the step is a drop.  For kappa_j <= 1 the first
    candidate is +inf: the objective decreases along the whole ray, so only
    the drop bound is active.  Keeps e^T u = 1.

    With s = 1 - t, u' = s c (v + t / (s c) e_j): only v_j changes, and the
    caller takes c' = s c from the returned scale.  Below the scale floor
    (the full jump t = 1 at n = 1) v is overwritten with u' itself.
    """
    kj = kappa.item(j) / c
    vj = v.u.item(j)
    uj = c * vj
    if increase:
        # on a full-rank symmetric instance kappa at the argmax exceeds 1
        # whenever the iterate is not yet optimal
        if not kj > 1.0:
            raise StepRuleViolation(
                f"increase step needs kappa_j > 1, got {kj}")
        lam = (kj - n) / (n * (kj - 1.0))
        step_type = StepType.ADD if uj == 0.0 else StepType.INCREASE
        t = lam
    else:
        if not uj < 1.0:
            raise StepRuleViolation(
                f"away step needs mass outside the pivot, u_j = {uj}")
        lam_drop = uj / (1.0 - uj)
        lam = ((n - kj) / (n * (kj - 1.0))) if kj > 1.0 else np.inf
        step_type = StepType.DECREASE
        if lam_drop <= lam:
            lam, step_type = lam_drop, StepType.DROP
        t = -lam
    scale = 1.0 - t
    if step_type is StepType.DROP:
        theta = -vj
        v.u[j] = 0.0
    elif scale > _SCALE_FLOOR:
        theta = t / (scale * c)
        v.u[j] = vj + theta
    else:
        v.u *= scale * c
        v.u[j] += t
        theta = np.inf
    return StepOutcome(step_type, j, lam, scale, theta)


def cd_step(u: DualWeights, j: int, theta: float,
            increase: bool) -> StepOutcome:
    """Projected coordinate step u_j <- u_j + theta onto u_j >= 0.

    A decrease that does not leave u_j > 0 is clamped to zero and is a
    drop.  A zero step (a stationary axis, or a decrease the stepsize rule
    declined) moves nothing; on the support it is labelled with the
    direction the axis rule chose, off it a drop.
    """
    uj = u.u.item(j)
    if theta > 0.0:
        step_type = StepType.ADD if uj == 0.0 else StepType.INCREASE
        u.u[j] = uj + theta
    elif theta == 0.0:
        if uj > 0.0:
            step_type = StepType.INCREASE if increase else StepType.DECREASE
        else:
            step_type = StepType.DROP
    elif uj + theta > 0.0:
        step_type = StepType.DECREASE
        u.u[j] = uj + theta
    else:
        step_type = StepType.DROP
        theta = -uj
        u.u[j] = 0.0
    return StepOutcome(step_type, j, theta, 1.0, theta)


# Stepsize rules of the coordinate step.  Each maps
# (u_j, kappa_j, increase, n, k) to the signed step theta on the chosen
# axis at iteration k; solve() picks one per algorithm before its loop.

def exact_stepsize(u_j: float, kappa_j: float, increase: bool, n: int,
                   k: int) -> float:
    """Per-axis exact smoothness step: (kappa_j - n) / kappa_j^2 on an
    increase (kappa_j >= n), (kappa_j - n) / (n kappa_j) on a decrease
    (kappa_j <= n)."""
    if increase:
        if not kappa_j >= n:
            raise StepRuleViolation(
                f"increase branch needs kappa_j >= n, got {kappa_j} < {n}")
        return (kappa_j - n) / (kappa_j * kappa_j)
    if not kappa_j <= n:
        raise StepRuleViolation(
            f"decrease branch needs kappa_j <= n, got {kappa_j} > {n}")
    return (kappa_j - n) / (n * kappa_j)


def schedule_stepsize(u_j: float, kappa_j: float, increase: bool, n: int,
                      k: int) -> float:
    """The 2/(k+2) schedule, signed by the direction.  It ignores the barrier
    in h, so a decrease leaving M (numerically) singular, as a drop of a
    point with u_j kappa_j = 1 does, is not taken: the step is zero."""
    lam = 2.0 / (k + 2.0)
    if increase:
        return lam
    if 1.0 - min(lam, u_j) * kappa_j <= _SINGULAR_STEP_TOL:
        return 0.0
    return -lam


def armijo_stepsize(u_j: float, kappa_j: float, increase: bool, n: int,
                    k: int) -> float:
    """Armijo backtracking along the direction, exploiting the closed form
    h(u + theta e_j) - h(u) = n theta - ln(1 + theta kappa_j).

    Trials lambda = beta^t from 1 are rejected while infeasible (a decrease
    may not exceed u_j or make the log argument vanish) or while the
    decrease is worse than alpha * lambda * |grad h_j|, with alpha and beta
    the module's _ARMIJO_ALPHA and _ARMIJO_BETA.  Weights below the drop
    floor are removed outright: backtracking alone shrinks them
    geometrically but never to zero, which would stall the support
    certificate.

    Raises
    ------
    LineSearchStalled
        If lambda underflows below 1e-16 without acceptance.
    """
    if not increase and u_j <= _DROP_FLOOR:
        return -u_j
    grad = n - kappa_j
    if grad == 0.0:
        return 0.0
    d = 1.0 if increase else -1.0
    target = _ARMIJO_ALPHA * abs(grad)
    lam = 1.0
    while lam >= 1e-16:
        theta = d * lam
        if increase or (lam <= u_j and 1.0 + theta * kappa_j > 1e-12):
            dh = n * theta - np.log1p(theta * kappa_j)
            if dh <= -target * lam:
                return theta
        lam *= _ARMIJO_BETA
    raise LineSearchStalled(f"no acceptable step above 1e-16 (kappa={kappa_j})")


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


def solve(X: PointSet, config: SolverConfig) -> SolveReport:
    """Run the configured algorithm on a symmetric instance.

    Stops when the certificate reaches the tolerance: fwk certifies primal
    feasibility only (eps_plus <= epsilon); every other algorithm requires
    max(eps_plus, eps_minus) <= epsilon.  Hitting max_iter returns a report
    with converged=False rather than raising.

    M^{-1}, ln det M, kappa and the sorted support indices are rebuilt from
    the weights at the start, after a degenerate convex combination (scale
    below 1e-14), after a SingularUpdate, and after every 50 n incremental
    updates.  Between rebuilds kappa is updated in place and the support
    array changes only when u_j crosses zero.  The weight sum e^T v that the
    objective needs is re-summed at every rebuild and otherwise moved by
    each step's change of v_j.

    fwk and wa hold their iterate as u = c v: the weights v, with kappa,
    M^{-1} and ln det M those of M(v), and one normaliser c that each step
    multiplies by 1 - t.  Every rebuild first folds c back into the weights
    (v <- c v, c <- 1), and u_final is returned normalised.  Increase steps
    have t < 1/n, so between rebuilds c >= (1 - 1/n)^(50 n), about e^-50.
    The coordinate steps keep c = 1.

    Parameters
    ----------
    X : PointSet
        Must be symmetric; lift(...) arbitrary instances first.
    config : SolverConfig

    Returns
    -------
    SolveReport

    Raises
    ------
    NotFullRank
        If the points do not span R^n, as for a lifted lower-dimensional set.
    """
    if not X.symmetric:
        raise InvalidInput("solve expects a symmetric instance; lift(...) first")
    n, m = X.dim, X.count
    period = _REBUILD_PER_DIM * n
    alg = config.algorithm

    stepsize = {Algorithm.CD_CONST: exact_stepsize,
                Algorithm.RCD: exact_stepsize,
                Algorithm.CD_DIMINISH: schedule_stepsize,
                Algorithm.CD_BACKTRACK: armijo_stepsize}.get(alg)

    if config.init is InitScheme.KHACHIYAN:
        u = init_khachiyan(m)
    else:
        u = init_kumar_yildirim(X, config.seed)

    t0 = time.perf_counter()
    pts = X.points
    pts_t = pts.T
    w = np.empty(m)  # the gradient pass w = X^T M^{-1} x_j, reused each step
    fwk, rcd = alg is Algorithm.FWK, alg is Algorithm.RCD
    rng = np.random.default_rng(config.seed)
    trace: list[IterationRecord] = []
    rebuild = True
    c = 1.0  # u = c v; kappa(v) = c kappa(u) is read against n c

    # the last pass only evaluates the stopping rule at max_iter
    for k in range(config.max_iter + 1):
        if rebuild:
            if c != 1.0:
                u.u *= c
                c = 1.0
            state = factor_from_weights(X, u)
            kappa = gradient_refresh(state, X)
            support = np.flatnonzero(u.u)
            total = float(u.u.sum())  # e^T v, then moved by each step
            updates = 0
        choice = select_axis_gauss_southwell(kappa, support, n * c)
        eps_k = max(choice.eps_plus, choice.eps_minus)
        stop_eps = choice.eps_plus if fwk else eps_k
        if stop_eps <= config.epsilon or k == config.max_iter:
            break
        h_k = objective_h(total, state, c)
        kappa_max = kappa.item(choice.j_plus)
        kappa_min = kappa.item(choice.j_minus)

        if rcd:
            j = rcd_pick(n - kappa, rng)
            increase = kappa.item(j) > n  # descent sign
        else:
            increase = fwk or choice.increase
            j = choice.j_plus if increase else choice.j_minus
        uj = u.u.item(j)
        if stepsize is None:
            kappa_max /= c  # the trace records kappa(u)
            kappa_min /= c
            outcome = wa_step(u, kappa, j, increase, n, c)
            # a full jump leaves u itself in the weights
            c = c * outcome.scale if math.isfinite(outcome.theta_rel) else 1.0
        else:
            theta = stepsize(uj, kappa.item(j), increase, n, k)
            outcome = cd_step(u, j, theta, increase)
        # only u_j changes, except in a full jump, which rebuilds
        vj = u.u.item(j)
        total += vj - uj
        on_support = vj > 0.0
        if on_support != (uj > 0.0):
            i = support.searchsorted(j)
            if on_support:
                support = np.concatenate((support[:i], (j,), support[i:]))
            else:
                support = np.concatenate((support[:i], support[i + 1:]))

        # inverse and gradient maintenance; a degenerate convex combination
        # (lambda = 1, where wa_step reports theta_rel = inf) rebuilds
        # outright, as do a singular update and the period-th update
        rebuild = not math.isfinite(outcome.theta_rel)
        if not rebuild and outcome.theta_rel != 0.0:
            y = apply_inverse(state, pts[:, j])
            np.dot(pts_t, y, out=w)
            # both updates take w_j = x_j^T y from the stored inverse, not the
            # maintained kappa_j, whose error 1/(1 + theta kappa_j) would scale
            wj = w.item(j)
            try:
                kappa = gradient_rank_one(kappa, w, outcome.theta_rel, wj)
                state = rank_one_modify(state, y, outcome.theta_rel, wj)
            except SingularUpdate:
                # exact drop of a geometrically loaded point; rebuild
                rebuild = True
            else:
                updates += 1
                rebuild = updates >= period

        trace.append(IterationRecord(k, outcome.step_type, j, kappa_max,
                                     kappa_min, eps_k, h_k, outcome.recorded))

    final_eps = float(stop_eps)
    final_h = objective_h(total, state, c)
    if c != 1.0:
        u.u *= c
    return SolveReport(converged=final_eps <= config.epsilon,
                       iterations=len(trace), final_eps=final_eps,
                       final_h=final_h, trace=trace,
                       wall_time=time.perf_counter() - t0, u_final=u)


TRACE_HEADER = "iter,step_type,axis,kappa_max,kappa_min_support,eps,h,theta"


def write_trace(trace, path) -> None:
    """Write one CSV row per iteration in the fixed trace format."""
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for r in trace:
            fh.write(f"{r.iter},{r.step_type.value},{r.axis},{r.kappa_max!r},"
                     f"{r.kappa_min_support!r},{r.eps_k!r},{r.h_value!r},"
                     f"{r.theta_or_lambda!r}\n")
