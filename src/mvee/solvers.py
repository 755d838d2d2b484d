"""Iterative dual solvers for the minimum volume enclosing ellipsoid.

Six algorithms over the dual objective
h(u) = -ln det(X U X^T) + n (e^T u - 1), all driven by the quadratic forms
kappa_i = x_i^T (X U X^T)^{-1} x_i and the gradient identity
grad h(u)_i = n - kappa_i.  They are one coordinate-wise method: an axis
rule picks a point j, a stepsize rule gives theta in the descent direction
(up when kappa_j > n, down otherwise), and cd_step takes the projected
coordinate step u_j <- max(u_j + theta, 0).  The algorithms differ only in
those two rules.  enclose() is the path from points to their ellipsoid:
it lifts an arbitrary set, solves, and reads the ellipsoid from the fresh
factor of the final weights that certifies solve()'s report.

fwk and wa renormalise after the step, u' = (u + theta e_j) / (1 + theta),
which is the simplex step (1 - t) u + t e_j with t = theta / (1 + theta).
solve() holds this iterate as u = c v with c = 1 / e^T v, so the step
changes v_j alone.  As M(u) = c M(v), kappa(u) = kappa(v) / c and
ln det M(u) = ln det M(v) + n ln c, M(v) takes a plain rank-one update and
no weight, kappa or M^{-1} entry is rescaled.  The coordinate algorithms
keep c = 1.

    algorithm     axis rule                   stepsize
    fwk           argmax kappa                simplex_stepsize
    wa            Gauss-Southwell             simplex_stepsize
    cd_const      Gauss-Southwell             exact_stepsize
    cd_diminish   Gauss-Southwell             schedule_stepsize
    cd_backtrack  Gauss-Southwell             armijo_stepsize
    rcd           sampled by |grad h_j|       exact_stepsize

The Gauss-Southwell rule takes the larger certificate violation: argmax
kappa or argmin kappa over the support, ties to the argmax; rcd samples j
with probability proportional to |grad h_j|.  The loop stops once the
certificate reaches epsilon, and SolverConfig holds epsilon > 0, so every
axis either rule picks has grad h_j = n - kappa_j != 0: no stepsize rule or
sampler meets a zero gradient or an axis without a descent direction.

Each iteration is O(m n) after an O(m n^2) initialization: kappa, M^{-1}
and ln det M live in one linalg.FactorState, which solve() moves in place
by one Sherman-Morrison step per iteration and rebuilds from the weights
when it decides to; a stop is one more rebuild, so one factor checks
each stop.  An update is one linalg.rank_one_modify call, which forms
y = M^{-1} x_j and the pass w = X^T y itself.  Besides it, the axis rule
makes one O(m) argmax and one O(s) scan of the s support indices, and
the objective is O(1) from the running sum.
"""

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from numbers import Real

import numpy as np

from .errors import (InvalidInput, LineSearchStalled, SingularUpdate,
                     check_int)
from .linalg import PD_TOL, FactorState, factor_from_weights, rank_one_modify
from .problem import (DualWeights, Ellipsoid, PointSet, lift, objective_h,
                      select_axis_gauss_southwell)

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
# enclose solves a set translated to its midrange when that lies more than
# this many ranges from the origin: near 1e6 ranges the lifted points'
# factor reads the set as lower-dimensional, and a nearer set keeps its bits
_FAR = 1024


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


# cd_step's step types as module globals, which read faster than the members
_ADD, _INCREASE, _DECREASE, _DROP = StepType


@dataclass
class SolverConfig:
    """One solve's setting: the algorithm, the tolerance epsilon > 0 its
    certificate must reach, the iteration cap, the start, and the seed of
    the Kumar-Yildirim start and of rcd's sampler."""

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
        eps = self.epsilon
        if isinstance(eps, bool) or not isinstance(eps, Real):
            raise InvalidInput("epsilon must be a real number")
        # NaN fails too: no eps_k <= NaN could stop the solve
        if not eps > 0:
            raise InvalidInput("epsilon must be positive")
        check_int("max_iter", self.max_iter, 1)
        check_int("seed", self.seed, 0)


@dataclass(slots=True)
class IterationRecord:
    """One trace row, read before the iteration at its position steps on
    `axis`: kappa_max and kappa_min_support are kappa(u) (not kappa(v) of
    the held weights), eps_k is max(eps_plus, eps_minus) for every
    algorithm (fwk stops on eps_plus alone), h_value is h(u), and
    theta_or_lambda is the step's lambda for fwk and wa and theta otherwise."""

    step_type: StepType
    axis: int
    kappa_max: float
    kappa_min_support: float
    eps_k: float
    h_value: float
    theta_or_lambda: float


@dataclass
class SolveReport:
    """What solve() returned; wall_time runs from its call to its return,
    so it counts a start solve() computed, not one passed in.  u_final is
    solve()'s own weights, its copy of start or the start it computed, with
    c folded in; factor, the state solve() rebuilt from u_final to stop,
    gives final_eps, converged and final_h = h(u_final).  loop_eps is the
    maintained kappa's reading that called for that rebuild (final_eps if
    it was made anyway), which can differ on an ill-conditioned set."""

    converged: bool
    iterations: int
    final_eps: float
    loop_eps: float
    final_h: float
    trace: list
    wall_time: float
    u_final: DualWeights
    factor: FactorState = field(repr=False)


@dataclass(slots=True)
class StepOutcome:
    """What cd_step did to the held weights v: v_j moved by theta_rel, after
    the projection onto v_j >= 0, so M(v) -> M(v) + theta_rel x_j x_j^T.
    The step type is read from theta_rel and v_j alone (see cd_step).
    The step rescales no other weight (scale 1).  theta_rel is +inf for the
    full jump of a simplex step at n = 1, after which solve() replaces the
    weights and rebuilds."""

    step_type: StepType
    scale: float
    theta_rel: float


def init_khachiyan(m: int) -> DualWeights:
    """Uniform weights 1/m on every point."""
    check_int("m", m, 1)
    return DualWeights(np.full(m, 1.0 / m))


def init_kumar_yildirim(X: PointSet, seed: int) -> DualWeights:
    """Pick n points along n independent directions, weight 1/n each.

    The first direction is random; each later direction is one fresh
    standard-normal draw projected orthogonally to the span of the points
    already chosen, with no retry: a draw within rounding of that span has
    probability near zero.  Along each direction the point with the largest
    |d . x| is taken, and a nonzero residual against the basis extends it.
    The start does not judge rank: it always returns n points, and solve()'s
    first factor rejects them if they do not span R^n.
    """
    pts = X.points
    n, m = pts.shape
    rng = np.random.default_rng(seed)
    Q = np.zeros((n, 0))  # orthonormal basis of span of chosen points
    p = np.empty(m)  # |d . x_i| for each direction, reused
    chosen = []
    for _ in range(n):
        d = rng.standard_normal(n)
        d = d - Q @ (Q.T @ d)
        d /= np.linalg.norm(d)
        np.dot(d, pts, out=p)
        np.abs(p, out=p)
        # a chosen point lies in the span, up to the basis' rounding
        p[chosen] = -1.0
        j = int(p.argmax())
        r = pts[:, j] - Q @ (Q.T @ pts[:, j])
        # an exact power-of-two scale keeps the norm's squares in range
        r = np.ldexp(r, -math.frexp(np.abs(r).max())[1])
        rnorm = np.linalg.norm(r)
        if rnorm:
            Q = np.hstack([Q, (r / rnorm)[:, None]])
        chosen.append(j)
    u = np.zeros(m)
    u[chosen] = 1.0 / n
    return DualWeights(u)


def initial_weights(X: PointSet, config: SolverConfig) -> DualWeights:
    """The weights solve() starts from: uniform for the Khachiyan start,
    else the Kumar-Yildirim points drawn with config.seed."""
    if config.init is InitScheme.KHACHIYAN:
        return init_khachiyan(X.count)
    return init_kumar_yildirim(X, config.seed)


def cd_step(u: DualWeights, j: int, theta: float) -> StepOutcome:
    """Projected coordinate step u_j <- u_j + theta onto u_j >= 0.

    theta > 0 is an add from u_j = 0, else an increase.  Otherwise a step
    that leaves u_j > 0 is a decrease, and one that does not is clamped to
    zero and is a drop.  A zero step moves nothing: on the support it is a
    decrease (schedule_stepsize declining a singular one), off it a drop.
    """
    uj = u.u.item(j)
    if theta > 0.0:
        step_type = _ADD if uj == 0.0 else _INCREASE
        u.u[j] = uj + theta
    elif uj + theta > 0.0:
        step_type = _DECREASE
        u.u[j] = uj + theta
    else:
        step_type = _DROP
        theta = -uj
        u.u[j] = 0.0
    return StepOutcome(step_type, 1.0, theta)


# Stepsize rules of the coordinate step.  Each maps (u_j, kappa_j, n, k) to
# the signed step theta on the chosen axis at iteration k, increasing u_j
# when kappa_j > n and decreasing it otherwise; solve() picks one per
# algorithm before its loop.

def exact_stepsize(u_j: float, kappa_j: float, n: int, k: int) -> float:
    """Per-axis exact smoothness step: (kappa_j - n) / kappa_j^2 on an
    increase (kappa_j > n), (kappa_j - n) / (n kappa_j) on a decrease
    (kappa_j <= n).  At kappa_j <= 0 (x_j = 0) h changes by n theta along
    the whole decrease ray, and the step is -inf: cd_step drops u_j."""
    if kappa_j > n:
        return (kappa_j - n) / (kappa_j * kappa_j)
    return (kappa_j - n) / (n * kappa_j) if kappa_j > 0.0 else -math.inf


def simplex_stepsize(u_j: float, kappa_j: float, n: int, k: int) -> float:
    """Exact line search of the simplex step u' = (u + theta e_j) / (1 + theta)
    from e^T u = 1: theta = (kappa_j - n) / ((n - 1) kappa_j) both ways, that
    is lambda / (1 - lambda) for the Frank-Wolfe step
    lambda = (kappa_j - n) / (n (kappa_j - 1)), after which x_j lies on the
    trial ellipsoid boundary, and -lambda / (1 + lambda) for the away step
    lambda = (n - kappa_j) / (n (kappa_j - 1)).  cd_step clamps an away step
    at -u_j, the drop; for kappa_j <= 1 h falls along the whole away ray and
    the step is -inf (an increase has kappa_j > n >= 1).  At n = 1 it is
    +inf, the full jump u' = e_j."""
    if kappa_j <= 1.0:
        return -math.inf
    if n == 1:
        return math.inf
    return (kappa_j - n) / ((n - 1) * kappa_j)


def schedule_stepsize(u_j: float, kappa_j: float, n: int, k: int) -> float:
    """The 2/(k+2) schedule, signed by the direction.  It ignores the barrier
    in h, so a decrease leaving M (numerically) singular, as a drop of a
    point with u_j kappa_j = 1 does, is not taken: the step is zero."""
    lam = 2.0 / (k + 2.0)
    if kappa_j > n:
        return lam
    if 1.0 - min(lam, u_j) * kappa_j <= _SINGULAR_STEP_TOL:
        return 0.0
    return -lam


def armijo_stepsize(u_j: float, kappa_j: float, n: int, k: int) -> float:
    """Armijo backtracking along the direction, exploiting the closed form
    h(u + theta e_j) - h(u) = n theta - ln(1 + theta kappa_j).

    Trials lambda = beta^t from 1 are rejected while infeasible (a decrease
    may not exceed u_j or make the log argument vanish) or while the
    decrease is worse than alpha * lambda * |grad h_j|, with alpha and beta
    the module's _ARMIJO_ALPHA and _ARMIJO_BETA.  Weights below the drop
    floor are removed outright: backtracking alone shrinks them
    geometrically but never to zero, which would stall the support
    certificate.  The axis must have kappa_j != n.

    Raises
    ------
    LineSearchStalled
        If lambda underflows below 1e-16 without acceptance.
    """
    increase = kappa_j > n
    if not increase and u_j <= _DROP_FLOOR:
        return -u_j
    d = 1.0 if increase else -1.0
    target = _ARMIJO_ALPHA * abs(n - kappa_j)
    lam = 1.0
    while lam >= 1e-16:
        theta = d * lam
        if increase or (lam <= u_j and 1.0 + theta * kappa_j > PD_TOL):
            dh = n * theta - np.log1p(theta * kappa_j)
            if dh <= -target * lam:
                return theta
        lam *= _ARMIJO_BETA
    raise LineSearchStalled(f"no acceptable step above 1e-16 (kappa={kappa_j})")


def rcd_pick(grad: np.ndarray, rng: "np.random.Generator") -> int:
    """Sample an axis with probability proportional to |grad h_i|; the
    gradient must not vanish identically."""
    weights = np.abs(grad)
    return int(rng.choice(weights.size, p=weights / weights.sum()))


def solve(X: PointSet, config: SolverConfig,
          start: DualWeights | None = None) -> SolveReport:
    """Run the configured algorithm on a symmetric instance.

    Stops when the certificate reaches the tolerance: fwk certifies primal
    feasibility only (eps_plus <= epsilon); every other algorithm requires
    max(eps_plus, eps_minus) <= epsilon.  Each pass reads it once.  A pass
    on the maintained kappa that passes, or is at max_iter, rebuilds and
    tests again: the loop stops only on a fresh state, else steps on from
    it.  final_eps, converged (true or not at max_iter), the factor and
    final_h are that state's, of the returned weights u = c v, c folded in.

    Every algorithm takes its step through cd_step with the theta of its
    stepsize rule.  The state (kappa, M^{-1}, ln det M) and the sorted
    support indices are rebuilt from the weights at the start, after the
    full jump of a simplex step (n = 1 only), after a SingularUpdate,
    after every 50 n incremental updates and for a stop.  Between rebuilds
    the state is updated in place and the support array changes only when
    v_j crosses zero.  The weight sum e^T v is re-summed at every rebuild
    and otherwise moved by each step's change of v_j.

    fwk and wa read c = 1 / e^T v from that sum after each step.  Every
    rebuild folds c into the weights (v <- c v, c <- 1).  Each increase
    multiplies c by 1 - t > 1 - 1/n, so between rebuilds
    c >= (1 - 1/n)^(50 n), about e^-50.

    Parameters
    ----------
    X : PointSet
        Must be symmetric; enclose() lifts arbitrary instances.
    config : SolverConfig
    start : DualWeights, optional
        Weights to start from, one per point, as initial_weights(X, config)
        gives; solve() steps, and returns, a copy.  None computes that start.

    Returns
    -------
    SolveReport

    Raises
    ------
    NotFullRank
        If the points, or the support of the final weights, do not span
        R^n, as for a lifted lower-dimensional set.
    """
    t0 = time.perf_counter()
    if not X.symmetric:
        raise InvalidInput("solve expects a symmetric instance; lift(...) first")
    n, m = X.dim, X.count
    period = _REBUILD_PER_DIM * n
    alg = config.algorithm

    stepsize = {Algorithm.FWK: simplex_stepsize,
                Algorithm.WA: simplex_stepsize,
                Algorithm.CD_CONST: exact_stepsize,
                Algorithm.RCD: exact_stepsize,
                Algorithm.CD_DIMINISH: schedule_stepsize,
                Algorithm.CD_BACKTRACK: armijo_stepsize}[alg]
    simplex = stepsize is simplex_stepsize

    if start is None:
        u = initial_weights(X, config)
    elif start.u.size != m:
        raise InvalidInput(f"start has {start.u.size} weights for {m} points")
    else:
        u = DualWeights(start.u)  # a copy

    pts_t = X.points.T  # row j is x_j
    fwk, rcd = alg is Algorithm.FWK, alg is Algorithm.RCD
    # only rcd draws; the other algorithms are deterministic
    rng = np.random.default_rng(config.seed) if rcd else None
    trace: list[IterationRecord] = []
    rebuild = True
    c = 1.0  # u = c v; kappa(v) = c kappa(u) is read against n c
    epsilon, max_iter, inf = config.epsilon, config.max_iter, math.inf

    loop_eps = None  # the maintained reading that called for a rebuild
    while True:  # each pass steps once, stops or rebuilds to test again
        k = len(trace)
        if rebuild:
            u.u *= c  # exact at c = 1
            c = 1.0
            state = factor_from_weights(X, u)
            kappa = state.kappa
            support = np.flatnonzero(u.u)
            total = float(u.u.sum())  # e^T v, then moved by each step
            updates = 0
        j_plus, j_minus, kappa_plus, kappa_minus = \
            select_axis_gauss_southwell(kappa, support)
        nc = n * c
        eps_plus = kappa_plus / nc - 1.0
        eps_minus = 1.0 - kappa_minus / nc
        increase = eps_plus >= eps_minus  # ties go to the increase
        eps_k = eps_minus if eps_minus > eps_plus else eps_plus
        stop_eps = eps_plus if fwk else eps_k
        if stop_eps <= epsilon or k == max_iter:
            if rebuild:  # a fresh state: its reading is the report's
                break
            loop_eps, rebuild = stop_eps, True  # test again on a rebuild
            continue
        if rebuild:
            loop_eps = None  # the fresh reading refused the stop, if any
        h_k = objective_h(total, state, c)
        kappa_max, kappa_min = kappa_plus / c, kappa_minus / c  # kappa(u)

        # the rule sees u_j = c v_j and kappa_j(u), exact at c = 1
        if rcd:
            j = rcd_pick(n - kappa, rng)
            kappa_j = kappa.item(j)
        elif fwk or increase:
            j, kappa_j = j_plus, kappa_max
        else:
            j, kappa_j = j_minus, kappa_min
        vj = u.u.item(j)
        theta = stepsize(c * vj, kappa_j, n, k)
        outcome = cd_step(u, j, theta / c)
        theta_rel = outcome.theta_rel
        if simplex:
            # lambda = |t| of u' = (1 - t) u + t e_j; 1 for the full jump
            step = c * theta_rel
            recorded = abs(step / (1.0 + step)) if theta < inf else 1.0
        else:
            recorded = theta_rel
        trace.append(IterationRecord(outcome.step_type, j, kappa_max,
                                     kappa_min, eps_k, h_k, recorded))
        if theta == inf:
            # the full jump u' = e_j (n = 1): rebuild from the new weights
            u.u.fill(0.0)
            u.u[j] = 1.0
            c, rebuild = 1.0, True
            continue

        # only v_j changed
        vj_new = u.u.item(j)
        total += vj_new - vj
        if simplex:
            c = 1.0 / total
        on_support = vj_new > 0.0
        if on_support != (vj > 0.0):
            i = support.searchsorted(j)
            if on_support:
                support = np.concatenate((support[:i], (j,), support[i:]))
            else:
                support = np.concatenate((support[:i], support[i + 1:]))

        # inverse and gradient maintenance; a singular update and the
        # period-th update rebuild instead
        rebuild = False
        if theta_rel != 0.0:
            try:
                # moves kappa, M^{-1} and ln det M in place
                rank_one_modify(state, pts_t, j, theta_rel)
            except SingularUpdate:
                # exact drop of a geometrically loaded point; rebuild
                rebuild = True
            else:
                updates += 1
                rebuild = updates >= period

    return SolveReport(converged=stop_eps <= epsilon, iterations=k,
                       final_eps=stop_eps,
                       loop_eps=stop_eps if loop_eps is None else loop_eps,
                       final_h=objective_h(total, state, 1.0),
                       trace=trace, wall_time=time.perf_counter() - t0,
                       u_final=u, factor=state)


def enclose(X: PointSet, config: SolverConfig
            ) -> tuple[Ellipsoid, SolveReport]:
    """The enclosing ellipsoid of X found by solve(), and solve()'s report.

    An arbitrary set is solved lifted, x_i -> (x_i, 1); a symmetric one
    as it is.  The ellipsoid is that of w = u / s, s = e^T u, read from
    report.factor, the factor of u that certifies the report, as
    M(w) = M(u) / s: the optimum has s = 1 exactly, so this is a
    normalization at solver tolerance.  With c = P w, the lifted points
    (p_i, 1) give M(w) = [[P W P^T, c], [c^T, 1]], so the top-left n x n
    block of M(w)^{-1} = s M(u)^{-1} is the inverse of the Schur complement
    P W P^T - c c^T, whose determinant is det M(w): H and ln det H =
    -ln det M(w) = N ln s - ln det M(u), N = n + 1.  A symmetric set has
    center 0, H = M(w)^{-1} and N = n.  The ellipsoid carries ln det H as
    logdet, which volume() and the JSON's logdet_H read.  An arbitrary set
    whose coordinate-wise midrange r has an entry more than 1024 times its
    widest coordinate range is solved as x_i - r, and r is added back to
    the center; H and ln det H do not change under a translation.

    Raises
    ------
    NotFullRank
        If the points, or the support of the final weights, span a
        lower-dimensional affine set.
    """
    mid = None
    if not X.symmetric:
        # halves, so that neither lo + hi nor hi - lo overflows
        lo, hi = X.points.min(axis=1) / 2, X.points.max(axis=1) / 2
        if np.abs(lo + hi).max() > _FAR * 2 * (hi - lo).max():
            mid = lo + hi
            X = PointSet(X.points - mid[:, None])
    report = solve(X if X.symmetric else lift(X), config)
    u, state, n = report.u_final.u, report.factor, X.dim
    s = float(u.sum())
    c = np.zeros(n) if X.symmetric else X.points @ (u / s)
    if mid is not None:
        c += mid
    return (Ellipsoid(center=c, shape=s * state.Minv[:n, :n], level=float(n),
                      logdet=len(state.Minv) * math.log(s) - state.log_det),
            report)


TRACE_HEADER = "iter,step_type,axis,kappa_max,kappa_min_support,eps,h,theta"


def write_trace(trace, path) -> None:
    """Write one CSV row per iteration, numbered from 0, under TRACE_HEADER."""
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for k, r in enumerate(trace):
            fh.write(f"{k},{r.step_type.value},{r.axis},{r.kappa_max!r},"
                     f"{r.kappa_min_support!r},{r.eps_k!r},{r.h_value!r},"
                     f"{r.theta_or_lambda!r}\n")
