"""Minimum volume enclosing ellipsoid solvers and benchmark harness."""

from .errors import (
    DegenerateCovariance,
    DowndateBreaksPD,
    ExactOptimum,
    LineSearchStalled,
    MveeError,
    NotFullRank,
    PlanError,
    PointParseError,
    SingularUpdate,
    StepRuleViolation,
    TooFewPoints,
)
from .harness import (
    BenchmarkPlan,
    BenchmarkRow,
    Regime,
    delta_minus,
    delta_plus,
    emit_decrement_curves,
    gen_sample,
    run_benchmark,
)
from .linalg import (
    FactorState,
    apply_inverse,
    factor_from_weights,
    gradient_rank_one,
    gradient_refresh,
    logdet,
    quad_form,
    rank_one_modify,
)
from .problem import (
    CertificateReport,
    DualWeights,
    Ellipsoid,
    PointSet,
    certificate,
    lift,
    objective_h,
    read_points,
    recover_ellipsoid,
    volume,
    write_points,
)
from .solvers import (
    Algorithm,
    InitScheme,
    IterationRecord,
    SolveReport,
    SolverConfig,
    StepType,
    backtracking_stepsize,
    cd_backtracking_step,
    cd_diminishing_step,
    cd_step,
    fwk_step,
    init_khachiyan,
    init_kumar_yildirim,
    rcd_pick,
    rcd_step,
    select_axis_gauss_southwell,
    solve,
    wa_step,
    write_trace,
)

__version__ = "0.1.0"
