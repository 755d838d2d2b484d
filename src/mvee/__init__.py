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
from .linalg import FactorState, factor_from_weights, gradient_refresh, logdet
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
    solve,
    write_trace,
)

__version__ = "0.1.0"
