"""Adaptive gradient methods as preconditioned SGD with an explicit estimation layer."""

from .errors import (
    ConfigError,
    DataFormatError,
    DimMismatchError,
    InvalidParamError,
    MissingOracleError,
    NonFiniteError,
    NumericError,
    PrecondSgdError,
    PreconditionViolatedError,
    SingularMatrixError,
)
from .linalg import (
    EigenDecomposition,
    SymMatrix,
    inv_perturbation_bound,
    invsqrt_preconditioner_bound,
    op_norm,
    sqrt_perturbation_bound,
    sym_power,
)
from .problems import (
    ProblemSmoothness,
    StochasticProblem,
    load_dataset_csv,
    make_counterexample,
    make_logistic_regression,
    make_quadratic_gaussian,
    make_saddle_problem,
    make_synthetic_logistic,
)
from .precond import (
    Preconditioner,
    PreconditionerConstants,
    PreconditionerKind,
    constants_diagonal,
    constants_full_matrix,
    constants_identity,
    estimate_m_bound,
    second_order_complexity_factor,
)
from .estimation import (
    EmaWeighting,
    EstimationBoundInputs,
    beta_schedule,
    burn_in_length,
    estimate_sigma_max,
    estimation_error_bound,
    measure_estimation_error,
)
from .optimizer import (
    HyperParams,
    StationarityReport,
    Trajectory,
    check_stationarity,
    first_order_params,
    hessian_tolerance,
    run_sgd,
    second_order_params,
)
from .checks import (
    InequalityCase,
    exp_growth_bound,
    inexact_noise_amplification,
    isotropy_covariance_check,
    negative_eigenvalue_bound,
    quadratic_sqrt_bound,
    series_bounds,
)

__version__ = "0.1.0"
