"""Adaptive gradient methods as preconditioned SGD with an explicit estimation layer.

``problems`` holds the problems, whose exact oracles return plain arrays:
G(x) = E[g g^T] as a (d, d) array and lambda_min of the Hessian as a
number, one per point of a stack. ``precond`` holds the one
``Preconditioner`` and ``constants``, the theorems' constants of a
``PreconditionerKind``; ``optimizer`` the one run loop ``run_sgd``, the
flat ``Run`` record it runs and the calculators; ``config`` what a config
file means, its conditions and their ``Run``s, each resolved once before
the first seed runs; ``runner`` the experiments; ``linalg`` the one way
into LAPACK. The lemma oracles are in ``tests/lemmas.py``.
"""

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
    inv_perturbation_bound,
    invsqrt_preconditioner_bound,
    op_norm,
    sqrt_perturbation_bound,
)
from .problems import (
    CounterexampleProblem,
    LogisticRegressionProblem,
    QuadraticGaussianProblem,
    SaddleProblem2D,
    StochasticProblem,
    load_dataset_csv,
    make_synthetic_logistic,
)
from .precond import (
    Preconditioner,
    PreconditionerConstants,
    PreconditionerKind,
    constants,
    estimate_m_bound,
    second_order_complexity_factor,
)
from .estimation import (
    EstimationBoundInputs,
    beta_schedule,
    burn_in_length,
    estimate_sigma_max,
    estimation_error_bound,
    hallucination_count,
)
from .optimizer import (
    Run,
    StationarityReport,
    Trajectory,
    check_stationarity,
    first_order_params,
    hessian_tolerance,
    run_sgd,
    second_order_params,
)

__version__ = "0.1.0"
