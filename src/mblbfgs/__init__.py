"""Robust multi-batch L-BFGS.

A limited-memory quasi-Newton optimizer whose curvature pairs come from
gradient differences on the overlap of consecutive sample batches, with a
deterministic simulator of fault-tolerant distributed gradient aggregation
and an experiment harness emitting CSV convergence traces.
"""

__version__ = "0.1.0"

from .dataio import make_synthetic, parse_libsvm, serialize_libsvm
from .driver import (
    CurvatureDiagnostic,
    RunConfig,
    RunTrace,
    StepSchedule,
    constant,
    curvature_diagnostics,
    diminishing,
    run,
    sqrt_horizon,
    take_step,
)
from .engine import CurvaturePair, LbfgsMemory
from .errors import (
    ConfigurationError,
    DataError,
    MblbfgsError,
    NumericError,
    RedrawLimitError,
    UsageError,
)
from .experiment import ExperimentSpec, run_experiment
from .linalg import Dataset
from .objectives import Objective, SubsetGradient, logistic_l2, quadratic, sigmoid_lsq
from .sampling import (
    NodeLayout,
    SamplePlan,
    SeededRng,
    make_layout,
    plan_fault,
    plan_strategy1_epoch,
    plan_strategy2,
    reshard,
)

__all__ = [
    "__version__",
    "ConfigurationError", "DataError", "MblbfgsError", "NumericError",
    "RedrawLimitError", "UsageError",
    "Dataset",
    "Objective", "SubsetGradient", "logistic_l2", "quadratic", "sigmoid_lsq",
    "NodeLayout", "SamplePlan", "SeededRng", "make_layout", "plan_fault",
    "plan_strategy1_epoch", "plan_strategy2", "reshard",
    "CurvaturePair", "LbfgsMemory",
    "CurvatureDiagnostic", "RunConfig", "RunTrace", "StepSchedule",
    "constant", "curvature_diagnostics", "diminishing", "run",
    "sqrt_horizon", "take_step",
    "ExperimentSpec", "run_experiment",
    "make_synthetic", "parse_libsvm", "serialize_libsvm",
]
