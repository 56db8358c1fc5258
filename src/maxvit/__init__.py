"""Multi-axis attention vision backbone, from scratch on a tape-autodiff core.

The package is layered bottom-up: `tensor`/`tape`/`ops` (immutable arrays,
reverse-mode autodiff, the primitive set), `axes` (block/grid partitions),
`nn`/`attention`/`model` (layers through the full variant family), `counting`
and `golden` (analytic size accounting vs published references), `optim` and
`train` (AdamW, toy training), `checks` (runnable invariant suites), `cli`.
"""

from .axes import block, grid, partition_indices, unblock, ungrid
from .checks import run_checks
from .counting import count_model, count_params
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    MaxVitError,
    NumericError,
    PartitionError,
)
from .gradcheck import GRAD_TOL, grad_check
from .golden import GOLDEN_MACS, GOLDEN_PARAMS, MACS_TOLERANCE, PARAM_TOLERANCE
from .model import (
    TOY_VARIANT,
    VARIANTS,
    MaxVitModel,
    StageSpec,
    VariantSpec,
    build_model,
    default_window,
    forward,
    load_model,
    named_buffers,
    named_parameters,
    save_model,
    validate_geometry,
    with_window,
)
from .optim import AdamW, AdamWConfig
from .tape import GradTape
from .tensor import (
    Tensor,
    default_dtype,
    load_tensor,
    ones,
    save_tensor,
    set_debug_checks,
    tensor,
    zeros,
)
from .train import TOY_LOSS_TARGET, TOY_STEPS, make_toy_dataset, train_toy

__version__ = "0.1.0"

__all__ = [
    "Tensor", "tensor", "zeros", "ones", "GradTape", "grad_check", "GRAD_TOL",
    "block", "unblock", "grid", "ungrid", "partition_indices",
    "VariantSpec", "StageSpec", "VARIANTS", "TOY_VARIANT", "MaxVitModel",
    "build_model", "forward", "default_window", "validate_geometry",
    "with_window", "save_model", "load_model", "named_parameters", "named_buffers",
    "count_model", "count_params",
    "GOLDEN_PARAMS", "GOLDEN_MACS", "PARAM_TOLERANCE", "MACS_TOLERANCE",
    "AdamW", "AdamWConfig", "make_toy_dataset", "train_toy",
    "TOY_STEPS", "TOY_LOSS_TARGET", "run_checks",
    "default_dtype", "set_debug_checks",
    "save_tensor", "load_tensor",
    "MaxVitError", "DimensionError", "PartitionError", "NumericError",
    "DataError", "ConfigError",
    "__version__",
]
