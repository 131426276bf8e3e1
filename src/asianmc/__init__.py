"""Monte Carlo toolkit for time-integrated exponential Brownian motion.

Two estimator families (plain path averages and closed-form measure-change
transformations) for the distribution of the time integral, plus fixed-strike
Asian call prices and Greeks built on top of them, a sweep/benchmark harness,
and a deterministic CSV command line.
"""

from .estimators import (
    Estimate,
    call_kernel,
    call_kernel_d1,
    call_kernel_d2,
    cdf,
    cdf_weighted,
    density,
    joint_cdf,
    stable_exp_rate,
    transform_expectation,
)
from .greeks import (
    GreekReport,
    OptionSpec,
    delta,
    gamma,
    greek_report,
    price,
    theta,
    theta_fd_expiry,
    vega,
    vega_weighted,
)
from .paths import (
    MCConfig,
    PathBatch,
    PathSample,
    default_steps,
    sample_batch,
    sample_ensemble,
    sample_path,
)

__version__ = "0.1.0"

__all__ = [
    "Estimate",
    "GreekReport",
    "MCConfig",
    "OptionSpec",
    "PathBatch",
    "PathSample",
    "call_kernel",
    "call_kernel_d1",
    "call_kernel_d2",
    "cdf",
    "cdf_weighted",
    "default_steps",
    "delta",
    "density",
    "gamma",
    "greek_report",
    "joint_cdf",
    "price",
    "sample_batch",
    "sample_ensemble",
    "sample_path",
    "stable_exp_rate",
    "theta",
    "theta_fd_expiry",
    "transform_expectation",
    "vega",
    "vega_weighted",
]
