"""Prediction-quality and goodness-of-fit metrics.

Re-exports everything public from :mod:`repro.metrics.errors`,
:mod:`repro.metrics.fit`, and :mod:`repro.metrics.quantiles`;
``from repro.metrics import *`` is stable and matches the submodules'
own ``__all__`` declarations.
"""

from .errors import mean_absolute_error, mean_relative_error, relative_errors
from .fit import pearson_r, r_squared, signed_r_squared
from .quantiles import percentile

__all__ = [
    "mean_absolute_error",
    "mean_relative_error",
    "pearson_r",
    "percentile",
    "r_squared",
    "relative_errors",
    "signed_r_squared",
]
