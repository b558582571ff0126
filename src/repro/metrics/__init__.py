"""Prediction-quality and goodness-of-fit metrics.

Re-exports everything public from :mod:`repro.metrics.errors`,
:mod:`repro.metrics.fit`, :mod:`repro.metrics.quantiles`, and
:mod:`repro.metrics.ranking`;
``from repro.metrics import *`` is stable and matches the submodules'
own ``__all__`` declarations.
"""

from .errors import mean_absolute_error, mean_relative_error, relative_errors
from .fit import pearson_r, r_squared, signed_r_squared
from .quantiles import percentile
from .ranking import pairwise_counts, rank_counts, validate_pair

__all__ = [
    "mean_absolute_error",
    "mean_relative_error",
    "pairwise_counts",
    "pearson_r",
    "percentile",
    "r_squared",
    "rank_counts",
    "relative_errors",
    "signed_r_squared",
    "validate_pair",
]
