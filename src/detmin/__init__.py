"""Computational certificates that rank strata of matrix spaces are minimal.

The fixed-rank strata of the space of p x q matrices (and their complex
and indefinite relatives) are minimal submanifolds.  This package checks
that statement numerically along several independent routes: an explicit
rank-r chart with closed-form metric inverses, a level-set description of
the square-minor variety, reflection symmetries that force the mean
curvature to vanish, the realified complex determinant, and indefinite
ambient forms.  Every route reports residuals against pinned tolerances;
``detmin verify all`` runs the lot.

Importing the package before numpy pins BLAS to one thread: threaded BLAS
sums in another order, so the records would depend on the host's CPU
count.  A thread count already set in the environment is kept.
"""

import os

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")
del _variable

from .errors import (ConventionFailure, DegenerateMetric, InvalidChartPoint,
                     SingularGram)
from .parametric import (ChartPoint, chart_map, mean_curvature,
                         metric_inverse, normal_frame, sample_chart_point)
from .report import CheckRecord, VerificationReport
from .sweep import CHECKS, RunConfig, run_sweep

__version__ = "0.1.0"

__all__ = [
    "ChartPoint",
    "CheckRecord",
    "CHECKS",
    "ConventionFailure",
    "DegenerateMetric",
    "InvalidChartPoint",
    "RunConfig",
    "SingularGram",
    "VerificationReport",
    "chart_map",
    "mean_curvature",
    "metric_inverse",
    "normal_frame",
    "run_sweep",
    "sample_chart_point",
    "__version__",
]
