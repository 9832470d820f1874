"""Streaming subspace-tracking prognostics toolkit.

Tracks the low-dimensional subspace of healthy multivariate sensor data,
turns deviation from it into health-index curves, and estimates remaining
useful life by similarity-based curve matching. Includes a benchmark harness
for CMAPSS-format turbofan datasets.
"""

from .config import RunConfig
from .dataset import (
    Normalizer,
    SynthConfig,
    Trajectory,
    TrajectorySet,
    fit_normalizer,
    generate_synthetic,
    load_cmapss,
    load_rul_targets,
)
from .errors import (
    DataFormatError,
    NoMatchError,
    NumericalError,
    PrognosticsError,
    ValidationError,
)
from .evaluation import (
    RulReport,
    rmse,
    run_benchmark,
    run_pipeline,
    score,
)
from .health import DistanceScaler, HiCurve, HiRegressor
from .multiscale import MultiModel, cluster_regimes, track
from .rul import Library, MatchConfig, RulEstimate, estimate_rul, prepare_library
from .subspace import SubspaceModel, init_subspace, mahalanobis_rows

__version__ = "0.1.0"
