"""The scoring pipeline: a trained pipeline and the fleet passes that turn a
fleet into health-index curves and RUL estimates.

This is what `infer` runs on a model directory that `persist` read back.
Training (`fit`) makes the same passes over its own fleet, so the library
and the queries are one index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dataset, health, multiscale, rul
from .config import RunConfig
from .dataset import N_SETTINGS, Normalizer, TrajectorySet
from .errors import NoMatchError, NumericalError, ValidationError
from .health import CURVE_COLUMNS, RAW_DIST, SCALED_DIST, SIGMA, DistanceScaler
from .multiscale import MultiModel
from .rul import RulEstimate


@dataclass(frozen=True)
class TrainedPipeline:
    """Everything infer and matching need, and what a model directory holds."""

    config: RunConfig
    normalizer: Normalizer
    model: MultiModel
    scaler: DistanceScaler
    regressor: np.ndarray | None  # sst-lr: the (K, N_SENSORS+1) weights of fit_hi_regression
    library: rul.Library  # the training curves' sigma, prepared at fit time


def _normalized_blocks(norm: Normalizer, tset, labels):
    """(slice, tracked rows) for each `dataset.ROW_BLOCK` rows of the set's
    read-only matrix: the block's sensor columns are copied into one
    block-sized buffer and normalized there with the table of its regime
    `labels`. Every block reuses that buffer, so a block is spent once the
    next one is asked for."""
    sensors, size = tset.matrix[:, N_SETTINGS:], dataset.ROW_BLOCK
    buf = np.empty((min(size, len(sensors)), sensors.shape[1]))
    for a in range(0, len(sensors), size):
        blk = slice(a, a + size)
        x = buf[: min(size, len(sensors) - a)]
        x[:] = sensors[blk]
        norm.transform_inplace(x, labels[blk])
        yield blk, x


def _analyze_fleet(model: MultiModel, blocks, tset, weights=None) -> tuple:
    """(the fleet's curve table: each row's raw distance, that distance
    smoothed within its unit in the scaled column and, given regressor
    weights, the health index they predict in the sigma column; the rows'
    model labels). A distance that overflows (a huge stored delta or row value)
    raises NumericalError. Each block is normalized as it is drawn."""
    curves = np.empty((len(CURVE_COLUMNS), len(tset.matrix))).T  # contiguous columns, for matching
    raw, hi, reg = curves[:, RAW_DIST], curves[:, SIGMA], np.empty(len(curves), dtype=np.uint8)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        for blk, x in blocks:
            reg[blk], raw[blk] = multiscale.assign_rows(model, x)
            if not np.isfinite(raw[blk]).all():
                raise NumericalError("non-finite subspace distance (overflow)")
            if weights is not None:
                hi[blk] = health.predict_hi(weights, x, reg[blk])
    health.smooth_units(raw, tset.bounds, health.SMOOTHING, out=curves[:, SCALED_DIST])
    return curves, reg


def _fleet_curves(tset, cfg: RunConfig, scaler, curves) -> TrajectorySet:
    """The fleet's curves, the smoothed distance scaled in place, with the
    health index of train, infer and matching: in sst mode that of the scaled
    distance; in sst-lr mode the regressed index in the sigma column, smoothed.
    Each step writes into the table's columns."""
    scaled, sigma = curves[:, SCALED_DIST], curves[:, SIGMA]
    health.scale(scaler, scaled, out=scaled)
    if cfg.mode == "sst-lr":
        health.smooth_units(sigma, tset.bounds, health.SMOOTHING, out=sigma)
    else:
        health.to_health_index(scaled, out=sigma)
    return TrajectorySet(curves, tset.unit_ids, tset.bounds)


def _settings(tset: TrajectorySet) -> np.ndarray:
    """The settings columns of a fleet's matrix, which must hold at least
    one sensor column after them."""
    if tset.matrix.shape[1] <= N_SETTINGS:
        raise ValidationError(
            f"features must be a 2-d array with {N_SETTINGS} settings "
            "columns and at least one sensor column"
        )
    return tset.matrix[:, :N_SETTINGS]


def infer_curves(pipe: TrainedPipeline, tset: TrajectorySet) -> TrajectorySet:
    """Health-index curves for a fleet under the trained pipeline, through
    the same row analysis and health index as training."""
    cfg = pipe.config
    if cfg.mode == "sst-lr" and pipe.regressor is None:
        raise ValidationError("sst-lr mode requires a fitted regressor")
    labels = multiscale.nearest_centroid(pipe.model.centroids, _settings(tset))
    blocks = _normalized_blocks(pipe.normalizer, tset, labels)
    weights = pipe.regressor if cfg.mode == "sst-lr" else None
    curves, _ = _analyze_fleet(pipe.model, blocks, tset, weights)
    return _fleet_curves(tset, cfg, pipe.scaler, curves)


def estimate_fleet(
    pipe: TrainedPipeline,
    test_curves: TrajectorySet,
    skip_unmatched: bool = False,
) -> list[RulEstimate | None]:
    """Match each unit's sigma, as given, against the pipeline's library.

    With skip_unmatched, a curve with no valid (unit, lag) candidate yields
    None instead of raising; benchmark runs keep the hard failure.
    """
    estimates = []
    for unit, curve in zip(test_curves.unit_ids, test_curves):
        try:
            estimates.append(rul.estimate_rul(unit, curve[:, SIGMA], pipe.library, pipe.config))
        except NoMatchError:
            if not skip_unmatched:
                raise
            estimates.append(None)
    return estimates
