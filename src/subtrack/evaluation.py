"""Performance metrics and the end-to-end benchmark pipeline.

RMSE and the asymmetric exponential score penalize late failure detection
(overestimated RUL) more than early detection. The pipeline wires dataset
ingestion, subspace tracking, health-index generation and curve-matching RUL
estimation into a single reproducible run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import dataset, health, multiscale, rul, subspace
from .config import RunConfig
from .dataset import N_SETTINGS, Normalizer, TrajectorySet
from .errors import NoMatchError, NumericalError, PrognosticsError, ValidationError
from .health import CURVE_COLUMNS, RAW_DIST, SCALED_DIST, SIGMA, DistanceScaler
from .multiscale import MultiModel
from .rul import RulEstimate

GAMMA_EARLY = 1.0 / 13.0  # estimate below truth (early maintenance)
GAMMA_LATE = 1.0 / 10.0  # estimate above truth (late maintenance)

REPORT_FORMAT_VERSION = 1


def _finite(name: str, value: float, errors: np.ndarray) -> float:
    """value, unless it overflowed: a metric is a finite number or raises."""
    if not np.isfinite(value):
        raise NumericalError(
            f"{name} overflows: the largest |error| is {np.abs(errors).max():g}"
        )
    return value


def rmse(errors) -> float:
    """Root mean squared RUL error over the fleet."""
    errors = np.asarray(errors, dtype=float)
    if errors.size == 0:
        raise ValidationError("rmse of an empty error list")
    with np.errstate(over="ignore"):  # an overflow raises in _finite
        return _finite("rmse", float(np.sqrt(np.mean(errors**2))), errors)


def score(errors) -> float:
    """Sum of exp(gamma * |e|) - 1 with the larger gamma for late estimates."""
    errors = np.asarray(errors, dtype=float)
    if errors.size == 0:
        raise ValidationError("score of an empty error list")
    gamma = np.where(errors < 0, GAMMA_EARLY, GAMMA_LATE)
    with np.errstate(over="ignore"):  # an overflow raises in _finite
        return _finite("score", float(np.sum(np.exp(gamma * np.abs(errors)) - 1.0)), errors)


# ---------------------------------------------------------------------------
# pipeline

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


def _analyze_fleet(model: MultiModel, blocks, tset, cfg: RunConfig, weights=None) -> tuple:
    """(the fleet's curve table: each row's raw distance, that distance
    smoothed within its unit in the scaled column and, given regressor
    weights, the health index they predict in the sigma column; the rows'
    model labels). A distance that overflows (a huge delta or row value)
    raises NumericalError. Each block is normalized as it is drawn."""
    curves = np.empty((len(CURVE_COLUMNS), len(tset.matrix))).T  # contiguous columns, for matching
    raw, hi, reg = curves[:, RAW_DIST], curves[:, SIGMA], np.empty(len(curves), dtype=np.uint8)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        for blk, x in blocks:
            reg[blk], raw[blk] = multiscale.assign_rows(model, x, cfg.delta)
            if not np.isfinite(raw[blk]).all():
                raise NumericalError("non-finite subspace distance (overflow)")
            if weights is not None:
                hi[blk] = health.predict_hi(weights, x, reg[blk])
    health.smooth_units(raw, tset.bounds, cfg.smoothing, out=curves[:, SCALED_DIST])
    return curves, reg


def _fleet_curves(tset, cfg: RunConfig, scaler, curves) -> TrajectorySet:
    """The fleet's curves, the smoothed distance scaled in place, with the
    health index of train, infer and matching: in sst mode that of the scaled
    distance; in sst-lr mode the regressed index in the sigma column, smoothed.
    Each step writes into the table's columns."""
    scaled, sigma = curves[:, SCALED_DIST], curves[:, SIGMA]
    health.scale(scaler, scaled, out=scaled)
    if cfg.mode == "sst-lr":
        health.smooth_units(sigma, tset.bounds, cfg.smoothing, out=sigma)
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


def train_pipeline(
    train_set: TrajectorySet, cfg: RunConfig
) -> tuple[TrainedPipeline, TrajectorySet]:
    """Fit the training stage: regimes (and K) read from the settings, then on
    the sensors the normalizer, one batch-PCA subspace per regime at the largest d
    `subspace.pick_dim` reads from their healthy spectra (a regime of at most d
    healthy rows raises ValidationError), scaler and (in sst-lr mode) the
    regressor. Returns the pipeline and its library's curves; only reads the set.
    It is `fit_rows` then `fit_library`: a caller that holds the set only to
    train may drop it between the two."""
    return fit_library(*fit_rows(train_set, cfg))


def fit_rows(train_set: TrajectorySet, cfg: RunConfig) -> tuple[dict, TrajectorySet]:
    """Every pass of `train_pipeline` that reads the set's rows (the last is
    the distance pass in sst mode, the predict pass in sst-lr mode), then
    the curves they leave, written in place. Returns the TrainedPipeline
    fields but the library, and the fleet's curves; neither holds the set."""
    centroids, labels = multiscale.cluster_regimes(_settings(train_set))
    sensors, bounds = train_set.matrix[:, N_SETTINGS:], train_set.bounds
    norm = dataset.fit_normalizer(sensors, labels, len(centroids))

    is_healthy = np.zeros(len(sensors), dtype=bool)  # each unit's first healthy_cycles rows
    for a, b in zip(bounds, bounds[1:]):
        is_healthy[a : min(b, a + cfg.healthy_cycles)] = True
    idx = np.flatnonzero(is_healthy)
    idx = idx[np.argsort(labels[idx], kind="stable")]  # by regime, in order within each
    healthy, healthy_labels = sensors[idx], labels[idx]  # each healthy row copied once
    norm.transform_inplace(healthy, healthy_labels)
    n_rows = np.bincount(healthy_labels, minlength=len(centroids))
    windows = np.split(healthy, np.cumsum(n_rows)[:-1])  # a view of each regime's rows
    spectra = [subspace.spectrum(w) for w in windows if len(w) > 1]
    d = max((subspace.pick_dim(eigvals) for _, eigvals, _ in spectra), default=1)
    for k, n in enumerate(n_rows):
        if n <= d:
            raise ValidationError(
                f"regime {k}: {n} healthy rows cannot initialize a {d}-dimensional subspace"
                + (f" (of {len(n_rows)} regimes read from the settings; an outlying settings "
                   "row reads as a regime of its own)" if len(n_rows) > 1 else "")
            )
    members = [subspace.fit_spectrum(*s, d) for s in spectra]
    del is_healthy, idx, healthy, healthy_labels, windows  # freed before the fleet passes
    model = MultiModel(models=members, centroids=centroids)

    def blocks():
        return _normalized_blocks(norm, train_set, labels)

    curves, reg = _analyze_fleet(model, blocks(), train_set, cfg)
    smoothed = curves[:, SCALED_DIST]
    scaler = health.fit_scaler(curves[:, RAW_DIST], smoothed, bounds, cfg.healthy_cycles)
    regressor = None
    if cfg.mode == "sst-lr":  # each block's target: the sst index of its smoothed distance
        regressor = health.fit_hi_regression(
            ((x, health.to_health_index(health.scale(scaler, smoothed[blk])), reg[blk])
             for blk, x in blocks()),
            len(centroids),
        )
        for blk, x in blocks():
            curves[blk, SIGMA] = health.predict_hi(regressor, x, reg[blk])
    fitted = dict(config=cfg, normalizer=norm, model=model, scaler=scaler, regressor=regressor)
    return fitted, _fleet_curves(train_set, cfg, scaler, curves)


def fit_library(fitted: dict, curves: TrajectorySet) -> tuple[TrainedPipeline, TrajectorySet]:
    """The rest of `train_pipeline`, on what `fit_rows` returns: the pipeline,
    with the library prepared from the curves, and the curves."""
    return TrainedPipeline(**fitted, library=rul.prepare_library(curves)), curves


def infer_curves(pipe: TrainedPipeline, tset: TrajectorySet) -> TrajectorySet:
    """Health-index curves for a fleet under the trained pipeline, through
    the same row analysis and health index as training."""
    cfg = pipe.config
    if cfg.mode == "sst-lr" and pipe.regressor is None:
        raise ValidationError("sst-lr mode requires a fitted regressor")
    labels = multiscale.nearest_centroid(pipe.model.centroids, _settings(tset))
    blocks = _normalized_blocks(pipe.normalizer, tset, labels)
    weights = pipe.regressor if cfg.mode == "sst-lr" else None
    curves, _ = _analyze_fleet(pipe.model, blocks, tset, cfg, weights)
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


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class RulReport:
    estimates: list[RulEstimate]
    truths: list[int]  # one per estimate
    rmse: float
    score: float
    config: dict
    wall_time: float

    @property
    def rows(self) -> list[dict]:
        """unit_id, estimate, truth and error of each estimate."""
        return [
            {"unit_id": e.unit_id, "estimate": e.estimate, "truth": t, "error": e.estimate - t}
            for e, t in zip(self.estimates, self.truths)
        ]

    def to_json(self) -> str:
        # wall_time is deliberately left out so identical runs serialize
        # byte-identically
        return json.dumps(
            {
                "version": REPORT_FORMAT_VERSION,
                "config": self.config,
                "n_units": len(self.estimates),
                "rmse": self.rmse,
                "score": self.score,
                "rows": self.rows,
            },
            indent=2,
            sort_keys=True,
            allow_nan=False,  # strict JSON: a metric that overflowed has raised
        )

    def to_text(self) -> str:
        lines = [
            f"{'unit':>6} {'estimate':>10} {'truth':>8} {'error':>8}",
        ]
        for r in self.rows:
            lines.append(
                f"{r['unit_id']:>6} {r['estimate']:>10.2f} "
                f"{r['truth']:>8} {r['error']:>8.2f}"
            )
        lines.append("")
        lines.append(f"units: {len(self.estimates)}")
        lines.append(f"rmse:  {self.rmse:.4f}")
        lines.append(f"score: {self.score:.4f}")
        lines.append(f"wall time: {self.wall_time:.2f} s")
        return "\n".join(lines)


def build_report(
    estimates: list[RulEstimate],
    truths: list[int],
    cfg: RunConfig,
    wall_time: float,
) -> RulReport:
    if len(estimates) != len(truths):
        raise ValidationError("one truth value per estimate required")
    errors = [est.estimate - truth for est, truth in zip(estimates, truths)]
    return RulReport(
        estimates=list(estimates),
        truths=list(truths),
        rmse=rmse(errors),
        score=score(errors),
        config=cfg.to_dict(),
        wall_time=wall_time,
    )


@contextmanager
def stage(name: str):
    """Tag pipeline errors with the stage they came from. A numpy
    LinAlgError (a singular or non-converging decomposition) becomes a
    NumericalError, so it exits 3 instead of ending in a traceback."""
    try:
        yield
    except PrognosticsError as exc:
        raise type(exc)(f"[{name}] {exc}") from exc
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"[{name}] {exc}") from exc


def _score(
    pipe: TrainedPipeline, test_set: TrajectorySet, truths: list[int], start: float
) -> tuple[RulReport, TrajectorySet]:
    """Infer, match and evaluate a test fleet under a trained pipeline: the
    report, timed from the perf_counter value start, and the test curves."""
    with stage("infer"):
        test_curves = infer_curves(pipe, test_set)
    with stage("match"):
        estimates = estimate_fleet(pipe, test_curves)
    with stage("evaluate"):
        report = build_report(estimates, truths, pipe.config, time.perf_counter() - start)
    return report, test_curves


def run_pipeline(
    train_set: TrajectorySet,
    test_set: TrajectorySet,
    truths: list[int],
    cfg: RunConfig,
) -> tuple[RulReport, TrainedPipeline, TrajectorySet, TrajectorySet]:
    """Full in-memory benchmark: train, infer, match, evaluate. Returns the
    report, the pipeline, and the training and test curves."""
    start = time.perf_counter()
    with stage("train"):
        pipe, train_curves = train_pipeline(train_set, cfg)
    report, test_curves = _score(pipe, test_set, truths, start)
    return report, pipe, train_curves, test_curves


def run_benchmark(
    train_path, test_path, rul_path, cfg: RunConfig
) -> tuple[RulReport, TrainedPipeline, TrajectorySet, TrajectorySet]:
    """File-based `run_pipeline` for CMAPSS-format datasets, holding one
    fleet table at a time: the training table is dropped after training,
    before the test and RUL files are parsed. Both are opened first, so an
    unreadable path fails before training; the wall time spans their parse."""
    with stage("load"):
        train_set = dataset.load_cmapss(train_path)
    for path in (test_path, rul_path):
        open(path).close()
    start = time.perf_counter()
    with stage("train"):
        fitted = fit_rows(train_set, cfg)
        del train_set  # the library is prepared beside the curve table alone
        pipe, train_curves = fit_library(*fitted)
    with stage("load"):
        test_set = dataset.load_cmapss(test_path)
        truths = dataset.load_rul_targets(rul_path, len(test_set))
    report, test_curves = _score(pipe, test_set, truths, start)
    return report, pipe, train_curves, test_curves
