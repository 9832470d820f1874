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
from dataclasses import dataclass, field, replace

import numpy as np

from . import dataset, health, multiscale, rul, subspace
from .config import RunConfig
from .dataset import Normalizer, TrajectorySet
from .errors import NoMatchError, NumericalError, PrognosticsError, ValidationError
from .health import DistanceScaler, HiCurve, HiRegressor
from .multiscale import MultiModel
from .rul import MatchConfig, RulEstimate

GAMMA_EARLY = 1.0 / 13.0  # estimate below truth (early maintenance)
GAMMA_LATE = 1.0 / 10.0  # estimate above truth (late maintenance)

REPORT_FORMAT_VERSION = 1


def rmse(errors) -> float:
    """Root mean squared RUL error over the fleet."""
    errors = np.asarray(errors, dtype=float)
    if errors.size == 0:
        raise ValidationError("rmse of an empty error list")
    return float(np.sqrt(np.mean(errors**2)))


def score(errors) -> float:
    """Sum of exp(gamma * |e|) - 1 with the larger gamma for late estimates."""
    errors = np.asarray(errors, dtype=float)
    if errors.size == 0:
        raise ValidationError("score of an empty error list")
    gamma = np.where(errors < 0, GAMMA_EARLY, GAMMA_LATE)
    return float(np.sum(np.exp(gamma * np.abs(errors)) - 1.0))


# ---------------------------------------------------------------------------
# pipeline

@dataclass(frozen=True)
class TrainedPipeline:
    config: RunConfig
    normalizer: Normalizer
    model: MultiModel
    scaler: DistanceScaler
    regressor: HiRegressor | None
    # empty in a pipeline read back from a model directory: matching needs
    # only the library
    train_curves: list[HiCurve]
    library: rul.Library  # the smoothed training curves, prepared at fit time
    error_trace: list[float]


def _normalized_rows(norm, tset, labels, track_settings: bool) -> list[np.ndarray]:
    """Each unit's features z-scored with its regime labels, without the
    settings columns unless they are tracked."""
    rows = [norm.transform_rows(t.features, lab) for t, lab in zip(tset, labels)]
    if track_settings:
        return rows
    return [r[:, t.settings.shape[1] :] for r, t in zip(rows, tset)]


def _analyze_fleet(model: MultiModel, unit_rows, smoothing: float) -> tuple[list, ...]:
    """Per unit: (raw distances, smoothed distances, projections, model
    labels) from `health.analyze_rows`, the whole fleet smoothed in one call."""
    raw, proj, reg = zip(*(health.analyze_rows(model, rows) for rows in unit_rows))
    return list(raw), health.smooth_each(raw, smoothing), list(proj), list(reg)


def smoothed_library(curves: list[HiCurve], smoothing: float) -> rul.Library:
    """The matching library of training curves: each sigma smoothed as the
    test curves are, the whole library in one call."""
    sigmas = health.smooth_each([c.sigma for c in curves], smoothing)
    return rul.prepare_library([replace(c, sigma=s) for c, s in zip(curves, sigmas)])


def train_pipeline(train_set: TrajectorySet, cfg: RunConfig) -> TrainedPipeline:
    """Fit the training stage: regimes, normalizer, one batch-PCA subspace
    per regime (no epochs; the error trace is the mean healthy distance),
    scaler and (in sst-lr mode) the health-index regressor."""
    centroids = multiscale.cluster_regimes(
        np.vstack([t.settings for t in train_set]), cfg.n_regimes, seed=cfg.seed
    )
    labels = [multiscale.nearest_centroid(centroids, t.settings) for t in train_set]
    norm = dataset.fit_normalizer(train_set, labels)
    unit_rows = _normalized_rows(norm, train_set, labels, cfg.track_settings)

    healthy = np.vstack([r[: cfg.healthy_cycles] for r in unit_rows])
    healthy_labels = np.concatenate([lab[: cfg.healthy_cycles] for lab in labels])
    members = []
    for k in range(cfg.n_regimes):
        rows_k = healthy[healthy_labels == k]
        if len(rows_k) <= cfg.subspace_dim:
            raise ValidationError(
                f"regime {k}: {len(rows_k)} healthy rows cannot initialize "
                f"a {cfg.subspace_dim}-dimensional subspace"
            )
        members.append(subspace.init_subspace(rows_k, cfg.subspace_dim, cfg.delta))
    model = MultiModel(models=members, centroids=centroids)
    trace = [float(np.mean(multiscale.assign_rows(model, healthy)[1]))]

    raw, smoothed, proj, reg = _analyze_fleet(model, unit_rows, cfg.smoothing)
    scaler = health.fit_scaler(raw, smoothed, cfg.healthy_cycles)
    curves = [
        health.build_curve(t.unit_id, r, s, scaler)
        for t, r, s in zip(train_set, raw, smoothed)
    ]

    regressor = None
    if cfg.mode == "sst-lr":
        sigma = np.concatenate([c.sigma for c in curves])
        regressor = health.fit_hi_regression(np.vstack(proj), sigma, np.concatenate(reg))

    return TrainedPipeline(
        config=cfg,
        normalizer=norm,
        model=model,
        scaler=scaler,
        regressor=regressor,
        train_curves=curves,
        library=smoothed_library(curves, cfg.smoothing),
        error_trace=trace,
    )


def infer_curves(pipe: TrainedPipeline, tset: TrajectorySet) -> list[HiCurve]:
    """Health-index curves for a fleet under the trained pipeline, through
    the same row analysis as training.

    sst mode scales the assigned distances; sst-lr mode predicts the index
    from the subspace projections instead.
    """
    cfg = pipe.config
    if cfg.mode == "sst-lr" and pipe.regressor is None:
        raise ValidationError("sst-lr mode requires a fitted regressor")
    labels = [multiscale.nearest_centroid(pipe.model.centroids, t.settings) for t in tset]
    unit_rows = _normalized_rows(pipe.normalizer, tset, labels, cfg.track_settings)
    raw, smoothed, proj, reg = _analyze_fleet(pipe.model, unit_rows, cfg.smoothing)
    curves = []
    for traj, r, s, p, lab in zip(tset, raw, smoothed, proj, reg):
        curve = health.build_curve(traj.unit_id, r, s, pipe.scaler)
        if cfg.mode == "sst-lr":
            curve = replace(curve, sigma=health.predict_hi(pipe.regressor, p, lab))
        curves.append(curve)
    return curves


def estimate_fleet(
    pipe: TrainedPipeline,
    test_curves: list[HiCurve],
    skip_unmatched: bool = False,
) -> list[RulEstimate | None]:
    """Match each (smoothed) test curve against the pipeline's library.

    With skip_unmatched, a curve with no valid (unit, lag) candidate yields
    None instead of raising; benchmark runs keep the hard failure.
    """
    cfg = pipe.config
    match_cfg = MatchConfig(tau1=cfg.tau1, tau2=cfg.tau2, beta=cfg.beta)
    test_sigmas = health.smooth_each([c.sigma for c in test_curves], cfg.smoothing)
    estimates = []
    for curve, sigma in zip(test_curves, test_sigmas):
        smoothed = replace(curve, sigma=sigma)
        try:
            estimates.append(rul.estimate_rul(smoothed, pipe.library, match_cfg))
        except NoMatchError:
            if not skip_unmatched:
                raise
            estimates.append(None)
    return estimates


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class RulReport:
    rows: list[dict]  # unit_id, estimate, truth, error
    rmse: float
    score: float
    config: dict
    wall_time: float
    # the estimates behind the rows, kept so writers need no second match
    # pass; neither to_json nor to_text includes them
    estimates: list[RulEstimate] = field(default_factory=list, repr=False)

    def to_json(self) -> str:
        # wall_time is deliberately left out so identical runs serialize
        # byte-identically
        return json.dumps(
            {
                "version": REPORT_FORMAT_VERSION,
                "config": self.config,
                "n_units": len(self.rows),
                "rmse": self.rmse,
                "score": self.score,
                "rows": self.rows,
            },
            indent=2,
            sort_keys=True,
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
        lines.append(f"units: {len(self.rows)}")
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
    rows = []
    errors = []
    for est, truth in zip(estimates, truths):
        err = est.estimate - truth
        errors.append(err)
        rows.append(
            {
                "unit_id": est.unit_id,
                "estimate": est.estimate,
                "truth": truth,
                "error": err,
            }
        )
    return RulReport(
        rows=rows,
        rmse=rmse(errors),
        score=score(errors),
        config=cfg.to_dict(),
        wall_time=wall_time,
        estimates=list(estimates),
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


def run_pipeline(
    train_set: TrajectorySet,
    test_set: TrajectorySet,
    truths: list[int],
    cfg: RunConfig,
) -> tuple[RulReport, TrainedPipeline, list[HiCurve]]:
    """Full in-memory benchmark: train, infer, match, evaluate."""
    start = time.perf_counter()
    with stage("train"):
        pipe = train_pipeline(train_set, cfg)
    with stage("infer"):
        test_curves = infer_curves(pipe, test_set)
    with stage("match"):
        estimates = estimate_fleet(pipe, test_curves)
    with stage("evaluate"):
        report = build_report(estimates, truths, cfg, time.perf_counter() - start)
    return report, pipe, test_curves


def run_benchmark(
    train_path, test_path, rul_path, cfg: RunConfig
) -> tuple[RulReport, TrainedPipeline, list[HiCurve]]:
    """File-based benchmark entry point for CMAPSS-format datasets."""
    with stage("load"):
        train_set = dataset.load_cmapss(train_path)
        test_set = dataset.load_cmapss(test_path)
        truths = dataset.load_rul_targets(rul_path, len(test_set))
    return run_pipeline(train_set, test_set, truths, cfg)
