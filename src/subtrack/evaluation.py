"""Performance metrics and the end-to-end benchmark run.

RMSE and the asymmetric exponential score penalize late failure detection
(overestimated RUL) more than early detection. `run_benchmark` wires dataset
ingestion, training (`fit`), scoring (`pipeline`) and these metrics into a
single reproducible run; only `benchmark` imports this module.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from . import dataset, fit, pipeline
from .config import RunConfig
from .dataset import TrajectorySet
from .errors import NumericalError, ValidationError
from .pipeline import TrainedPipeline
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


def _score(
    pipe: TrainedPipeline, test_set: TrajectorySet, truths: list[int], start: float
) -> tuple[RulReport, TrajectorySet]:
    """Infer, match and evaluate a test fleet under a trained pipeline: the
    report, timed from the perf_counter value start, and the test curves."""
    with fit.stage("infer"):
        test_curves = pipeline.infer_curves(pipe, test_set)
    with fit.stage("match"):
        estimates = pipeline.estimate_fleet(pipe, test_curves)
    with fit.stage("evaluate"):
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
    with fit.stage("train"):
        pipe, train_curves = fit.train_pipeline(train_set, cfg)
    report, test_curves = _score(pipe, test_set, truths, start)
    return report, pipe, train_curves, test_curves


def run_benchmark(
    train_path, test_path, rul_path, cfg: RunConfig
) -> tuple[RulReport, TrainedPipeline, TrajectorySet, TrajectorySet]:
    """File-based `run_pipeline` for CMAPSS-format datasets, holding one
    fleet table at a time: the training table is dropped after training,
    before the test and RUL files are parsed. Both are opened first, so an
    unreadable path fails before training; the wall time spans their parse."""
    with fit.stage("load"):
        train_set = dataset.load_cmapss(train_path)
    for path in (test_path, rul_path):
        open(path).close()
    start = time.perf_counter()
    with fit.stage("train"):
        fitted = fit.fit_rows(train_set, cfg)
        del train_set  # the library is prepared beside the curve table alone
        pipe, train_curves = fit.fit_library(*fitted)
    with fit.stage("load"):
        test_set = dataset.load_cmapss(test_path)
        truths = dataset.load_rul_targets(rul_path, len(test_set))
    report, test_curves = _score(pipe, test_set, truths, start)
    return report, pipe, train_curves, test_curves
