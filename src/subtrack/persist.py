"""On-disk formats for trained pipeline artifacts.

Everything is JSON or CSV. Floats are written with repr so reading a file
back reproduces the exact values that were written. This is the only module
that reads or writes a model directory. Its `model.json` holds the K-model
document, also for a single-regime (K=1) fleet; an older single-model
document still loads, as K=1 with a zero centroid.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .config import RunConfig
from .dataset import (
    N_SETTINGS,
    Normalizer,
    first_non_finite_line,
    read_table,
    unit_blocks,
)
from .errors import ValidationError
from .evaluation import TrainedPipeline
from .health import DistanceScaler, HiCurve, HiRegressor
from .multiscale import MultiModel
from .subspace import SubspaceModel

MODEL_FORMAT_VERSION = 1
CURVE_CSV_HEADER = "unit_id,cycle,raw_dist,scaled_dist,sigma"
CURVE_ROW_DTYPE = np.dtype(
    [("unit", np.int64), ("cycle", np.int64),
     ("raw", np.float64), ("scaled", np.float64), ("sigma", np.float64)]
)
ESTIMATE_CSV_HEADER = (
    "unit_id,estimated_rul,true_rul,error,n_candidates,sum_similarity"
)


def _check_version(doc: dict) -> None:
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise ValidationError(
            f"unsupported model format version {doc.get('version')!r}"
        )


def subspace_to_dict(model: SubspaceModel) -> dict:
    return {
        "version": MODEL_FORMAT_VERSION,
        "D": model.dim,
        "d": model.subspace_dim,
        "delta": model.delta,
        "c": model.center.tolist(),
        "lambdas": model.spreads.tolist(),
        "U1": [model.basis[:, j].tolist() for j in range(model.subspace_dim)],
    }


def subspace_from_dict(doc: dict) -> SubspaceModel:
    _check_version(doc)
    model = SubspaceModel(
        # the C layout of init_subspace's basis, so matrix products round
        # as they did before saving
        basis=np.ascontiguousarray(np.array(doc["U1"], dtype=float).T),
        center=np.array(doc["c"], dtype=float),
        spreads=np.array(doc["lambdas"], dtype=float),
        delta=float(doc["delta"]),
    )
    if model.dim != doc.get("D") or model.subspace_dim != doc.get("d"):
        raise ValidationError("model document dimensions are inconsistent")
    model.validate()
    return model


def model_to_dict(mm: MultiModel) -> dict:
    return {
        "version": MODEL_FORMAT_VERSION,
        "K": mm.n_regimes,
        "centroids": mm.centroids.tolist(),
        "models": [subspace_to_dict(m) for m in mm.models],
    }


def model_from_dict(doc: dict) -> MultiModel:
    _check_version(doc)
    if "models" not in doc:
        # single-model document written before K=1 became a K-model
        return MultiModel(
            models=[subspace_from_dict(doc)], centroids=np.zeros((1, N_SETTINGS))
        )
    mm = MultiModel(
        models=[subspace_from_dict(m) for m in doc["models"]],
        centroids=np.array(doc["centroids"], dtype=float),
    )
    if doc.get("K") != mm.n_regimes:
        raise ValidationError("model count does not match K")
    mm.validate()
    return mm


def normalizer_to_dict(norm: Normalizer) -> dict:
    return {
        "mean": norm.mean.tolist(),
        "std": norm.std.tolist(),
        "mask": norm.mask.astype(int).tolist(),
    }


def normalizer_from_dict(doc: dict) -> Normalizer:
    return Normalizer(
        mean=np.array(doc["mean"], dtype=float),
        std=np.array(doc["std"], dtype=float),
        mask=np.array(doc["mask"], dtype=bool),
    )


def scaler_to_dict(scaler: DistanceScaler) -> dict:
    return {"floor": scaler.floor, "ceiling": scaler.ceiling}


def scaler_from_dict(doc: dict) -> DistanceScaler:
    return DistanceScaler(floor=float(doc["floor"]), ceiling=float(doc["ceiling"]))


def regressor_to_dict(reg: HiRegressor) -> dict:
    return {"weights": reg.weights.tolist()}


def regressor_from_dict(doc: dict) -> HiRegressor:
    return HiRegressor(weights=np.array(doc["weights"], dtype=float))


def write_curves_csv(curves: list[HiCurve], path: str | Path) -> None:
    lines = [CURVE_CSV_HEADER]
    for c in curves:
        for i in range(len(c)):
            lines.append(
                f"{c.unit_id},{i + 1},{float(c.raw_dist[i])!r},"
                f"{float(c.scaled_dist[i])!r},{float(c.sigma[i])!r}"
            )
    Path(path).write_text("\n".join(lines) + "\n")


def read_curves_csv(path: str | Path) -> list[HiCurve]:
    """Curves in unit order, each unit's rows in cycle order.

    Raises ValidationError naming the file and line on a malformed row or a
    non-finite value, and naming the unit when its cycles are not 1..L. As in
    dataset.load_cmapss, one numpy call parses the file, and the line parser
    decides whenever that parse or a check on its result fails.
    """
    curves = _read_curves_bulk(path)
    return curves if curves is not None else _read_curves_lines(path)


def _read_curves_bulk(path: str | Path) -> list[HiCurve] | None:
    """The curves from one numpy parse, or None when the line parser must
    decide. The id columns parse as integers, so numpy takes no id that
    int() rejects, such as 1.0."""
    with open(path) as fh:
        if fh.readline().rstrip("\n") != CURVE_CSV_HEADER:
            return None
        table = read_table(fh, delimiter=",", dtype=CURVE_ROW_DTYPE, ndmin=1)
    if table is None:
        return None
    blocks = unit_blocks(table["unit"], table["cycle"])
    if blocks is None:
        return None
    order, bounds = blocks
    raw, scaled, sigma = (table[name][order] for name in ("raw", "scaled", "sigma"))
    if not all(np.isfinite(a).all() for a in (raw, scaled, sigma)):
        return None
    return [
        HiCurve(
            unit_id=unit, sigma=sigma[a:b], raw_dist=raw[a:b], scaled_dist=scaled[a:b]
        )
        for unit, a, b in bounds
    ]


def _read_curves_lines(path: str | Path) -> list[HiCurve]:
    """Line-by-line parse; the reference for what read_curves_csv accepts
    and for every message it raises."""
    by_unit: dict[int, list[tuple[int, float, float, float]]] = {}
    with open(path) as fh:
        if fh.readline().rstrip("\n") != CURVE_CSV_HEADER:
            raise ValidationError(f"{path}: not a health-index curve CSV")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                unit, cycle, raw, scaled, sigma = line.split(",")
                by_unit.setdefault(int(unit), []).append(
                    (int(cycle), float(raw), float(scaled), float(sigma))
                )
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    curves = []
    for unit in sorted(by_unit):
        rows = sorted(by_unit[unit], key=lambda r: r[0])
        if [r[0] for r in rows] != list(range(1, len(rows) + 1)):
            raise ValidationError(
                f"{path}: unit {unit} has non-contiguous cycle indices"
            )
        raw, scaled, sigma = (np.array([r[k] for r in rows]) for k in (1, 2, 3))
        if not all(np.isfinite(a).all() for a in (raw, scaled, sigma)):
            with open(path) as fh:
                next(fh)
                lineno = first_non_finite_line(fh, ",", start=2)
            raise ValidationError(f"{path}:{lineno}: non-finite value (nan or inf)")
        curves.append(
            HiCurve(unit_id=unit, sigma=sigma, raw_dist=raw, scaled_dist=scaled)
        )
    return curves


def write_estimates_csv(estimates, truths, path: str | Path, unit_ids=None) -> None:
    """truths may be None when ground truth is unavailable; a None estimate
    (no valid match for that unit) writes an empty row."""
    lines = [ESTIMATE_CSV_HEADER]
    for i, est in enumerate(estimates):
        truth = truths[i] if truths is not None else ""
        if est is None:
            unit = unit_ids[i] if unit_ids is not None else ""
            lines.append(f"{unit},,{truth},,0,0.0")
            continue
        err = repr(float(est.estimate - truths[i])) if truths is not None else ""
        lines.append(
            f"{est.unit_id},{float(est.estimate)!r},{truth},{err},"
            f"{len(est.candidates)},{float(est.sum_similarity)!r}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def save_pipeline(pipe: TrainedPipeline, out: str | Path) -> None:
    """Write every artifact of a trained pipeline into the directory out."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "model.json").write_text(json.dumps(model_to_dict(pipe.model)))
    (out / "scaler.json").write_text(json.dumps(scaler_to_dict(pipe.scaler)))
    (out / "normalizer.json").write_text(json.dumps(normalizer_to_dict(pipe.normalizer)))
    if pipe.regressor is not None:
        (out / "regressor.json").write_text(json.dumps(regressor_to_dict(pipe.regressor)))
    (out / "config.json").write_text(
        json.dumps(pipe.config.to_dict(), indent=2, sort_keys=True)
    )
    write_curves_csv(pipe.train_curves, out / "train_curves.csv")
    trace_lines = ["epoch,mean_dist"] + [
        f"{i},{v!r}" for i, v in enumerate(pipe.error_trace)
    ]
    (out / "error_trace.csv").write_text("\n".join(trace_lines) + "\n")


def _read_json(path: Path, from_dict):
    """Parse one JSON artifact; malformed content of any kind becomes a
    ValidationError that names the file."""
    try:
        return from_dict(json.loads(path.read_text()))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    except (ValueError, TypeError, KeyError, IndexError, AttributeError) as exc:
        raise ValidationError(f"{path}: malformed artifact: {exc!r}") from exc


def load_pipeline(model_dir: str | Path) -> TrainedPipeline:
    """Read the artifacts save_pipeline wrote; the error trace is not kept."""
    model_dir = Path(model_dir)
    for name in ("config.json", "model.json", "scaler.json", "normalizer.json"):
        if not (model_dir / name).exists():
            raise ValidationError(f"missing artifact {model_dir / name}")
    reg_path = model_dir / "regressor.json"
    return TrainedPipeline(
        config=_read_json(model_dir / "config.json", RunConfig.from_dict),
        normalizer=_read_json(model_dir / "normalizer.json", normalizer_from_dict),
        model=_read_json(model_dir / "model.json", model_from_dict),
        scaler=_read_json(model_dir / "scaler.json", scaler_from_dict),
        regressor=(
            _read_json(reg_path, regressor_from_dict) if reg_path.exists() else None
        ),
        train_curves=read_curves_csv(model_dir / "train_curves.csv"),
        error_trace=[],
    )
