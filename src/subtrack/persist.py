"""On-disk formats for trained pipeline artifacts.

Documents are JSON and curves and estimates CSV, with floats written with
repr so reading a file back reproduces the exact values that were written.
The matching library is stored as binary `.npy` arrays (LIBRARY_FILES),
written with np.save and read with np.load(allow_pickle=False). This is the
only module that reads or writes a model directory.

Its `model.json` holds the K-model document, also for a single-regime (K=1)
fleet, and carries the directory's format version, MODEL_FORMAT_VERSION.
Matching reads the stored library and never opens `train_curves.csv`, which
stays as the human-readable export. Curves are unit tables like the CMAPSS
fleets, a TrajectorySet in memory, written and parsed by
dataset.write_unit_rows and read_unit_rows; read_curves_csv, which no
command calls, reads one back. save_pipeline writes that export and
`error_trace.csv` from the training curve table it is given, apart from the
pipeline, so load_pipeline returns the saved pipeline field for field.
A directory of any other version is refused; one of version 1 (library only
in `train_curves.csv`), 2 (library smoothed twice, in sst-lr mode of the
distance index) or 3 (an sst-lr regressor of the d subspace projections,
where version 4 regresses the whole tracked row) with a message to retrain.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .config import RunConfig
from .dataset import (
    N_SETTINGS, Normalizer, TrajectorySet, decoding, read_unit_rows, write_unit_rows,
)
from .errors import NumericalError, ValidationError
from .evaluation import TrainedPipeline
from .health import CURVE_COLUMNS, RAW_DIST, DistanceScaler
from .multiscale import MultiModel
from .rul import Library
from .subspace import SubspaceModel

MODEL_FORMAT_VERSION = 4
# Library field -> (file, dtype, ndim)
LIBRARY_FILES = {
    "padded": ("library_sigma.npy", np.dtype("<f8"), 2),
    "unit_ids": ("library_unit_ids.npy", np.dtype("<i8"), 1),
    "lengths": ("library_lengths.npy", np.dtype("<i8"), 1),
}
CURVE_CSV_HEADER = ",".join(("unit_id", "cycle", *CURVE_COLUMNS))
ESTIMATE_CSV_HEADER = (
    "unit_id,estimated_rul,true_rul,error,n_candidates,sum_similarity"
)


def _check_version(doc: dict) -> None:
    """Accept exactly the int MODEL_FORMAT_VERSION: not True, 4.0 or "4"."""
    version = doc.get("version")
    if type(version) is int and version == MODEL_FORMAT_VERSION:
        return
    if type(version) is int and version in (1, 2, 3):
        raise ValidationError(
            f"model format version {version} is no longer read; retrain with 'subtrack train'"
        )
    raise ValidationError(f"unsupported model format version {version!r}")


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


def regressor_to_dict(weights: np.ndarray) -> dict:
    return {"weights": weights.tolist()}


def regressor_from_dict(doc: dict) -> np.ndarray:
    return np.array(doc["weights"], dtype=float)


def write_curves_csv(curves: TrajectorySet, path: str | Path) -> None:
    """The header, then each unit's rows of the curve table; values round-trip exactly."""
    with open(path, "w") as fh:
        fh.write(CURVE_CSV_HEADER + "\n")
        write_unit_rows(fh, curves, ",")


def read_curves_csv(path: str | Path) -> TrajectorySet:
    """The curve table of a `train_curves.csv` export, in unit order. Raises
    ValidationError naming the file when its first line is not the header,
    and what the CMAPSS line parser raises on the rows that follow."""
    with open(path) as fh, decoding(path):
        if fh.readline().rstrip("\n") != CURVE_CSV_HEADER:
            raise ValidationError(f"{path}: not a health-index curve CSV")
        return TrajectorySet.stack(*read_unit_rows(path, fh, 5, ",", start=2))


def write_estimates_csv(estimates, truths, path: str | Path, unit_ids) -> None:
    """One row per unit id and estimate; truths may be None when ground truth
    is unavailable. A None estimate (no valid match) writes an empty row."""
    lines = [ESTIMATE_CSV_HEADER]
    for i, (unit, est) in enumerate(zip(unit_ids, estimates)):
        truth = truths[i] if truths is not None else ""
        if est is None:
            lines.append(f"{unit},,{truth},,0,0.0")
            continue
        err = repr(float(est.estimate - truths[i])) if truths is not None else ""
        lines.append(
            f"{unit},{float(est.estimate)!r},{truth},{err},"
            f"{est.n_candidates},{float(est.sum_similarity)!r}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def save_pipeline(pipe: TrainedPipeline, curves: TrajectorySet, out: str | Path) -> None:
    """Write every artifact of a trained pipeline into the directory out, with
    its training curve table as the `train_curves.csv` and `error_trace.csv`
    exports (the trace is one row, the mean raw distance of the healthy
    cycles; one that overflows raises NumericalError before any file is written)."""
    healthy = np.concatenate([rows[: pipe.config.healthy_cycles, RAW_DIST] for rows in curves])
    with np.errstate(over="ignore"):  # a sum of huge distances; raises below
        mean_dist = float(np.mean(healthy))
    if not np.isfinite(mean_dist):
        raise NumericalError("mean healthy distance overflows")
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
    write_curves_csv(curves, out / "train_curves.csv")
    for field, (name, _, _) in LIBRARY_FILES.items():
        np.save(out / name, getattr(pipe.library, field), allow_pickle=False)
    (out / "error_trace.csv").write_text(f"epoch,mean_dist\n0,{mean_dist!r}\n")


def _read_json(path: Path, from_dict):
    """Parse one JSON artifact; a missing file or malformed content of any
    kind becomes a ValidationError that names the file."""
    try:
        return from_dict(json.loads(path.read_text()))
    except FileNotFoundError:
        raise ValidationError(f"missing artifact {path}") from None
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    except (ValueError, TypeError, KeyError, IndexError, AttributeError) as exc:
        raise ValidationError(f"{path}: malformed artifact: {exc!r}") from exc


def _check_health_range(path: Path, unit_ids, sigma: np.ndarray) -> None:
    """Reject a (n_units, n_cycles) health index outside [0, 1], nan
    included, before any arithmetic on it can overflow."""
    inside = (sigma >= 0.0) & (sigma <= 1.0)
    if not inside.all():
        row, col = np.unravel_index(np.argmin(inside), inside.shape)
        raise ValidationError(
            f"{path}: unit {unit_ids[row]}, cycle {col + 1}: health index "
            f"{float(sigma[row, col])!r} outside [0, 1]"
        )


def read_npy(path: Path, dtype: np.dtype, ndim: int) -> np.ndarray:
    """One array written by np.save, never unpickled. Raises ValidationError
    naming the file when it is missing, truncated or not an ndim-d dtype
    array."""
    try:
        array = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise ValidationError(f"missing artifact {path}") from None
    except (ValueError, OSError, EOFError) as exc:
        raise ValidationError(f"{path}: malformed artifact: {exc}") from exc
    if not isinstance(array, np.ndarray):  # an .npz archive
        array.close()
        raise ValidationError(f"{path}: malformed artifact: not a .npy array")
    if array.dtype != dtype or array.ndim != ndim:
        raise ValidationError(
            f"{path}: expected a {ndim}-d {dtype} array, "
            f"got a {array.ndim}-d {array.dtype} one"
        )
    return array


def _load_library(model_dir: Path) -> Library:
    """The directory's library from its stored arrays."""
    paths = {field: model_dir / name for field, (name, _, _) in LIBRARY_FILES.items()}
    arrays = {
        field: read_npy(paths[field], dtype, ndim)
        for field, (_, dtype, ndim) in LIBRARY_FILES.items()
    }
    padded, unit_ids, lengths = arrays["padded"], arrays["unit_ids"], arrays["lengths"]
    n_train, width = padded.shape
    for field in ("unit_ids", "lengths"):
        if len(arrays[field]) != n_train:
            raise ValidationError(
                f"{paths[field]}: {len(arrays[field])} entries for {n_train} curves"
            )
    if not (unit_ids[1:] > unit_ids[:-1]).all():
        raise ValidationError(f"{paths['unit_ids']}: unit ids are not strictly increasing")
    if not ((lengths >= 1) & (lengths <= width)).all():
        raise ValidationError(
            f"{paths['lengths']}: curve lengths must lie in [1, {width}], "
            "the width of the padded curves"
        )
    _check_health_range(paths["padded"], unit_ids, padded)
    return Library.from_padded(unit_ids, lengths, padded)


def _check_table(path: Path, name: str, table: np.ndarray, shape: tuple, positive=False):
    """Refuse a fitted table that is not finite (and > 0, if positive) or not of shape."""
    if table.shape != shape:
        raise ValidationError(f"{path}: {name} has shape {table.shape}, expected {shape}")
    if not (np.isfinite(table) & (table > 0 if positive else True)).all():
        raise ValidationError(f"{path}: {name} must be finite{' and > 0' * positive}")


def _check_config(path: Path, config: RunConfig, model: MultiModel) -> None:
    """Refuse a config.json that does not describe the model it was saved
    with: K regimes, and every member's subspace dimension and delta."""
    fitted = [("n_regimes", model.n_regimes)]
    for member in model.models:
        fitted += [("subspace_dim", member.subspace_dim), ("delta", member.delta)]
    for name, value in fitted:
        if getattr(config, name) != value:
            raise ValidationError(
                f"{path}: {name} {getattr(config, name)!r} does not match {value!r} in model.json"
            )


def load_pipeline(model_dir: str | Path) -> TrainedPipeline:
    """The pipeline save_pipeline wrote, its tables checked against model.json.
    The curve exports are not read: matching needs only the library."""
    model_dir = Path(model_dir)
    config = _read_json(model_dir / "config.json", RunConfig.from_dict)
    # read before the library files: an old directory gets the version
    # message, not a missing .npy
    model = _read_json(model_dir / "model.json", model_from_dict)
    k, m = model.n_regimes, model.models[0]
    _check_config(model_dir / "config.json", config, model)
    _check_table(model_dir / "model.json", "centroids", model.centroids, (k, N_SETTINGS))
    norm_path, reg_path = model_dir / "normalizer.json", model_dir / "regressor.json"
    normalizer = _read_json(norm_path, normalizer_from_dict)
    shape = (k, m.dim + (0 if config.track_settings else N_SETTINGS))
    for name in ("mean", "std", "mask"):
        _check_table(norm_path, name, getattr(normalizer, name), shape, name == "std")
    regressor = None
    if config.mode == "sst-lr":  # only an sst-lr directory holds a regressor
        regressor = _read_json(reg_path, regressor_from_dict)
        _check_table(reg_path, "weights", regressor, (k, m.dim + 1))
    return TrainedPipeline(
        config=config,
        normalizer=normalizer,
        model=model,
        scaler=_read_json(model_dir / "scaler.json", scaler_from_dict),
        regressor=regressor,
        library=_load_library(model_dir),
    )
