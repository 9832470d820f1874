"""On-disk formats for trained pipeline artifacts.

Documents are JSON and estimates CSV, floats written with repr, and arrays
`.npy` (np.save, read with np.load(allow_pickle=False)), so reading a file
back reproduces the exact values written. This is the only module that
reads or writes a model directory: one document, MODEL_FILE, one array,
SIGMA_FILE, and one export. It is also the only one that calls np.save and
np.load: the parse cache of `dataset.load_cmapss` (`dataset.CACHE_DIR`) reads
its entries with read_npy and writes them with write_npy.

The document (model_document, read_model_document) holds the whole fitted
pipeline but the library's curves: its format version, the run config, the
regime centroids over the N_SETTINGS settings, one member {c, lambdas, U1}
per regime, delta, the normalizer, the scaler, the sst-lr regressor (null in
sst mode) and the library's unit ids and curve lengths. The normalizer,
members and regressor span the N_SENSORS tracked columns; the member count
fixes K (1 to `multiscale.MAX_REGIMES`) and the first member's basis every
member's d; delta, which training reads from the healthy spectrum
(`fit.noise_variance`), weights the distances of every member.
The library's zero-padded curves are a float64 `.npy` array. Matching reads
the stored library and never opens `train_curves.npy`, the export of the
training curve table that save_pipeline is given beside the pipeline,
written by write_curves like every curve export. A directory of any other
version than MODEL_FORMAT_VERSION is refused; one of version 1 (library
only in a `train_curves.csv`), 2 (library smoothed twice), 3 (an sst-lr
regressor of the d subspace projections), 4 (the pipeline spread over five
documents and three arrays), 5 (settings tracked at K=1), 6 (delta a
config field, set by hand) or 7 (the healthy window and smoothing factor
config fields) with a message to retrain.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .config import RunConfig
from .dataset import ID_LIMIT, N_SENSORS, N_SETTINGS, Normalizer, TrajectorySet
from .errors import ValidationError
from .pipeline import TrainedPipeline
from .health import CURVE_COLUMNS, DistanceScaler
from .multiscale import MAX_REGIMES, MultiModel
from .rul import Library
from .subspace import SubspaceModel

MODEL_FORMAT_VERSION = 8
MODEL_FILE = "model.json"
SIGMA_FILE = "library_sigma.npy"  # float64, (n_train, longest curve)
ESTIMATE_CSV_HEADER = (
    "unit_id,estimated_rul,true_rul,error,n_candidates,sum_similarity"
)
# the JSON entries a document table of each kind takes, and what they must be
_ENTRIES = {
    float: (lambda v: type(v) in (int, float), "numbers"),
    int: (lambda v: type(v) is int and abs(v) < ID_LIMIT, "integers of magnitude below 2**53"),
    bool: (lambda v: type(v) is int and v in (0, 1), "0s and 1s"),
}


def _check_version(doc: dict) -> None:
    """Accept exactly the int MODEL_FORMAT_VERSION: not True, 8.0 or "8"."""
    version = doc.get("version")
    if type(version) is int and version == MODEL_FORMAT_VERSION:
        return
    if type(version) is int and 1 <= version < MODEL_FORMAT_VERSION:
        raise ValidationError(
            f"model format version {version} is no longer read; retrain with 'subtrack train'"
        )
    raise ValidationError(f"unsupported model format version {version!r}")


def model_document(pipe: TrainedPipeline) -> dict:
    """The MODEL_FILE document of a pipeline: everything but its library's curves."""
    norm = pipe.normalizer
    return {
        "version": MODEL_FORMAT_VERSION,
        "config": pipe.config.to_dict(),
        "centroids": pipe.model.centroids.tolist(),
        "members": [
            {"c": m.center.tolist(), "lambdas": m.spreads.tolist(), "U1": m.basis.T.tolist()}
            for m in pipe.model.models
        ],
        "delta": pipe.model.delta,
        "normalizer": {
            "mean": norm.mean.tolist(), "std": norm.std.tolist(),
            "mask": norm.mask.astype(int).tolist(),
        },
        "scaler": {"floor": pipe.scaler.floor, "ceiling": pipe.scaler.ceiling},
        "regressor": None if pipe.regressor is None else pipe.regressor.tolist(),
        "library": {
            "unit_ids": pipe.library.unit_ids.tolist(),
            "lengths": pipe.library.lengths.tolist(),
        },
    }


def _table(value, name: str, shape: tuple, kind=float, positive=False) -> np.ndarray:
    """value as an array of kind, refused unless it has shape and every entry
    is a JSON value of kind (and, for numbers, finite, and > 0 if positive)."""
    table = np.array(value, dtype=object)
    if table.shape != shape:
        raise ValidationError(f"{name} has shape {table.shape}, expected {shape}")
    accepts, what = _ENTRIES[kind]
    if not all(map(accepts, table.flat)):
        raise ValidationError(f"{name} must hold only {what}")
    table = table.astype(np.int64 if kind is int else kind)
    if kind is float and not (np.isfinite(table) & (table > 0 if positive else True)).all():
        raise ValidationError(f"{name} must be finite{' and > 0' * positive}")
    return table


def read_model_document(doc: dict) -> dict:
    """The TrainedPipeline fields of a model_document, with the library's
    `unit_ids` and `lengths` in place of the library. Every table is checked against
    the shape the member count, config and first basis give; raises ValidationError."""
    _check_version(doc)
    config = RunConfig.from_dict(doc["config"])
    k = len(doc["members"])  # K: one member per regime
    if k == 0:
        raise ValidationError("members is empty: a model holds one member per regime")
    if k > MAX_REGIMES:  # the settings read no more; a one-byte regime label holds K
        raise ValidationError(
            f"members holds {k} entries: a model holds at most MAX_REGIMES = {MAX_REGIMES}"
        )
    d = len(doc["members"][0]["U1"])
    members = [
        SubspaceModel(
            # the C layout of fit_spectrum's basis, so matrix products round
            # as they did before saving
            basis=np.ascontiguousarray(_table(m["U1"], f"members[{i}].U1", (d, N_SENSORS)).T),
            center=_table(m["c"], f"members[{i}].c", (N_SENSORS,)),
            spreads=_table(m["lambdas"], f"members[{i}].lambdas", (d,)),
        )
        for i, m in enumerate(doc["members"])
    ]
    centroids = _table(doc["centroids"], "centroids", (k, N_SETTINGS))
    model = MultiModel(members, centroids, float(_table(doc["delta"], "delta", (), positive=True)))
    model.validate()
    norm, scaler, library = doc["normalizer"], doc["scaler"], doc["library"]
    n_train = len(library["unit_ids"])
    unit_ids = _table(library["unit_ids"], "library.unit_ids", (n_train,), int)
    if not (unit_ids[1:] > unit_ids[:-1]).all():
        raise ValidationError("library.unit_ids are not strictly increasing")
    return {
        "config": config,
        "normalizer": Normalizer(
            mean=_table(norm["mean"], "normalizer.mean", (k, N_SENSORS)),
            std=_table(norm["std"], "normalizer.std", (k, N_SENSORS), positive=True),
            mask=_table(norm["mask"], "normalizer.mask", (k, N_SENSORS), bool),
        ),
        "model": model,
        "scaler": DistanceScaler(
            floor=float(_table(scaler["floor"], "scaler.floor", ())),
            ceiling=float(_table(scaler["ceiling"], "scaler.ceiling", ())),
        ),
        # only an sst-lr model holds a regressor
        "regressor": _table(doc["regressor"], "regressor", (k, N_SENSORS + 1))
        if config.mode == "sst-lr" else None,
        "unit_ids": unit_ids,
        "lengths": _table(library["lengths"], "library.lengths", (n_train,), int),
    }


def write_curves(curves: TrajectorySet, path: str | Path) -> None:
    """The curve table as one (rows, 5) float64 `.npy` array, one row per
    unit and cycle in unit order: unit_id, cycle, then the CURVE_COLUMNS.
    Ids and cycles are exact below ID_LIMIT, and every curve value is the
    table's, bit for bit. The bytes are np.save's of that table, written one
    unit at a time from a buffer of the longest unit, so no fleet-sized
    table is built."""
    bounds, width = curves.bounds, 2 + len(CURVE_COLUMNS)
    buf = np.empty((max(np.diff(bounds), default=0), width))
    buf[:, 1] = np.arange(1, len(buf) + 1)  # every unit's cycles count from 1
    descr = np.lib.format.dtype_to_descr(buf.dtype)
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(
            fh, {"descr": descr, "fortran_order": False, "shape": (len(curves.matrix), width)}
        )
        for unit, a, b in zip(curves.unit_ids, bounds, bounds[1:]):
            block = buf[: b - a]
            block[:, 0] = unit
            block[:, 2:] = curves.matrix[a:b]
            fh.write(block)


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
    its training curve table as the `train_curves.npy` export."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    (out / MODEL_FILE).write_text(json.dumps(model_document(pipe)))
    write_curves(curves, out / "train_curves.npy")
    np.save(out / SIGMA_FILE, pipe.library.padded, allow_pickle=False)


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


def write_npy(fh, array: np.ndarray) -> None:
    """array as np.save writes it, never pickled, to an open binary file."""
    np.save(fh, array, allow_pickle=False)


def load_pipeline(model_dir: str | Path) -> TrainedPipeline:
    """The pipeline save_pipeline wrote. MODEL_FILE is parsed and checked
    before SIGMA_FILE is looked for, so an old directory gets the version
    message; each error names the file at fault. The curve exports are not
    read: matching needs only the library."""
    path = Path(model_dir) / MODEL_FILE
    try:
        fields = read_model_document(json.loads(path.read_text()))
    except FileNotFoundError:
        raise ValidationError(f"missing artifact {path}") from None
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    except (ValueError, TypeError, KeyError, IndexError, AttributeError, OverflowError) as exc:
        raise ValidationError(f"{path}: malformed artifact: {exc!r}") from exc
    unit_ids, lengths = fields.pop("unit_ids"), fields.pop("lengths")
    sigma_path = path.with_name(SIGMA_FILE)
    sigma = read_npy(sigma_path, np.dtype("<f8"), 2)
    n_train, width = sigma.shape
    if n_train != len(unit_ids):
        raise ValidationError(
            f"{sigma_path}: {n_train} curves for the {len(unit_ids)} library units of {path}"
        )
    if not ((lengths >= 1) & (lengths <= width)).all():
        raise ValidationError(
            f"{path}: library.lengths must lie in [1, {width}], the width of {SIGMA_FILE}"
        )
    _check_health_range(sigma_path, unit_ids, sigma)
    return TrainedPipeline(**fields, library=Library.from_padded(unit_ids, lengths, sigma))
