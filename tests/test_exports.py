"""Every curve export that a command writes, in both modes, is the table
persist.write_curves documents: a (rows, 5) float64 `.npy` array, one row
per unit and cycle of the fleet it was computed from, in unit order, whose
curve columns are the in-process curve table bit for bit. These are the
checks a reader of the old text export made of a curve file (whole ids in
ascending units, cycles 1..L, finite values), made here of each file as
train, infer and benchmark write it."""

import numpy as np
import pytest

from subtrack import fit, health, persist, pipeline
from subtrack.cli import EXIT_OK, main
from subtrack.dataset import ID_LIMIT, load_cmapss
from subtrack.health import CURVE_COLUMNS, RAW_DIST, SCALED_DIST, SIGMA

FLAGS = ["--tau2", "20"]
# the synth and run flags of each mode's fleet: sst-lr on three regimes
MODES = {"sst": (["--n-regimes", "1"], ["--mode", "sst"]),
         "sst-lr": (["--n-regimes", "3"], ["--mode", "sst-lr"])}
# each export: (its directory, its file name, whether it holds the train fleet)
EXPORTS = {
    "train": ("model", "train_curves.npy", True),
    "infer": ("infer", "hi_curves.npy", False),
    "benchmark": ("bench", "hi_curves.npy", False),
    "benchmark-train": ("bench", "hi_curves_train.npy", True),
}


@pytest.fixture(scope="module", params=MODES)
def run(request, tmp_path_factory):
    """(the mode, the output root of train, infer and benchmark on one
    fleet, {is train fleet: (that fleet, its in-process curve table)})."""
    synth_flags, run_flags = MODES[request.param]
    root = tmp_path_factory.mktemp(request.param)
    data = root / "data"
    assert main(["synth", "--out", str(data), "--units", "8", "--seed", "4",
                 "--min-cycles", "80", "--max-cycles", "100", *synth_flags]) == EXIT_OK
    train, test, rul = (
        str(data / f) for f in ("train_synth.txt", "test_synth.txt", "RUL_synth.txt")
    )
    model = str(root / "model")
    assert main(["train", "--train", train, "--out", model, *run_flags, *FLAGS]) == EXIT_OK
    assert main(["infer", "--model-dir", model, "--data", test, "--rul", rul,
                 "--out", str(root / "infer")]) == EXIT_OK
    assert main(["benchmark", "--train", train, "--test", test, "--rul", rul,
                 "--out", str(root / "bench"), *run_flags, *FLAGS]) == EXIT_OK
    train_set, test_set = load_cmapss(train), load_cmapss(test)
    pipe, train_curves = fit.train_pipeline(train_set, persist.load_pipeline(model).config)
    fleets = {True: (train_set, train_curves),
              False: (test_set, pipeline.infer_curves(pipe, test_set))}
    return request.param, root, fleets


@pytest.fixture(params=EXPORTS)
def export(request, run):
    """(the mode, an export's path, the fleet it was computed from, that
    fleet's in-process curve table)."""
    mode, root, fleets = run
    directory, name, holds_train = EXPORTS[request.param]
    return (mode, root / directory / name, *fleets[holds_train])


def table_of(export):
    return np.load(export[1], allow_pickle=False)


def test_is_an_npy_file_not_text(export):
    with open(export[1], "rb") as fh:
        assert fh.read(6) == b"\x93NUMPY"
        fh.seek(0)
        assert np.lib.format.read_magic(fh) == (1, 0)
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
    assert (shape, fortran_order, dtype) == ((len(export[2].matrix), 5), False, np.float64)


def test_loads_without_pickles_as_float64_rows_of_5(export):
    table = table_of(export)
    assert table.dtype == np.float64
    assert table.ndim == 2 and table.shape[1] == 2 + len(CURVE_COLUMNS)


def test_one_row_per_cycle_of_its_fleet(export):
    fleet = export[2]
    assert len(table_of(export)) == len(fleet.matrix) == fleet.bounds[-1]


def test_ids_are_its_fleets_units_in_order(export):
    ids, fleet = table_of(export)[:, 0], export[2]
    assert np.all(ids == np.round(ids)) and np.all(np.abs(ids) < ID_LIMIT)
    assert np.all(np.diff(ids) >= 0)  # each unit one block, units ascending
    assert np.array_equal(ids, np.repeat(fleet.unit_ids, np.diff(fleet.bounds)))


def test_cycles_run_from_1_without_gaps(export):
    table = table_of(export)
    ids, cycles = table[:, 0], table[:, 1]
    starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    assert np.all(cycles[starts] == 1)
    rest = np.setdiff1d(np.arange(len(table)), starts)
    assert np.all(cycles[rest] == cycles[rest - 1] + 1)


def test_curve_columns_equal_the_in_process_table(export):
    curves = export[3]
    assert np.array_equal(table_of(export)[:, 2:].view(np.uint64), curves.matrix.view(np.uint64))


def test_distances_finite_and_scaled_into_the_unit_interval(export):
    table = table_of(export)[:, 2:]
    raw, scaled = table[:, RAW_DIST], table[:, SCALED_DIST]
    assert np.all(np.isfinite(raw)) and np.all(raw >= 0)
    assert np.all((0 <= scaled) & (scaled <= 1))


def test_sigma_is_the_modes_health_index(export):
    table = table_of(export)[:, 2:]
    sigma, from_distance = table[:, SIGMA], health.to_health_index(table[:, SCALED_DIST])
    assert np.all(np.isfinite(sigma))
    if export[0] == "sst":
        assert np.array_equal(sigma, from_distance)
    else:  # the regressed index, smoothed: not a function of the distance
        assert not np.array_equal(sigma, from_distance)
