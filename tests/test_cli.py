import gc
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import subtrack
from subtrack import fit, persist, pipeline, rul
from subtrack.cli import (
    EXIT_DATA,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    _build_config,
    build_parser,
    main,
)
from subtrack.config import RETIRED_FIELDS, RunConfig
from subtrack.dataset import N_SENSORS, N_SETTINGS, TrajectorySet, load_cmapss
from subtrack.errors import ValidationError
from subtrack.fit import cluster_regimes
from subtrack.multiscale import nearest_centroid
from subtrack.synthetic import SynthConfig, generate_synthetic, save_cmapss


def run_fresh_interpreter(*args, path=()):
    """Run `python args` in a new interpreter that imports subtrack from this
    tree (after the directories in path) and, like the suite, turns a
    RuntimeWarning into an error."""
    src = str(Path(subtrack.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        str(p) for p in (*path, src, os.environ.get("PYTHONPATH")) if p
    ))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args],
        env=env, capture_output=True, text=True,
    )


def train_in_fresh_interpreter(data, out, *flags):
    """`subtrack train` with flags in a new interpreter, where a numpy
    RuntimeWarning is an error."""
    argv = ["train", "--train", str(data), "--out", str(out), *flags]
    return run_fresh_interpreter(
        "-c", f"import sys; from subtrack.cli import main; sys.exit(main({argv!r}))"
    )


def add_n_regimes(doc):
    """The model document as train wrote it while K was the config field
    n_regimes, second after mode."""
    config = doc["config"]
    doc["config"] = {"mode": config.pop("mode"), "n_regimes": len(doc["members"]), **config}


def poison_line(path, lineno):
    """Replace the last field of a 1-based line with nan."""
    lines = path.read_text().splitlines()
    fields_ = lines[lineno - 1].split()
    fields_[-1] = "nan"
    lines[lineno - 1] = " ".join(fields_)
    path.write_text("\n".join(lines) + "\n")


def warned_units(err, condition):
    """Unit ids on the one stderr warning line about condition."""
    lines = [line for line in err.splitlines() if condition in line]
    assert len(lines) == 1, err
    return [int(u) for u in lines[0].rsplit(":", 1)[1].split(",")]


def estimate_rows(out):
    """rul_estimates.csv rows as dicts."""
    header, *rows = (out / "rul_estimates.csv").read_text().splitlines()
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    rc = main(
        [
            "synth", "--out", str(out), "--units", "10", "--seed", "3",
            "--min-cycles", "70", "--max-cycles", "100",
            "--drift-rate", "0.03",
        ]
    )
    assert rc == EXIT_OK
    return out


BENCH_FLAGS = ["--tau2", "20"]
RETRAIN = "model format version {} is no longer read; retrain with 'subtrack train'"
# everything train writes: the model document, the library's curves and the export
MODEL_DIR_FILES = {"model.json", "library_sigma.npy", "train_curves.npy"}


def model_doc(model):
    """The model.json document of a model directory."""
    return json.loads((model / "model.json").read_text())


def edit_model_doc(model, edit):
    """Rewrite model.json with edit applied to its document."""
    doc = model_doc(model)
    edit(doc)
    (model / "model.json").write_text(json.dumps(doc))


class TestSynth:
    def test_files_written(self, synth_dir):
        assert (synth_dir / "train_synth.txt").exists()
        assert (synth_dir / "test_synth.txt").exists()
        truth = (synth_dir / "RUL_synth.txt").read_text().split()
        assert len(truth) == 10

    def test_deterministic(self, synth_dir, tmp_path):
        rc = main(
            [
                "synth", "--out", str(tmp_path), "--units", "10", "--seed", "3",
                "--min-cycles", "70", "--max-cycles", "100",
                "--drift-rate", "0.03",
            ]
        )
        assert rc == EXIT_OK
        assert (tmp_path / "train_synth.txt").read_bytes() == (
            synth_dir / "train_synth.txt"
        ).read_bytes()

    @pytest.mark.parametrize("flag", ["--n-regimes", "--subspace-dim"])
    def test_zero_count_exits_2(self, tmp_path, capsys, flag):
        rc = main(["synth", "--out", str(tmp_path / "out"), "--units", "3", flag, "0"])
        assert rc == EXIT_DATA
        assert "must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize(
        "flag, value", [("--noise-std", "nan"), ("--drift-rate", "inf")]
    )
    def test_non_finite_knob_exits_2(self, tmp_path, capsys, flag, value):
        rc = main(["synth", "--out", str(tmp_path / "out"), "--units", "3", flag, value])
        assert rc == EXIT_DATA
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestTrain:
    def test_writes_model_and_scaler(self, synth_dir, tmp_path):
        out = tmp_path / "model"
        rc = main(
            ["train", "--train", str(synth_dir / "train_synth.txt"),
             "--out", str(out)] + BENCH_FLAGS
        )
        assert rc == EXIT_OK
        assert {p.name for p in out.iterdir()} == MODEL_DIR_FILES
        doc = model_doc(out)
        assert doc["version"] == persist.MODEL_FORMAT_VERSION == 6
        assert doc["regressor"] is None

    def test_summary_names_the_subspace_dimension_it_read(self, synth_dir, tmp_path, capsys):
        # the generator's d = 3, read from the healthy spectrum: no flag sets it
        out = tmp_path / "model"
        assert main(["train", "--train", str(synth_dir / "train_synth.txt"),
                     "--out", str(out)] + BENCH_FLAGS) == EXIT_OK
        assert capsys.readouterr().out == (
            f"trained on 10 units, 1 regimes, subspace dim 3 -> {out}\n")
        doc = model_doc(out)
        assert "subspace_dim" not in doc["config"]
        assert [np.shape(m["U1"]) for m in doc["members"]] == [(3, N_SENSORS)]

    def test_sst_lr_writes_regressor(self, synth_dir, tmp_path):
        out = tmp_path / "model"
        rc = main(
            ["train", "--train", str(synth_dir / "train_synth.txt"),
             "--out", str(out), "--mode", "sst-lr"] + BENCH_FLAGS
        )
        assert rc == EXIT_OK
        assert {p.name for p in out.iterdir()} == MODEL_DIR_FILES
        # the sensors are the tracked columns at K=1 too: (K, D+1) weights
        assert np.shape(model_doc(out)["regressor"]) == (1, N_SENSORS + 1)

    def test_missing_input_no_partial_files(self, tmp_path):
        out = tmp_path / "model"
        rc = main(["train", "--train", str(tmp_path / "nope.txt"),
                   "--out", str(out)])
        assert rc == EXIT_DATA
        assert not out.exists()

    def test_config_file_with_flag_override(self, synth_dir, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"tau1": 2, "tau2": 25}))
        out = tmp_path / "model"
        rc = main(
            ["train", "--train", str(synth_dir / "train_synth.txt"),
             "--out", str(out), "--config", str(cfg_file), "--tau2", "30"]
        )
        assert rc == EXIT_OK
        saved = model_doc(out)["config"]
        assert saved["tau1"] == 2  # from file
        assert saved["tau2"] == 30  # flag wins

    def test_settings_at_1e160_train_with_finite_outputs(self, tmp_path):
        # regimes 1e160 apart: squared distances of ~1e320 overflowed the
        # running sum of k-means++; to farthest-point seeding an infinite
        # distance only marks the farthest row
        train = generate_synthetic(
            SynthConfig(n_units=4, n_regimes=2, min_cycles=40, max_cycles=50)
        )[0]
        matrix = train.matrix.copy()
        matrix[:, :N_SETTINGS] *= 1e160
        data = tmp_path / "train.txt"
        save_cmapss(TrajectorySet(matrix, train.unit_ids, train.bounds), data)
        model = tmp_path / "model"
        proc = train_in_fresh_interpreter(data, model)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        for name in ("train_curves.npy", "library_sigma.npy"):
            assert np.isfinite(np.load(model / name, allow_pickle=False)).all()
        assert np.isfinite(model_doc(model)["centroids"]).all()

    def test_overflowing_settings_exit_3_tagged_with_stage(self, tmp_path):
        # the 20 vectors within 1.3e154 of the first read one regime beside
        # the one at 1e200, but the last lies 2.4e154 from that regime's mean
        near = [[-7.5e153 + i * 1e140] * N_SETTINGS for i in range(18)]
        data = unit_fleet(tmp_path / "train.txt", [
            [[0.0] * N_SETTINGS] + near + [[7.5e153] * N_SETTINGS, [1e200] * N_SETTINGS]
        ] * 3)
        proc = train_in_fresh_interpreter(data, tmp_path / "model")
        assert proc.returncode == EXIT_NUMERICAL
        assert proc.stderr == (
            "numerical error: [train] squared settings distances to the "
            "regime centroids overflow\n"
        )
        assert not (tmp_path / "model").exists()

    @pytest.mark.parametrize("n_regimes", [1, 2])
    def test_overflowing_settings_mean_exits_3_tagged_with_stage(self, tmp_path, n_regimes):
        # every row of a regime at 1.5e308: the finite settings sum to more
        # than the largest float; no numpy warning reaches stderr
        data = unit_fleet(tmp_path / "train.txt",
                          [[[v] * N_SETTINGS] * 30 for v in (1.5e308, -1.5e308)[:n_regimes]])
        proc = train_in_fresh_interpreter(data, tmp_path / "model")
        assert proc.returncode == EXIT_NUMERICAL
        assert proc.stderr == (
            "numerical error: [train] the settings mean of a regime overflows\n"
        )
        assert not (tmp_path / "model").exists()

    def test_non_finite_train_value_exits_2_naming_line(
        self, synth_dir, tmp_path, capsys
    ):
        data = tmp_path / "train.txt"
        shutil.copy(synth_dir / "train_synth.txt", data)
        poison_line(data, 6)
        rc = main(["train", "--train", str(data), "--out", str(tmp_path / "m")])
        assert rc == EXIT_DATA
        assert f"{data}:6: non-finite" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_config_file_with_trainer_keys_accepted(self, synth_dir, tmp_path):
        # the retired fields, as config files written for the epoch trainer
        # and the fixed matching bandwidth hold them
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(
            {"alpha": 0.5, "eta": 0.0, "max_epochs": 5, "rel_tol": 1e-3,
             "beta": 0.0235, "include_settings": "yes", "seed": 9, "tau2": 25}
        ))
        out = tmp_path / "model"
        rc = main(
            ["train", "--train", str(synth_dir / "train_synth.txt"),
             "--out", str(out), "--config", str(cfg_file)]
        )
        assert rc == EXIT_OK
        saved = model_doc(out)["config"]
        assert saved["tau2"] == 25
        assert not set(saved) & set(RETIRED_FIELDS)

    def test_config_file_with_unknown_key_exits_2(self, synth_dir, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"max_epoch": 5, "tau2": 25}))
        rc = main(
            ["train", "--train", str(synth_dir / "train_synth.txt"),
             "--out", str(tmp_path / "model"), "--config", str(cfg_file)]
        )
        assert rc == EXIT_DATA
        assert "unknown config fields: ['max_epoch']" in capsys.readouterr().err
        assert not (tmp_path / "model").exists()

    def test_linalg_error_exits_3_tagged_with_stage(
        self, synth_dir, tmp_path, capsys, monkeypatch
    ):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        rc = main(
            ["train", "--train", str(synth_dir / "train_synth.txt"),
             "--out", str(tmp_path / "model")] + BENCH_FLAGS
        )
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical error: [train] Eigenvalues did not converge" in err
        assert "Traceback" not in err
        assert not (tmp_path / "model").exists()

    # at 5e306 each row distance is finite but the healthy means overflow
    # (3e306-8e306 on this fleet); test_health.py::TestScaler pins that
    # branch without a draw
    @pytest.mark.parametrize(
        "delta, message",
        [("1e308", "non-finite subspace distance (overflow)"),
         ("5e306", "healthy-level distance overflows")],
    )
    def test_overflowing_distance_exits_3(
        self, synth_dir, tmp_path, capsys, delta, message
    ):
        rc = main(["train", "--train", str(synth_dir / "train_synth.txt"),
                   "--out", str(tmp_path / "model"), "--delta", delta])
        assert rc == EXIT_NUMERICAL
        assert capsys.readouterr().err == f"numerical error: [train] {message}\n"
        assert not (tmp_path / "model").exists()

    @pytest.mark.parametrize("delta", ["1e306", "1e305"])
    def test_huge_delta_trains_with_finite_outputs(self, synth_dir, tmp_path, delta):
        # distances of ~1e306 and their healthy-level mean stay finite
        model = tmp_path / "model"
        proc = train_in_fresh_interpreter(
            synth_dir / "train_synth.txt", model, "--delta", delta
        )
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        for name in ("train_curves.npy", "library_sigma.npy"):
            assert np.isfinite(np.load(model / name, allow_pickle=False)).all()

    @pytest.mark.parametrize(
        "text", ['{"tau2": 1', "[1, 2]"], ids=["malformed", "not-an-object"]
    )
    def test_bad_config_file_exits_2_naming_file(
        self, synth_dir, tmp_path, capsys, text
    ):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(text)
        rc = main(
            ["train", "--train", str(synth_dir / "train_synth.txt"),
             "--out", str(tmp_path / "model"), "--config", str(cfg_file)]
        )
        assert rc == EXIT_DATA
        assert str(cfg_file) in capsys.readouterr().err
        assert not (tmp_path / "model").exists()


    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"smoothing": "0.3"}, "smoothing"),
            ({"healthy_cycles": 20.5}, "healthy_cycles"),
        ],
        ids=["string-smoothing", "float-healthy-cycles"],
    )
    def test_mistyped_config_value_exits_2_naming_field(
        self, synth_dir, tmp_path, capsys, doc, field
    ):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(doc))
        rc = main(
            ["train", "--train", str(synth_dir / "train_synth.txt"),
             "--out", str(tmp_path / "model"), "--config", str(cfg_file)]
        )
        assert rc == EXIT_DATA
        assert f"error: {field} must be" in capsys.readouterr().err
        assert not (tmp_path / "model").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--healthy-cycles", "0"], "healthy_cycles must be >= 1"),
            (["--tau2", "-5"], "need 0 <= tau1 <= tau2"),
        ],
        ids=["healthy-cycles-0", "negative-tau2"],
    )
    def test_out_of_range_flag_exits_2_naming_field(
        self, tmp_path, capsys, flags, message
    ):
        data = tmp_path / "synth"
        assert main(["synth", "--out", str(data), "--units", "4",
                     "--min-cycles", "40", "--max-cycles", "50"]) == EXIT_OK
        rc = main(
            ["train", "--train", str(data / "train_synth.txt"),
             "--out", str(tmp_path / "model")] + flags
        )
        assert rc == EXIT_DATA
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "model").exists()


@pytest.fixture(scope="module")
def model_dir(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    rc = main(
        ["train", "--train", str(synth_dir / "train_synth.txt"),
         "--out", str(out)] + BENCH_FLAGS
    )
    assert rc == EXIT_OK
    return out


# the argv of a run that reads the path `bad` through the flag named in its id
UNREADABLE_INPUT = {
    "train --train": lambda synth, model, bad, out: [
        "train", "--train", bad, "--out", out],
    "infer --data": lambda synth, model, bad, out: [
        "infer", "--model-dir", model, "--data", bad, "--out", out],
    "infer --rul": lambda synth, model, bad, out: [
        "infer", "--model-dir", model, "--data", synth / "test_synth.txt",
        "--rul", bad, "--out", out],
}


class TestUnreadablePaths:
    """An input that is not text, or a path through a file, exits 2 naming
    the path, with no traceback and no output. A PermissionError takes the
    same path but cannot be shown when the tests run as root."""

    def check_exits_2(self, argv, bad, out, capsys):
        rc = main([str(a) for a in argv])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA, err
        assert str(bad) in err
        assert "Traceback" not in err
        assert not out.exists()
        return err

    @pytest.mark.parametrize("argv", UNREADABLE_INPUT.values(), ids=UNREADABLE_INPUT)
    def test_undecodable_input(self, synth_dir, model_dir, tmp_path, capsys, argv):
        bad = tmp_path / "binary.txt"
        bad.write_bytes(b"\xff" + np.random.default_rng(0).bytes(299))
        out = tmp_path / "out"
        err = self.check_exits_2(argv(synth_dir, model_dir, bad, out), bad, out, capsys)
        assert f"{bad}: not a text file" in err

    @pytest.mark.parametrize("argv", UNREADABLE_INPUT.values(), ids=UNREADABLE_INPUT)
    def test_input_path_through_a_file(self, synth_dir, model_dir, tmp_path, capsys, argv):
        bad = synth_dir / "RUL_synth.txt" / "x"
        out = tmp_path / "out"
        self.check_exits_2(argv(synth_dir, model_dir, bad, out), bad, out, capsys)

    def test_output_path_through_a_file(self, synth_dir, tmp_path, capsys):
        bad = synth_dir / "RUL_synth.txt" / "x"
        argv = ["train", "--train", synth_dir / "train_synth.txt", "--out", bad]
        self.check_exits_2(argv + BENCH_FLAGS, bad, bad, capsys)


class TestInfer:
    def test_outputs_one_row_per_unit(self, synth_dir, model_dir, tmp_path):
        rc = main(
            ["infer", "--model-dir", str(model_dir),
             "--data", str(synth_dir / "test_synth.txt"),
             "--rul", str(synth_dir / "RUL_synth.txt"),
             "--out", str(tmp_path)]
        )
        assert rc == EXIT_OK
        lines = (tmp_path / "rul_estimates.csv").read_text().splitlines()
        assert len(lines) == 11  # header + 10 units
        assert lines[0].startswith("unit_id,estimated_rul,true_rul")
        # the weight sum: the nearest candidate weighs e^-1, none more than 1
        for row in estimate_rows(tmp_path):
            assert math.exp(-1) <= float(row["sum_similarity"]) <= int(row["n_candidates"])

    def test_healthy_window_sigma_high(self, synth_dir, model_dir, tmp_path):
        rc = main(
            ["infer", "--model-dir", str(model_dir),
             "--data", str(synth_dir / "train_synth.txt"),
             "--out", str(tmp_path)]
        )
        assert rc == EXIT_OK
        sigmas = {}
        table = np.load(tmp_path / "hi_curves.npy", allow_pickle=False)
        for unit, cycle, _, _, sigma in table.tolist():
            if cycle <= 20:
                sigmas.setdefault(unit, []).append(sigma)
        mean_sigma = sum(sum(v) / len(v) for v in sigmas.values()) / len(sigmas)
        assert mean_sigma >= 0.9

    def infer_rc(self, synth_dir, model, out):
        return main(
            ["infer", "--model-dir", str(model),
             "--data", str(synth_dir / "test_synth.txt"),
             "--rul", str(synth_dir / "RUL_synth.txt"),
             "--out", str(out)]
        )

    def test_mismatched_rul_file_exits_2_before_inference(
        self, synth_dir, model_dir, tmp_path, capsys, monkeypatch
    ):
        def refuse(*args):
            raise AssertionError("infer_curves ran before the RUL file was checked")

        monkeypatch.setattr(pipeline, "infer_curves", refuse)
        rul_file = tmp_path / "RUL_short.txt"
        rul_file.write_text("10\n20\n30\n")
        rc = main(["infer", "--model-dir", str(model_dir),
                   "--data", str(synth_dir / "test_synth.txt"),
                   "--rul", str(rul_file), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA, err
        assert f"{rul_file}: 3 RUL lines for 10 test units" in err
        assert not (tmp_path / "out").exists()

    def test_single_unit_infer_writes_its_fleet_row(
        self, synth_dir, model_dir, tmp_path
    ):
        lines = (synth_dir / "test_synth.txt").read_text().splitlines()
        one = tmp_path / "unit4.txt"
        one.write_text("".join(f"{line}\n" for line in lines if line.split()[0] == "4"))
        for data, out in ((synth_dir / "test_synth.txt", "fleet"), (one, "one")):
            rc = main(["infer", "--model-dir", str(model_dir), "--data", str(data),
                       "--out", str(tmp_path / out)])
            assert rc == EXIT_OK
        fleet = (tmp_path / "fleet" / "rul_estimates.csv").read_text().splitlines()
        single = (tmp_path / "one" / "rul_estimates.csv").read_text().splitlines()
        assert len(single) == 2
        assert single[1] == next(row for row in fleet if row.startswith("4,"))

    def test_corrupt_model_json_rejected(self, synth_dir, model_dir, tmp_path):
        broken = tmp_path / "broken"
        shutil.copytree(model_dir, broken)
        doc = model_doc(broken)
        doc["members"][0]["lambdas"][0] = -3.0
        (broken / "model.json").write_text(json.dumps(doc))
        assert self.infer_rc(synth_dir, broken, tmp_path / "out") == EXIT_DATA
        # a member alone is not a model document
        (broken / "model.json").write_text(json.dumps(doc["members"][0]))
        assert self.infer_rc(synth_dir, broken, tmp_path / "out") == EXIT_DATA

    def test_version_mismatch_rejected(self, synth_dir, model_dir, tmp_path):
        broken = tmp_path / "versioned"
        shutil.copytree(model_dir, broken)
        doc = json.loads((broken / "model.json").read_text())
        doc["version"] = 42
        (broken / "model.json").write_text(json.dumps(doc))
        assert self.infer_rc(synth_dir, broken, tmp_path / "out") == EXIT_DATA

    @pytest.mark.parametrize(
        "version, message",
        [
            (True, "unsupported model format version True"),
            (2.0, "unsupported model format version 2.0"),
            ("2", "unsupported model format version '2'"),
            (3.0, "unsupported model format version 3.0"),
            ("3", "unsupported model format version '3'"),
            (4.0, "unsupported model format version 4.0"),
            ("4", "unsupported model format version '4'"),
            (5.0, "unsupported model format version 5.0"),
            ("5", "unsupported model format version '5'"),
            (6.0, "unsupported model format version 6.0"),
            ("6", "unsupported model format version '6'"),
            (7, "unsupported model format version 7"),
            (0, "unsupported model format version 0"),
            (1, RETRAIN.format(1)),
            # a version 2 library is smoothed twice, and in sst-lr mode is
            # not the index the queries carry
            (2, RETRAIN.format(2)),
            # a version 3 regressor reads the d projections, not the row
            (3, RETRAIN.format(3)),
            # a version 4 pipeline is spread over five documents and three arrays
            (4, RETRAIN.format(4)),
            # a version 5 model tracks the 3 settings beside the sensors at K=1
            (5, RETRAIN.format(5)),
        ],
        ids=["true", "2.0", "str-2", "3.0", "str-3", "4.0", "str-4", "5.0", "str-5",
             "6.0", "str-6", "7", "0", "1", "2", "3", "4", "5"],
    )
    def test_unsupported_version_exits_2_naming_model_json(
        self, synth_dir, model_dir, tmp_path, capsys, version, message
    ):
        # without the library file, as version 1 wrote a directory: the
        # version is refused before it is looked for
        broken = tmp_path / "broken"
        shutil.copytree(model_dir, broken)
        (broken / "library_sigma.npy").unlink()
        edit_model_doc(broken, lambda doc: doc.update(version=version))
        assert self.infer_rc(synth_dir, broken, tmp_path / "out") == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{broken / 'model.json'}: {message}" in err
        assert "Traceback" not in err

    def test_single_model_document_exits_2_with_retrain_message(
        self, synth_dir, model_dir, tmp_path, capsys
    ):
        doc = model_doc(model_dir)
        member = doc["members"][0]
        legacy = tmp_path / "legacy"
        shutil.copytree(model_dir, legacy)
        # the documented keys of a version 1 single-model model.json
        (legacy / "model.json").write_text(json.dumps({
            "version": 1,
            "D": len(member["c"]),
            "d": len(member["lambdas"]),
            "delta": doc["config"]["delta"],
            "c": member["c"],
            "lambdas": member["lambdas"],
            "U1": member["U1"],
        }))
        assert self.infer_rc(synth_dir, legacy, tmp_path / "out") == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{legacy / 'model.json'}: {RETRAIN.format(1)}" in err
        assert "Traceback" not in err

    @staticmethod
    def _truncate_model(d):
        text = (d / "model.json").read_text()
        (d / "model.json").write_text(text[: len(text) // 2])
        return "model.json"

    @staticmethod
    def _shorten_basis_column(d):
        edit_model_doc(d, lambda doc: doc["members"][0]["U1"][1].pop())
        return "model.json"

    @pytest.mark.parametrize(
        "corrupt", ["_truncate_model", "_shorten_basis_column"]
    )
    def test_corrupt_artifact_exits_2_naming_file(
        self, synth_dir, model_dir, tmp_path, capsys, corrupt
    ):
        broken = tmp_path / "broken"
        shutil.copytree(model_dir, broken)
        name = getattr(self, corrupt)(broken)
        assert self.infer_rc(synth_dir, broken, tmp_path / "out") == EXIT_DATA
        assert name in capsys.readouterr().err

    def test_non_finite_test_value_exits_2_naming_line(
        self, synth_dir, model_dir, tmp_path, capsys
    ):
        # a nan in a test unit used to pass for similarity underflow and
        # give that unit an unweighted mean with exit 0
        data = tmp_path / "test.txt"
        shutil.copy(synth_dir / "test_synth.txt", data)
        poison_line(data, 6)
        rc = main(
            ["infer", "--model-dir", str(model_dir), "--data", str(data),
             "--out", str(tmp_path / "out")]
        )
        assert rc == EXIT_DATA
        assert f"{data}:6: non-finite" in capsys.readouterr().err

    @staticmethod
    def _truncate_library(d):
        path = d / "library_sigma.npy"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        return "library_sigma.npy"

    @staticmethod
    def _flatten_library(d):
        np.save(d / "library_sigma.npy", np.load(d / "library_sigma.npy").ravel())
        return "library_sigma.npy"

    @staticmethod
    def _float32_library(d):
        path = d / "library_sigma.npy"
        np.save(path, np.load(path).astype(np.float32))
        return "library_sigma.npy"

    @staticmethod
    def _pickled_library(d):
        path = d / "library_sigma.npy"
        np.save(path, np.load(path).astype(object), allow_pickle=True)
        return "library_sigma.npy"

    @staticmethod
    def _extra_library_curve(d):
        path = d / "library_sigma.npy"
        sigma = np.load(path)
        np.save(path, np.vstack([sigma, sigma[:1]]))
        return "library_sigma.npy"

    @staticmethod
    def _length_past_width(d):
        width = np.load(d / "library_sigma.npy").shape[1]
        edit_model_doc(d, lambda doc: doc["library"]["lengths"].__setitem__(3, width + 1))
        return "model.json"

    @staticmethod
    def _swapped_unit_ids(d):
        def swap(doc):
            ids = doc["library"]["unit_ids"]
            ids[0], ids[1] = ids[1], ids[0]
        edit_model_doc(d, swap)
        return "model.json"

    @staticmethod
    def _missing_library(d):
        (d / "library_sigma.npy").unlink()
        return "library_sigma.npy"

    @pytest.mark.parametrize(
        "corrupt",
        ["_truncate_library", "_flatten_library", "_float32_library",
         "_pickled_library", "_extra_library_curve", "_length_past_width",
         "_swapped_unit_ids", "_missing_library"],
    )
    def test_corrupt_library_exits_2_naming_file(
        self, synth_dir, model_dir, tmp_path, capsys, corrupt
    ):
        broken = tmp_path / "broken"
        shutil.copytree(model_dir, broken)
        name = getattr(self, corrupt)(broken)
        assert self.infer_rc(synth_dir, broken, tmp_path / "out") == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{broken / name}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [1e200, -0.5])
    def test_out_of_range_curve_value_exits_2_naming_file(
        self, synth_dir, model_dir, tmp_path, capsys, value
    ):
        # a finite but huge health index used to overflow in the library's
        # squares (numpy RuntimeWarnings, then exit 3)
        broken = tmp_path / "broken"
        shutil.copytree(model_dir, broken)
        name = "library_sigma.npy"
        padded = np.load(broken / name)
        padded[0, 4] = value
        np.save(broken / name, padded)
        assert self.infer_rc(synth_dir, broken, tmp_path / "out") == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{name}: unit 1, cycle 5: health index {value!r} outside [0, 1]" in err

    @pytest.mark.parametrize(
        "section, key, index, value",
        [
            # each in place of the id or flag that numpy would turn it into
            ("library", "unit_ids", 0, 1.5),
            ("library", "unit_ids", 0, True),
            ("library", "unit_ids", 2, "3"),
            ("library", "unit_ids", -1, 2**53),
            ("normalizer", "mask", 0, 0.5),
        ],
        ids=["id-1.5", "id-true", "id-str-3", "id-2**53", "mask-0.5"],
    )
    def test_mistyped_integer_exits_2_naming_model_json(
        self, synth_dir, model_dir, tmp_path, capsys, section, key, index, value
    ):
        # np.array([1.5, "3", True], dtype=np.int64) reads [1, 3, 1] without a word
        broken = tmp_path / "broken"
        shutil.copytree(model_dir, broken)

        def mistype(doc):
            table = doc[section][key]
            (table[0] if section == "normalizer" else table)[index] = value
        edit_model_doc(broken, mistype)
        assert self.infer_rc(synth_dir, broken, tmp_path / "out") == EXIT_DATA
        err = capsys.readouterr().err
        assert f"error: {broken / 'model.json'}: {section}.{key} must hold only " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["scaler"].update(ceiling=math.inf),
             "scaler.ceiling must be finite"),
            (lambda doc: doc["config"].update(delta=math.inf),
             "delta must be a finite number, got inf"),
        ],
        ids=["scaler-ceiling", "model-delta"],
    )
    def test_non_finite_parameter_exits_2_naming_file(
        self, synth_dir, model_dir, tmp_path, capsys, edit, message
    ):
        # either value loads as a float and would give finite but meaningless
        # curves or similarities
        broken = tmp_path / "broken"
        shutil.copytree(model_dir, broken)
        edit_model_doc(broken, edit)  # writes Infinity
        assert self.infer_rc(synth_dir, broken, tmp_path / "out") == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{broken / 'model.json'}: {message}" in err
        assert "Traceback" not in err

    def test_infer_never_reads_train_curves(self, synth_dir, model_dir, tmp_path):
        stripped = tmp_path / "stripped"
        shutil.copytree(model_dir, stripped)
        (stripped / "train_curves.npy").unlink()
        for d, out in ((model_dir, "a"), (stripped, "b")):
            assert self.infer_rc(synth_dir, d, tmp_path / out) == EXIT_OK
        for name in ("hi_curves.npy", "rul_estimates.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_directory_with_a_text_curve_export_infers_identically(
        self, synth_dir, model_dir, tmp_path
    ):
        # train_curves.csv, as releases before the .npy exports wrote it, in
        # place of train_curves.npy; matching reads neither export
        old = tmp_path / "old"
        shutil.copytree(model_dir, old)
        table = np.load(old / "train_curves.npy", allow_pickle=False)
        (old / "train_curves.npy").unlink()
        (old / "train_curves.csv").write_text(
            "unit_id,cycle,raw_dist,scaled_dist,sigma\n"
            + "".join(f"{int(u)},{int(c)},{r!r},{s!r},{g!r}\n" for u, c, r, s, g in table.tolist())
        )
        assert model_doc(old)["version"] == persist.MODEL_FORMAT_VERSION
        for d, out in ((model_dir, "a"), (old, "b")):
            assert self.infer_rc(synth_dir, d, tmp_path / out) == EXIT_OK
        for name in ("hi_curves.npy", "rul_estimates.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_sst_directory_never_reads_regressor_json(
        self, synth_dir, model_dir, tmp_path
    ):
        # save_pipeline writes no regressor in sst mode; a stray one used to
        # be loaded onto the pipeline (or, malformed, to exit 2)
        stray = tmp_path / "stray"
        shutil.copytree(model_dir, stray)
        edit_model_doc(stray, lambda doc: doc.update(regressor="not a regressor"))
        assert persist.load_pipeline(stray).regressor is None
        for d, out in ((model_dir, "a"), (stray, "b")):
            assert self.infer_rc(synth_dir, d, tmp_path / out) == EXIT_OK
        for name in ("hi_curves.npy", "rul_estimates.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_unmatched_units_listed_on_stderr(
        self, synth_dir, model_dir, tmp_path, capsys
    ):
        # full-length train curves: the longest has no other curve to match
        rc = main(
            ["infer", "--model-dir", str(model_dir),
             "--data", str(synth_dir / "train_synth.txt"),
             "--out", str(tmp_path)]
        )
        assert rc == EXIT_OK
        empty = [int(r["unit_id"]) for r in estimate_rows(tmp_path)
                 if not r["estimated_rul"]]
        assert empty
        err = capsys.readouterr().err
        assert warned_units(err, "no valid match") == empty

    def test_unmatched_unit_keeps_its_curve_rows(self, synth_dir, model_dir, tmp_path):
        # an empty estimate row does not drop the unit from the curve export
        data = synth_dir / "train_synth.txt"
        assert main(["infer", "--model-dir", str(model_dir), "--data", str(data),
                     "--out", str(tmp_path)]) == EXIT_OK
        empty = [int(r["unit_id"]) for r in estimate_rows(tmp_path)
                 if not r["estimated_rul"]]
        assert empty
        table = np.load(tmp_path / "hi_curves.npy", allow_pickle=False)
        fleet = load_cmapss(data)
        lengths = dict(zip(fleet.unit_ids, np.diff(fleet.bounds).tolist()))
        for unit in empty:
            cycles = table[table[:, 0] == unit, 1]
            assert cycles.tolist() == list(range(1, lengths[unit] + 1))

    def test_config_with_trainer_keys_infers_identically(
        self, synth_dir, model_dir, tmp_path
    ):
        # a config as train wrote it while it ran the epoch trainer, matched
        # with a fixed bandwidth, seeded k-means++ from a draw and took the
        # settings switch: the retired fields are ignored, whatever they hold
        legacy = tmp_path / "legacy"
        shutil.copytree(model_dir, legacy)
        assert not set(model_doc(legacy)["config"]) & set(RETIRED_FIELDS)
        edit_model_doc(legacy, lambda doc: doc["config"].update(
            alpha=0.87, eta=0.01, max_epochs=100, rel_tol=1e-4, beta=0.0235, seed=3,
            include_settings=True,
        ))
        assert persist.load_pipeline(legacy).config == (
            persist.load_pipeline(model_dir).config
        )

        assert self.infer_rc(synth_dir, model_dir, tmp_path / "new") == EXIT_OK
        assert self.infer_rc(synth_dir, legacy, tmp_path / "old") == EXIT_OK
        for name in ("hi_curves.npy", "rul_estimates.csv"):
            assert (tmp_path / "old" / name).read_bytes() == (
                tmp_path / "new" / name
            ).read_bytes()

    def test_directory_with_an_n_regimes_config_infers_identically(
        self, synth_dir, model_dir, tmp_path
    ):
        # the model.json of version 6 as train wrote it while K was a config
        # field, second in its config: the retired field is ignored and K is
        # read from the member count, so the directory loads without a format bump
        legacy = tmp_path / "legacy"
        shutil.copytree(model_dir, legacy)
        edit_model_doc(legacy, add_n_regimes)
        assert list(model_doc(legacy)["config"])[:2] == ["mode", "n_regimes"]
        assert persist.model_document(persist.load_pipeline(legacy)) == model_doc(model_dir)

        assert self.infer_rc(synth_dir, model_dir, tmp_path / "new") == EXIT_OK
        assert self.infer_rc(synth_dir, legacy, tmp_path / "old") == EXIT_OK
        for name in ("hi_curves.npy", "rul_estimates.csv"):
            assert (tmp_path / "old" / name).read_bytes() == (
                tmp_path / "new" / name
            ).read_bytes()

    def test_directory_with_a_subspace_dim_config_infers_identically(
        self, synth_dir, model_dir, tmp_path
    ):
        # the model.json of version 6 as train wrote it while the subspace
        # dimension was a config field, third in its config: the retired
        # field is ignored and d is read from the members' bases, so the
        # directory loads without a format bump
        legacy = tmp_path / "legacy"
        shutil.copytree(model_dir, legacy)

        def add_subspace_dim(doc):
            add_n_regimes(doc)
            config = doc["config"]
            doc["config"] = {"mode": config.pop("mode"), "n_regimes": config.pop("n_regimes"),
                             "subspace_dim": len(doc["members"][0]["U1"]), **config}

        edit_model_doc(legacy, add_subspace_dim)
        assert model_doc(legacy)["config"]["subspace_dim"] == 3
        assert persist.model_document(persist.load_pipeline(legacy)) == model_doc(model_dir)

        assert self.infer_rc(synth_dir, model_dir, tmp_path / "new") == EXIT_OK
        assert self.infer_rc(synth_dir, legacy, tmp_path / "old") == EXIT_OK
        for name in ("hi_curves.npy", "rul_estimates.csv"):
            assert (tmp_path / "old" / name).read_bytes() == (
                tmp_path / "new" / name
            ).read_bytes()

    def test_model_with_overflowing_delta_exits_3(
        self, synth_dir, model_dir, tmp_path, capsys
    ):
        huge = tmp_path / "huge"
        shutil.copytree(model_dir, huge)
        edit_model_doc(huge, lambda doc: doc["config"].update(delta=1e308))
        assert self.infer_rc(synth_dir, huge, tmp_path / "out") == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical error: non-finite subspace distance (overflow)\n"
        )
        assert not (tmp_path / "out").exists()

    def test_config_with_unknown_key_exits_2_naming_file(
        self, synth_dir, model_dir, tmp_path, capsys
    ):
        broken = tmp_path / "broken"
        shutil.copytree(model_dir, broken)
        edit_model_doc(broken, lambda doc: doc["config"].update(max_epoch=100))
        assert self.infer_rc(synth_dir, broken, tmp_path / "out") == EXIT_DATA
        assert (
            f"{broken / 'model.json'}: unknown config fields: ['max_epoch']"
            in capsys.readouterr().err
        )


@pytest.fixture(scope="module")
def lr_model_dir(tmp_path_factory):
    """An sst-lr model with K=3 regimes, which tracks the sensors as every
    model does: its normalizer, members and regressor are 21 columns wide."""
    data = tmp_path_factory.mktemp("synth3")
    assert main(["synth", "--out", str(data), "--units", "8", "--n-regimes", "3",
                 "--seed", "4", "--min-cycles", "80", "--max-cycles", "100"]) == EXIT_OK
    out = tmp_path_factory.mktemp("model3")
    assert main(["train", "--train", str(data / "train_synth.txt"), "--out", str(out),
                 "--mode", "sst-lr"] + BENCH_FLAGS) == EXIT_OK
    return out


def _first(section, key, value):
    def edit(doc):
        table = doc[section][key] if key else doc[section]
        table[0][0] = value
    return edit


class TestFittedTables:
    """Every table of model.json must have the shape its members and config
    give: K=3 members, 21 normalizer columns (the tracked sensors),
    21 + 1 regression weights and one centroid column per setting, all
    finite JSON numbers and std > 0. A table edited apart from the others no
    longer fits them."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.update(regressor=doc["regressor"][:2]),
             "regressor has shape (2, 22), expected (3, 22)"),
            (lambda doc: doc.update(regressor=doc["regressor"][0]),
             "regressor has shape (22,), expected (3, 22)"),
            # the (K, d+1) weights of a version 3 regressor of the projections
            (lambda doc: doc.update(regressor=[row[:3] + row[-1:] for row in doc["regressor"]]),
             "regressor has shape (3, 4), expected (3, 22)"),
            (_first("regressor", None, float("nan")), "regressor must be finite"),
            (lambda doc: doc["normalizer"].update(
                {k: v[:2] for k, v in doc["normalizer"].items()}),
             "normalizer.mean has shape (2, 21), expected (3, 21)"),
            (lambda doc: doc["normalizer"].update(
                mask=[row + [0, 0] for row in doc["normalizer"]["mask"]]),
             "normalizer.mask has shape (3, 23), expected (3, 21)"),
            (_first("normalizer", "std", 0.0), "normalizer.std must be finite and > 0"),
            (_first("normalizer", "std", float("inf")),
             "normalizer.std must be finite and > 0"),
            (_first("normalizer", "mean", float("nan")), "normalizer.mean must be finite"),
            (lambda doc: doc.update(centroids=[c[:2] for c in doc["centroids"]]),
             "centroids has shape (3, 2), expected (3, 3)"),
            (_first("centroids", None, float("nan")), "centroids must be finite"),
            (lambda doc: doc["config"].update(delta=0), "delta must be > 0"),
            # K is the member count: none leaves no regime, and no basis to read d from
            (lambda doc: doc.update(members=[]),
             "members is empty: a model holds one member per regime"),
            # MAX_REGIMES members pass on to the next table, one more does not:
            # the settings read no more regimes, and a regime label is one byte
            (lambda doc: doc.update(members=doc["members"][:1] * 16),
             "centroids has shape (3, 3), expected (16, 3)"),
            (lambda doc: doc.update(members=doc["members"][:1] * 17),
             "members holds 17 entries: a model holds at most MAX_REGIMES = 16"),
            # the first member's basis gives every member's d
            (lambda doc: doc["members"][1].update(
                U1=doc["members"][1]["U1"][:2], lambdas=doc["members"][1]["lambdas"][:2]),
             "members[1].U1 has shape (2, 21), expected (3, 21)"),
            # entries numpy would read as 1.0 and 0.5, or fail on deep inside
            (_first("centroids", None, True), "centroids must hold only numbers"),
            (lambda doc: doc["scaler"].update(floor="0.5"),
             "scaler.floor must hold only numbers"),
            (lambda doc: doc["members"][0]["lambdas"].__setitem__(0, None),
             "members[0].lambdas must hold only numbers"),
        ],
        ids=["regressor-2-rows", "regressor-1d", "regressor-projection-width",
             "regressor-nan", "normalizer-2-rows",
             "normalizer-23-mask-columns", "normalizer-zero-std", "normalizer-inf-std",
             "normalizer-nan-mean", "model-2-settings-columns", "model-nan-centroid",
             "config-zero-delta", "members-empty", "members-16", "members-17", "member-2-axes",
             "model-true-centroid", "scaler-str-floor", "member-null-spread"],
    )
    def test_mismatched_table_exits_2_naming_file_before_data_is_read(
        self, lr_model_dir, tmp_path, capsys, edit, message
    ):
        broken = tmp_path / "broken"
        shutil.copytree(lr_model_dir, broken)
        edit_model_doc(broken, edit)
        rc = main(["infer", "--model-dir", str(broken),
                   "--data", str(tmp_path / "no-such-file.txt"),
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert f"error: {broken / 'model.json'}: {message}" in err
        assert "Traceback" not in err

    def test_sst_lr_directory_without_regressor_exits_2_naming_it(
        self, lr_model_dir, tmp_path, capsys
    ):
        broken = tmp_path / "broken"
        shutil.copytree(lr_model_dir, broken)
        edit_model_doc(broken, lambda doc: doc.update(regressor=None))
        rc = main(["infer", "--model-dir", str(broken),
                   "--data", str(tmp_path / "no-such-file.txt"),
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert f"error: {broken / 'model.json'}: regressor has shape (), expected (3, 22)" in err

    def test_untouched_tables_load(self, lr_model_dir):
        pipe = persist.load_pipeline(lr_model_dir)
        assert pipe.normalizer.mean.shape == (3, N_SENSORS)
        assert pipe.regressor.shape == (3, 22)


class TestBenchmark:
    def run_bench(self, synth_dir, out, extra=()):
        return main(
            ["benchmark",
             "--train", str(synth_dir / "train_synth.txt"),
             "--test", str(synth_dir / "test_synth.txt"),
             "--rul", str(synth_dir / "RUL_synth.txt"),
             "--out", str(out)] + BENCH_FLAGS + list(extra)
        )

    def test_report_shape(self, synth_dir, tmp_path, capsys):
        assert self.run_bench(synth_dir, tmp_path) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report) >= {"rmse", "score", "rows", "config", "n_units"}
        assert report["n_units"] == 10
        # stdout is the report and the K read from the settings
        text = (tmp_path / "report.txt").read_text()
        assert capsys.readouterr() == (text + "regimes: 1\n", "")

    @pytest.mark.parametrize("token", ["inf", "-7"])
    def test_invalid_rul_value_exits_2_naming_line(
        self, synth_dir, tmp_path, capsys, token
    ):
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        lines = (data / "RUL_synth.txt").read_text().splitlines()
        lines[2] = token
        (data / "RUL_synth.txt").write_text("\n".join(lines) + "\n")
        assert self.run_bench(data, tmp_path / "out") == EXIT_DATA
        err = capsys.readouterr().err
        assert "RUL_synth.txt:3: RUL must be a whole number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("missing", ["test", "rul"])
    def test_unreadable_test_or_rul_path_exits_2_before_training(
        self, synth_dir, tmp_path, capsys, monkeypatch, missing
    ):
        # the test and RUL files are parsed after training, but opened before it
        trained = mock.Mock(side_effect=AssertionError("trained"))
        monkeypatch.setattr(fit, "fit_rows", trained)
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        gone = data / {"test": "test_synth.txt", "rul": "RUL_synth.txt"}[missing]
        gone.unlink()
        assert self.run_bench(data, tmp_path / "out") == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{gone}'\n"
        )
        assert not trained.called
        assert not (tmp_path / "out").exists()

    def test_malformed_test_file_exits_2_naming_the_line(self, synth_dir, tmp_path, capsys):
        # the test fleet is parsed after training: a fault in it still ends
        # the run with exit 2 and no output directory
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        poison_line(data / "test_synth.txt", 5)
        assert self.run_bench(data, tmp_path / "out") == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: [load] {data / 'test_synth.txt'}:5: non-finite value (nan or inf)\n"
        )
        assert not (tmp_path / "out").exists()

    def test_inverted_lag_range_exits_2_before_training(
        self, synth_dir, tmp_path, capsys
    ):
        rc = self.run_bench(synth_dir, tmp_path / "out", ["--tau1", "5", "--tau2", "2"])
        assert rc == EXIT_DATA
        # no stage tag: the config is rejected before the [train] stage runs
        assert "error: need 0 <= tau1 <= tau2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def run_with_config(self, synth_dir, out, doc):
        config = out.with_suffix(".json")
        config.write_text(json.dumps(doc))
        return main(
            ["benchmark",
             "--train", str(synth_dir / "train_synth.txt"),
             "--test", str(synth_dir / "test_synth.txt"),
             "--rul", str(synth_dir / "RUL_synth.txt"),
             "--out", str(out), "--config", str(config)]
        )

    def test_lags_past_the_longest_curve_are_not_computed(
        self, synth_dir, tmp_path
    ):
        # a tau2 of 10**30 used to size the library and end in a numpy
        # "Maximum allowed size exceeded" traceback
        max_len = max(len(t) for t in load_cmapss(synth_dir / "train_synth.txt"))
        for out, tau2 in (("a", 10**30), ("b", max_len)):
            rc = self.run_with_config(synth_dir, tmp_path / out, {"tau2": tau2})
            assert rc == EXIT_OK
        assert (tmp_path / "a" / "rul_estimates.csv").read_bytes() == (
            tmp_path / "b" / "rul_estimates.csv"
        ).read_bytes()

    def test_lag_range_past_every_curve_exits_2(self, synth_dir, tmp_path, capsys):
        doc = {"tau1": 10**30, "tau2": 10**30}
        assert self.run_with_config(synth_dir, tmp_path / "out", doc) == EXIT_DATA
        err = capsys.readouterr().err
        assert "no training curve long enough for any lag" in err
        assert "Traceback" not in err

    def test_byte_identical_reports(self, synth_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run_bench(synth_dir, a) == EXIT_OK
        assert self.run_bench(synth_dir, b) == EXIT_OK
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_matches_each_unit_once(self, synth_dir, tmp_path, monkeypatch):
        matched = []
        estimate_rul = rul.estimate_rul

        def counting(unit_id, sigma, library, cfg):
            matched.append(unit_id)
            return estimate_rul(unit_id, sigma, library, cfg)

        monkeypatch.setattr(rul, "estimate_rul", counting)
        assert self.run_bench(synth_dir, tmp_path) == EXIT_OK
        assert sorted(matched) == list(range(1, 11))

    @pytest.mark.parametrize(
        "truth, metric", [("100000", "score"), ("1e200", "rmse")]
    )
    def test_overflowing_metric_exits_3_writing_no_report(
        self, synth_dir, tmp_path, capsys, truth, metric
    ):
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        truths = (data / "RUL_synth.txt").read_text().splitlines()
        (data / "RUL_synth.txt").write_text("\n".join([truth] + truths[1:]) + "\n")
        assert self.run_bench(data, tmp_path / "out") == EXIT_NUMERICAL
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(
            f"numerical error: [evaluate] {metric} overflows: the largest |error| is "
        )
        assert not (tmp_path / "out").exists()

    def test_composes_with_train_then_infer(self, synth_dir, tmp_path):
        bench = tmp_path / "bench"
        assert self.run_bench(synth_dir, bench) == EXIT_OK

        model = tmp_path / "model"
        rc = main(
            ["train", "--train", str(synth_dir / "train_synth.txt"),
             "--out", str(model)] + BENCH_FLAGS
        )
        assert rc == EXIT_OK
        infer = tmp_path / "infer"
        rc = main(
            ["infer", "--model-dir", str(model),
             "--data", str(synth_dir / "test_synth.txt"),
             "--rul", str(synth_dir / "RUL_synth.txt"),
             "--out", str(infer)]
        )
        assert rc == EXIT_OK
        assert (infer / "hi_curves.npy").read_bytes() == (
            bench / "hi_curves.npy"
        ).read_bytes()
        assert (infer / "rul_estimates.csv").read_bytes() == (
            bench / "rul_estimates.csv"
        ).read_bytes()


@pytest.fixture(scope="module", params=[1, 3], ids=["K1", "K3"])
def k_fleet(request, tmp_path_factory):
    """(a synthetic fleet with K regimes, the sst model trained on it)."""
    k = request.param
    data = tmp_path_factory.mktemp(f"synth_k{k}")
    assert main(["synth", "--out", str(data), "--units", "8", "--n-regimes", str(k),
                 "--seed", "2", "--min-cycles", "70", "--max-cycles", "100"]) == EXIT_OK
    model = tmp_path_factory.mktemp(f"model_k{k}")
    assert main(["train", "--train", str(data / "train_synth.txt"), "--out", str(model)]
                + BENCH_FLAGS) == EXIT_OK
    return data, model


# finite values on the first line of unit 1 whose arithmetic overflows:
# column index -> token
HUGE_VALUES = {
    "settings-1e200": {2: "1e200", 3: "-1e200", 4: "1e200"},
    "sensor-1.7e308": {25: "1.7e308"},
}


def huge_copy(src, dst, tokens):
    """src with the first line's fields set to tokens, written to dst."""
    first, rest = src.read_text().split("\n", 1)
    fields_ = first.split()
    for column, token in tokens.items():
        fields_[column] = token
    dst.write_text(" ".join(fields_) + "\n" + rest)
    return dst


class TestOverflowingValues:
    """A finite value whose arithmetic overflows ends the run with exit 3,
    one stderr line and no numpy warning (the suite makes a RuntimeWarning
    an error), and leaves no output directory."""

    @staticmethod
    def check_exits_3(argv, out, capsys, message):
        assert main(argv) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical error: ") and err.count("\n") == 1, err
        assert message in err
        assert not out.exists()
        return err

    def test_train_and_benchmark_refuse_an_overflowing_normalizer(
        self, k_fleet, tmp_path, capsys
    ):
        # the std of a column with 1.7e308 overflows: the model written
        # held Infinity, which infer refused, and benchmark ran on with
        # the column zeroed
        data, _ = k_fleet
        train = huge_copy(data / "train_synth.txt", tmp_path / "train.txt",
                          HUGE_VALUES["sensor-1.7e308"])
        message = "feature mean or std overflows"
        out = tmp_path / "model"
        err = self.check_exits_3(["train", "--train", str(train), "--out", str(out)]
                                 + BENCH_FLAGS, out, capsys, message)
        assert err.startswith("numerical error: [train] regime ")
        out = tmp_path / "bench"
        assert err == self.check_exits_3(
            ["benchmark", "--train", str(train), "--test", str(data / "test_synth.txt"),
             "--rul", str(data / "RUL_synth.txt"), "--out", str(out)] + BENCH_FLAGS,
            out, capsys, message,
        )

    @pytest.mark.parametrize("command", ["infer", "benchmark"])
    @pytest.mark.parametrize("case", sorted(HUGE_VALUES))
    def test_overflowing_test_row_exits_3(self, k_fleet, tmp_path, capsys, command, case):
        # settings at 1e200 are infinitely far from every centroid: argmin
        # took regime 0 and changed the unit's estimate with exit 0
        data, model = k_fleet
        test = huge_copy(data / "test_synth.txt", tmp_path / "test.txt", HUGE_VALUES[case])
        out = tmp_path / "out"
        if command == "infer":
            argv = ["infer", "--model-dir", str(model), "--data", str(test),
                    "--out", str(out)]
        else:
            argv = ["benchmark", "--train", str(data / "train_synth.txt"),
                    "--test", str(test), "--rul", str(data / "RUL_synth.txt"),
                    "--out", str(out)] + BENCH_FLAGS
        message = ("settings distances" if case.startswith("settings")
                   else "non-finite subspace distance (overflow)")
        self.check_exits_3(argv, out, capsys, message)


def unit_fleet(path, unit_settings):
    """A fleet of one unit per list of settings vectors, one row a cycle,
    with random sensors on one 3-d subspace plus noise, whose healthy
    spectrum reads d = 3 in every regime; written to path."""
    rng = np.random.default_rng(0)
    basis = rng.standard_normal((3, N_SENSORS))
    arrays = [np.hstack([s, rng.standard_normal((len(s), 3)) @ basis
                         + 1e-3 * rng.standard_normal((len(s), N_SENSORS))])
              for s in map(np.array, unit_settings)]
    save_cmapss(TrajectorySet.stack(list(range(1, len(arrays) + 1)), arrays), path)
    return path


# how a regime too small to fit ends its message when the settings read K > 1
OUTLIER_HINT = (" (of %d regimes read from the settings; an outlying settings row "
                "reads as a regime of its own)")


class TestUntrainableRegimes:
    """A training fleet that leaves some regime too few healthy rows to fit
    its subspace or no settings row at all, or whose rows all sit at
    distance 0 (a degenerate fleet),
    ends train and benchmark with exit 2, one stderr line and
    no numpy warning (the suite makes a RuntimeWarning an error), and
    leaves no output directory."""

    @staticmethod
    def check_exits_2(command, train, test_dir, tmp_path, capsys, message, extra=()):
        out = tmp_path / "out"
        argv = [command, "--train", str(train), "--out", str(out), *extra]
        if command == "benchmark":
            argv += ["--test", str(test_dir / "test_synth.txt"),
                     "--rul", str(test_dir / "RUL_synth.txt")]
        assert main(argv) == EXIT_DATA
        assert capsys.readouterr().err == f"error: [train] {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "benchmark"])
    def test_overflowing_kmeans_distance_leaves_no_warning(self, tmp_path, capsys, command):
        # settings at +-5e153 are 3e308 apart in squared distance, which
        # overflowed inside the k-means loop with a numpy warning
        data = tmp_path / "synth"
        assert main(["synth", "--out", str(data), "--units", "6", "--seed", "1",
                     "--n-regimes", "2", "--min-cycles", "60", "--max-cycles", "80"]) == EXIT_OK
        lines = (data / "train_synth.txt").read_text().splitlines()
        for lineno, token in ((6, "5e153"), (7, "-5e153")):
            fields_ = lines[lineno - 1].split()
            fields_[2:2 + N_SETTINGS] = [token] * N_SETTINGS
            lines[lineno - 1] = " ".join(fields_)
        train = tmp_path / "train.txt"
        train.write_text("\n".join(lines) + "\n")
        # four vectors apart read four regimes: the two rows seed their own
        self.check_exits_2(
            command, train, data, tmp_path, capsys,
            "regime 1: 1 healthy rows cannot initialize a 3-dimensional subspace"
            + OUTLIER_HINT % 4,
        )

    @pytest.mark.parametrize("command", ["train", "benchmark"])
    @pytest.mark.parametrize("k", [1, 3], ids=["K1", "K3"])
    def test_too_few_healthy_rows_exit_2(self, synth_dir, tmp_path, capsys, command, k):
        a, b, c = [10.0, 0.2, 100.0], [20.0, 0.5, 60.0], [35.0, 0.8, 80.0]
        if k == 1:
            # the d one regime's spectrum reads is below its row count, so
            # only a single row, one unit of one cycle, is too few
            settings_, message = [[a]], "regime 0: 1 healthy rows cannot initialize a 1"
            hint = ""
        else:  # settings c appear only after the 20 healthy cycles
            settings_ = [[a, b] * 10 + [a, b, c] * 7] * 3
            centroids, _ = cluster_regimes(np.vstack(settings_))
            message = (f"regime {nearest_centroid(centroids, c)[0]}: 0 healthy rows "
                       "cannot initialize a 3")  # the d of regimes a and b
            hint = OUTLIER_HINT % 3
        train = unit_fleet(tmp_path / "train.txt", settings_)
        self.check_exits_2(
            command, train, synth_dir, tmp_path, capsys,
            f"{message}-dimensional subspace{hint}",
        )

    @pytest.mark.parametrize("command", ["train", "benchmark"])
    @pytest.mark.parametrize("off", [1e-4, 1e3], ids=["near", "far"])
    def test_one_settings_outlier_exits_2_naming_it(
        self, tmp_path, capsys, synth_dir, command, off
    ):
        # one condition, exact but for one row: any offset reads that row
        # as a regime of its own (a zero radius at two seeds), whose single
        # row cannot fit a subspace; the message names the likely cause
        a = [100.0, 0.0, 0.0]
        outlier = [100.0 + off, 0.0, 0.0]
        train = unit_fleet(tmp_path / "train.txt",
                           [[a] * 40, [a] * 5 + [outlier] + [a] * 34, [a] * 40])
        self.check_exits_2(
            command, train, synth_dir, tmp_path, capsys,
            "regime 1: 1 healthy rows cannot initialize a 3-dimensional subspace"
            + OUTLIER_HINT % 2,
        )

    @pytest.mark.parametrize("command", ["train", "benchmark"])
    def test_settings_too_close_to_tell_apart_exit_2_naming_the_cause(
        self, synth_dir, tmp_path, capsys, command
    ):
        # 0 and 3e-162 seed two regimes (squared distance 1e-323), but the
        # 1.5e-162 rows' mean lies too near both for any squared distance to
        # it to be above 0: every row ties to regime 0, and the error says so
        # before any regime is fitted, not "regime 1: 0 healthy rows ..."
        near = [[1.5e-162, 0.0, 0.0]] * 40
        train = unit_fleet(tmp_path / "train.txt",
                           [[[0.0, 0, 0], [3e-162, 0, 0]] + near[2:], near, near])
        self.check_exits_2(
            command, train, synth_dir, tmp_path, capsys,
            "regime 1 holds no settings row at 2 clusters: its centroid is nearest "
            "no row, as when settings lie too close to tell apart",
        )

    @pytest.mark.parametrize(
        "command,mode", [("train", "sst"), ("train", "sst-lr"), ("benchmark", "sst")]
    )
    def test_degenerate_fleet_exits_2(self, synth_dir, tmp_path, capsys, command, mode):
        # 5 units of 40 identical rows: every row sits at distance 0, so the
        # health index has no scale to map distances onto
        rows = np.tile([10.0, 0.2, 100.0, *range(1, N_SENSORS + 1)], (40, 1))
        train = tmp_path / "train.txt"
        save_cmapss(TrajectorySet.stack([1, 2, 3, 4, 5], [rows] * 5), train)
        self.check_exits_2(
            command, train, synth_dir, tmp_path, capsys,
            "degenerate fleet: failure-level distance 0.0 does not exceed healthy level 0.0",
            ["--mode", mode],
        )


def test_benchmark_and_infer_leave_scipy_unimported(synth_dir, model_dir, tmp_path):
    # importing scipy.signal alone raises peak RSS by ~75 MB, more than a
    # whole single-unit infer uses
    data = [str(synth_dir / n) for n in ("train_synth.txt", "test_synth.txt",
                                          "RUL_synth.txt")]
    runs = {
        "benchmark": ["benchmark", "--train", data[0], "--test", data[1],
                      "--rul", data[2], "--out", str(tmp_path / "bench")]
        + BENCH_FLAGS,
        "infer": ["infer", "--model-dir", str(model_dir), "--data", data[1],
                  "--rul", data[2], "--out", str(tmp_path / "infer")],
    }
    for name, argv in runs.items():
        code = (
            "import sys; from subtrack.cli import main; "
            f"assert main({argv!r}) == 0; "
            "assert 'scipy' not in sys.modules, 'imported'"
        )
        proc = run_fresh_interpreter("-c", code)
        assert proc.returncode == 0, (name, proc.stderr)


def run_commands_then_check_unimported(synth_dir, tmp_path, n_regimes, module):
    """train, infer and benchmark on a fleet of n_regimes in one fresh
    interpreter that then asserts module was never imported."""
    data = synth_dir
    if n_regimes > 1:
        data = tmp_path / "synth"
        assert main(["synth", "--out", str(data), "--units", "6", "--seed", "3",
                     "--n-regimes", str(n_regimes), "--min-cycles", "70",
                     "--max-cycles", "100"]) == EXIT_OK
    train, test, truth = (str(data / n) for n in ("train_synth.txt", "test_synth.txt",
                                                  "RUL_synth.txt"))
    model = str(tmp_path / "model")
    runs = [
        ["train", "--train", train, "--out", model] + BENCH_FLAGS,
        ["infer", "--model-dir", model, "--data", test, "--rul", truth,
         "--out", str(tmp_path / "infer")],
        ["benchmark", "--train", train, "--test", test, "--rul", truth,
         "--out", str(tmp_path / "bench")] + BENCH_FLAGS,
    ]
    code = (
        "import sys; from subtrack.cli import main; "
        f"assert [main(argv) for argv in {runs!r}] == [0, 0, 0]; "
        f"assert {module!r} not in sys.modules, 'imported'"
    )
    return run_fresh_interpreter("-c", code)


@pytest.mark.parametrize("n_regimes", [1, 2])
def test_commands_leave_numpy_random_unimported(synth_dir, tmp_path, n_regimes):
    # K=1 regimes come in closed form and farthest-point seeding draws
    # nothing; importing numpy.random costs ~6 MB RSS
    proc = run_commands_then_check_unimported(synth_dir, tmp_path, n_regimes, "numpy.random")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("n_regimes", [1, 2])
def test_commands_leave_numpy_ma_unimported(synth_dir, tmp_path, n_regimes):
    # np.median's NaN check imports numpy.ma: ~17 ms and 1.25 MB RSS per process
    proc = run_commands_then_check_unimported(synth_dir, tmp_path, n_regimes, "numpy.ma")
    assert proc.returncode == 0, proc.stderr


def test_jittered_settings_read_their_regimes_leaving_numpy_ma_unimported(tmp_path):
    # every row's settings apart: seeding runs to MAX_REGIMES and reads K at
    # the gap, with no sort of the rows, so numpy.ma (~17 ms and 1.25 MB RSS
    # per process, imported by np.unique(axis=0)) stays out
    train = generate_synthetic(
        SynthConfig(n_units=4, n_regimes=3, seed=1, min_cycles=40, max_cycles=60)
    )[0]
    matrix = train.matrix.copy()
    matrix[:, :N_SETTINGS] += np.random.default_rng(0).normal(0, 0.01, (len(matrix), N_SETTINGS))
    data = tmp_path / "train.txt"
    save_cmapss(TrajectorySet(matrix, train.unit_ids, train.bounds), data)
    model = tmp_path / "model"
    argv = ["train", "--train", str(data), "--out", str(model)]
    code = (
        "import sys; from subtrack.cli import main; "
        f"rc = main({argv!r}); "
        "assert 'numpy.ma' not in sys.modules, 'imported'; sys.exit(rc)"
    )
    proc = run_fresh_interpreter("-c", code)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert proc.stdout == f"trained on 4 units, 3 regimes, subspace dim 3 -> {model}\n"


# numpy subpackages that `import numpy` leaves unloaded and subtrack never needs
UNNEEDED_NUMPY = ("numpy.ma", "numpy.random", "numpy.fft", "numpy.polynomial")


def test_cli_import_adds_only_stdlib_and_subtrack():
    code = (
        "import json, sys, numpy; before = set(sys.modules); import subtrack.cli; "
        "print(json.dumps([sorted(set(sys.modules) - before), sorted(sys.modules)]))"
    )
    proc = run_fresh_interpreter("-c", code)
    assert proc.returncode == 0, proc.stderr
    added, loaded = json.loads(proc.stdout)
    assert "subtrack.cli" in added
    foreign = [m for m in added
               if m.split(".")[0] not in sys.stdlib_module_names | {"subtrack"}]
    assert foreign == []
    assert [m for m in loaded if ".".join(m.split(".")[:2]) in UNNEEDED_NUMPY] == []
    assert [m for m in loaded if m in FIT_ONLY] == []


# the modules that only train, benchmark and synth import, inside the command
FIT_ONLY = ("subtrack.fit", "subtrack.synthetic", "subtrack.evaluation")

# a sitecustomize module that records whether GC is on as each package module
# is imported and when the __main__ module's main() starts, then the package
# modules loaded, once the interpreter starts to shut down
START_PROBE = """\
import atexit, gc, json, sys

imports, started = [], []


class Probe:
    def find_spec(self, name, path=None, target=None):
        if name.startswith("subtrack.") and name != "subtrack.cli":
            imports.append([name, gc.isenabled()])
        return None


def on_call(frame, event, arg):
    if (event == "call" and frame.f_code.co_name == "main"
            and frame.f_globals.get("__name__") == "__main__"):
        started.append([gc.isenabled(), gc.get_freeze_count()])
        sys.setprofile(None)


sys.meta_path.insert(0, Probe())
sys.setprofile(on_call)
atexit.register(lambda: print(json.dumps(
    [imports, started, [m for m in sys.modules if m.startswith("subtrack.")]]), file=sys.stderr))
"""


def test_single_unit_infer_imports_the_scoring_path_with_gc_off(synth_dir, model_dir, tmp_path):
    # the per-engine call loads no fitting, benchmark or generator code, and
    # no collector pass runs over the objects the imports make: they run
    # with GC off, and main() starts with GC on and those objects frozen
    tset = load_cmapss(synth_dir / "test_synth.txt")
    unit = tmp_path / "unit.txt"
    save_cmapss(TrajectorySet.stack(tset.unit_ids[:1], [next(iter(tset))]), unit)
    (tmp_path / "probe").mkdir()
    (tmp_path / "probe" / "sitecustomize.py").write_text(START_PROBE)
    proc = run_fresh_interpreter(
        "-m", "subtrack.cli", "infer", "--model-dir", str(model_dir), "--data", str(unit),
        "--out", str(tmp_path / "out"), path=[tmp_path / "probe"])
    assert proc.returncode == EXIT_OK, proc.stderr
    imports, started, loaded = json.loads(proc.stderr.splitlines()[-1])
    assert {"subtrack.dataset", "subtrack.persist", "subtrack.pipeline"} <= dict(imports).keys()
    assert [name for name, enabled in imports if enabled] == []
    [[enabled, frozen]] = started
    assert enabled and frozen > 0
    assert [m for m in loaded if m in FIT_ONLY] == []


# argv of one run per exit code, from the synth fleet and a scratch directory
EXIT_RUNS = {
    "success": (EXIT_OK, lambda synth, tmp: [
        "synth", "--out", str(tmp / "synth"), "--units", "3",
        "--min-cycles", "40", "--max-cycles", "50"]),
    "usage": (EXIT_USAGE, lambda synth, tmp: ["train", "--bogus"]),
    "missing-file": (EXIT_DATA, lambda synth, tmp: [
        "train", "--train", str(tmp / "nope.txt"), "--out", str(tmp / "model")]),
    "overflow": (EXIT_NUMERICAL, lambda synth, tmp: [
        "train", "--train", str(synth / "train_synth.txt"),
        "--out", str(tmp / "model"), "--delta", "1e307"]),
}

# a sitecustomize module that reports the GC freeze count once the
# interpreter starts to shut down
FREEZE_PROBE = """\
import atexit, gc, sys
atexit.register(lambda: print(f"freeze count {gc.get_freeze_count()}", file=sys.stderr))
"""


class TestExitPath:
    @pytest.mark.parametrize("case", sorted(EXIT_RUNS))
    def test_module_run_exits_as_main_returns(self, synth_dir, tmp_path, capsys, case):
        code, make_argv = EXIT_RUNS[case]
        argv = make_argv(synth_dir, tmp_path)
        assert main(argv) == code
        expected = capsys.readouterr()
        proc = run_fresh_interpreter("-m", "subtrack.cli", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, expected.out, expected.err)

    @pytest.mark.parametrize("case", ["success", "usage"])
    def test_main_leaves_gc_unfrozen(self, synth_dir, tmp_path, case):
        code, make_argv = EXIT_RUNS[case]
        assert main(make_argv(synth_dir, tmp_path)) == code
        assert gc.get_freeze_count() == 0

    def test_module_run_freezes_before_exit(self, tmp_path):
        (tmp_path / "probe").mkdir()
        (tmp_path / "probe" / "sitecustomize.py").write_text(FREEZE_PROBE)
        _, make_argv = EXIT_RUNS["success"]
        proc = run_fresh_interpreter(
            "-m", "subtrack.cli", *make_argv(None, tmp_path), path=[tmp_path / "probe"])
        assert proc.returncode == EXIT_OK, proc.stderr
        count = proc.stderr.splitlines()[-1].removeprefix("freeze count ")
        assert int(count) > 0


# the flag each retired config field had: train and benchmark refuse it, but
# --n-regimes, which scripts written while K was a field still pass
RETIRED_FLAGS = sorted("--" + name.replace("_", "-") for name in RETIRED_FIELDS - {"n_regimes"})


class TestUsage:
    def test_no_command(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_flag(self):
        assert main(["train", "--bogus"]) == EXIT_USAGE

    @pytest.mark.parametrize("flag", RETIRED_FLAGS)
    def test_trainer_flags_are_gone(self, tmp_path, capsys, flag):
        rc = main(["train", "--train", str(tmp_path / "t.txt"),
                   "--out", str(tmp_path / "model"), flag, "0.1"])
        assert rc == EXIT_USAGE
        assert f"unrecognized arguments: {flag} 0.1" in capsys.readouterr().err
        assert not (tmp_path / "model").exists()

    @pytest.mark.parametrize("flag", RETIRED_FLAGS)
    def test_retired_flags_are_gone_from_benchmark(self, tmp_path, capsys, flag):
        t = str(tmp_path / "t.txt")
        rc = main(["benchmark", "--train", t, "--test", t, "--rul", t,
                   "--out", str(tmp_path / "out"), flag, "0.1"])
        assert rc == EXIT_USAGE
        assert f"unrecognized arguments: {flag} 0.1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_n_regimes_flag_parses_and_is_ignored(self, tmp_path, capsys):
        # K is read from the settings, whatever the flag says; a flag naming
        # another K gets one warning
        data = tmp_path / "synth"
        assert main(["synth", "--out", str(data), "--units", "6", "--n-regimes", "6",
                     "--seed", "1", "--min-cycles", "60", "--max-cycles", "80"]) == EXIT_OK
        capsys.readouterr()
        models = {}
        for flags, err in ((["--n-regimes", "2"], "warning: --n-regimes 2 ignored: the "
                            "settings read 6 regimes\n"), (["--n-regimes", "6"], ""), ([], "")):
            out = tmp_path / ("model" + "".join(flags))
            assert main(["train", "--train", str(data / "train_synth.txt"), "--out", str(out),
                         *flags] + BENCH_FLAGS) == EXIT_OK
            assert capsys.readouterr() == (
                f"trained on 6 units, 6 regimes, subspace dim 3 -> {out}\n", err)
            models[out] = {p.name: p.read_bytes() for p in out.iterdir()}
        first, *others = models.values()
        assert set(first) == MODEL_DIR_FILES
        assert all(other == first for other in others)
        assert len(json.loads(first["model.json"])["members"]) == 6

    @pytest.mark.parametrize("command", ["train", "benchmark"])
    def test_n_regimes_flag_takes_only_a_whole_number(self, tmp_path, capsys, command):
        t = str(tmp_path / "t.txt")
        argv = [command, "--train", t, "--out", str(tmp_path / "out"), "--n-regimes", "six"]
        if command == "benchmark":
            argv += ["--test", t, "--rul", t]
        assert main(argv) == EXIT_USAGE
        assert "--n-regimes: invalid int value: 'six'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_from_dict_drops_only_the_trainer_fields(self):
        doc = {"tau2": 30, "alpha": 0.5, "eta": 0.1, "max_epochs": 7, "rel_tol": 1e-3}
        assert RunConfig.from_dict(doc) == RunConfig(tau2=30)
        with pytest.raises(ValidationError, match="unknown config fields"):
            RunConfig.from_dict({"tau2": 30, "epochs": 7})

    @pytest.mark.parametrize("command", ["train", "benchmark"])
    def test_every_config_field_has_a_flag(self, command):
        # a valid config where every field differs from its default
        wanted = RunConfig(
            mode="sst-lr", delta=0.02,
            healthy_cycles=15, tau1=2, tau2=30, smoothing=0.5,
        )
        argv = [command, "--train", "t", "--out", "o"]
        if command == "benchmark":
            argv += ["--test", "t", "--rul", "r"]
        for f in fields(RunConfig):
            value = getattr(wanted, f.name)
            assert value != f.default, f.name
            argv += ["--" + f.name.replace("_", "-"), str(value)]
        assert _build_config(build_parser().parse_args(argv)) == wanted
