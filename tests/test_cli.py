import gc
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import subtrack
from subtrack import evaluation, persist, rul
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
from subtrack.dataset import (
    N_SENSORS,
    N_SETTINGS,
    SynthConfig,
    TrajectorySet,
    generate_synthetic,
    load_cmapss,
    save_cmapss,
)
from subtrack.errors import ValidationError


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


BENCH_FLAGS = ["--tau2", "20", "--seed", "3"]
RETRAIN = "model format version {} is no longer read; retrain with 'subtrack train'"


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
        for name in ("model.json", "scaler.json", "normalizer.json",
                     "config.json", "train_curves.csv", "error_trace.csv",
                     *(name for name, _, _ in persist.LIBRARY_FILES.values())):
            assert (out / name).exists()
        assert not (out / "regressor.json").exists()

    def test_sst_lr_writes_regressor(self, synth_dir, tmp_path):
        out = tmp_path / "model"
        rc = main(
            ["train", "--train", str(synth_dir / "train_synth.txt"),
             "--out", str(out), "--mode", "sst-lr"] + BENCH_FLAGS
        )
        assert rc == EXIT_OK
        assert (out / "regressor.json").exists()

    def test_missing_input_no_partial_files(self, tmp_path):
        out = tmp_path / "model"
        rc = main(["train", "--train", str(tmp_path / "nope.txt"),
                   "--out", str(out)])
        assert rc == EXIT_DATA
        assert not out.exists()

    def test_config_file_with_flag_override(self, synth_dir, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"tau2": 25, "seed": 9}))
        out = tmp_path / "model"
        rc = main(
            ["train", "--train", str(synth_dir / "train_synth.txt"),
             "--out", str(out), "--config", str(cfg_file), "--seed", "3"]
        )
        assert rc == EXIT_OK
        saved = json.loads((out / "config.json").read_text())
        assert saved["tau2"] == 25  # from file
        assert saved["seed"] == 3  # flag wins

    def test_overflowing_settings_exit_3_tagged_with_stage(self, tmp_path):
        # finite settings whose squared distances overflow the k-means++ total
        train = generate_synthetic(
            SynthConfig(n_units=4, n_regimes=2, min_cycles=40, max_cycles=50)
        )[0]
        matrix = train.matrix.copy()
        matrix[:, :N_SETTINGS] *= 1e160
        data = tmp_path / "train.txt"
        save_cmapss(TrajectorySet(matrix, train.unit_ids, train.bounds), data)
        argv = ["train", "--train", str(data), "--out", str(tmp_path / "model"),
                "--n-regimes", "2"]
        proc = run_fresh_interpreter(
            "-c", f"import sys; from subtrack.cli import main; sys.exit(main({argv!r}))"
        )
        assert proc.returncode == EXIT_NUMERICAL
        assert proc.stderr == (
            "numerical error: [train] k-means++ seeding: "
            "squared settings distances overflow\n"
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
        # the retired fields, as config files written for the epoch trainer hold them
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(
            {"alpha": 0.5, "eta": 0.0, "max_epochs": 5, "rel_tol": 1e-3,
             "include_settings": None, "seed": 9}
        ))
        out = tmp_path / "model"
        rc = main(
            ["train", "--train", str(synth_dir / "train_synth.txt"),
             "--out", str(out), "--config", str(cfg_file)]
        )
        assert rc == EXIT_OK
        saved = json.loads((out / "config.json").read_text())
        assert saved["seed"] == 9
        assert not set(saved) & set(RETIRED_FIELDS)

    def test_config_file_with_unknown_key_exits_2(self, synth_dir, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"max_epoch": 5, "seed": 9}))
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

    @pytest.mark.parametrize(
        "delta, message",
        [("1e308", "non-finite subspace distance (overflow)"),
         ("1e307", "healthy-level distance overflows"),
         ("1e306", "mean healthy distance overflows")],
    )
    def test_overflowing_distance_exits_3(
        self, synth_dir, tmp_path, capsys, delta, message
    ):
        rc = main(["train", "--train", str(synth_dir / "train_synth.txt"),
                   "--out", str(tmp_path / "model"), "--delta", delta])
        assert rc == EXIT_NUMERICAL
        assert capsys.readouterr().err == f"numerical error: [train] {message}\n"
        assert not (tmp_path / "model").exists()

    @pytest.mark.parametrize(
        "text", ['{"seed": 1', "[1, 2]"], ids=["malformed", "not-an-object"]
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
            ({"include_settings": "yes"}, "include_settings"),
        ],
        ids=["string-smoothing", "float-healthy-cycles", "string-include-settings"],
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
            (["--subspace-dim", "0"], "subspace_dim must be >= 1"),
            (["--n-regimes", "2", "--seed", "-1"], "seed must be >= 0"),
            (["--tau2", "-5"], "need 0 <= tau1 <= tau2"),
            (["--beta", "0"], "beta must be positive"),
            (["--beta", "nan"], "beta must be a finite number, got nan"),
        ],
        ids=["subspace-dim-0", "negative-seed", "negative-tau2", "beta-0", "beta-nan"],
    )
    def test_out_of_range_flag_exits_2_naming_field(
        self, tmp_path, capsys, flags, message
    ):
        # a two-regime fleet, so a negative seed reaches the k-means generator
        data = tmp_path / "synth"
        assert main(["synth", "--out", str(data), "--units", "4", "--n-regimes", "2",
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

    def test_healthy_window_sigma_high(self, synth_dir, model_dir, tmp_path):
        rc = main(
            ["infer", "--model-dir", str(model_dir),
             "--data", str(synth_dir / "train_synth.txt"),
             "--out", str(tmp_path)]
        )
        assert rc == EXIT_OK
        sigmas = {}
        for line in (tmp_path / "hi_curves.csv").read_text().splitlines()[1:]:
            unit, cycle, _, _, sigma = line.split(",")
            if int(cycle) <= 20:
                sigmas.setdefault(int(unit), []).append(float(sigma))
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

        monkeypatch.setattr(evaluation, "infer_curves", refuse)
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
        doc = json.loads((broken / "model.json").read_text())
        doc["models"][0]["lambdas"][0] = -3.0
        (broken / "model.json").write_text(json.dumps(doc))
        assert self.infer_rc(synth_dir, broken, tmp_path / "out") == EXIT_DATA
        # a member document alone is not a K-model document
        (broken / "model.json").write_text(json.dumps(doc["models"][0]))
        assert self.infer_rc(synth_dir, broken, tmp_path / "out") == EXIT_DATA

    def test_version_mismatch_rejected(self, synth_dir, model_dir, tmp_path):
        broken = tmp_path / "versioned"
        shutil.copytree(model_dir, broken)
        doc = json.loads((broken / "model.json").read_text())
        doc["version"] = 42
        (broken / "model.json").write_text(json.dumps(doc))
        assert self.infer_rc(synth_dir, broken, tmp_path / "out") == EXIT_DATA

    @pytest.mark.parametrize("where", ["top", "member"])
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
            (5, "unsupported model format version 5"),
            (1, RETRAIN.format(1)),
            # a version 2 library is smoothed twice, and in sst-lr mode is
            # not the index the queries carry
            (2, RETRAIN.format(2)),
            # a version 3 regressor reads the d projections, not the row
            (3, RETRAIN.format(3)),
        ],
        ids=["true", "2.0", "str-2", "3.0", "str-3", "4.0", "str-4", "5", "1", "2", "3"],
    )
    def test_unsupported_version_exits_2_naming_model_json(
        self, synth_dir, model_dir, tmp_path, capsys, version, message, where
    ):
        # without library files, as version 1 wrote a directory: the version
        # is refused before any of them is looked for
        broken = tmp_path / "broken"
        shutil.copytree(model_dir, broken)
        for name, _, _ in persist.LIBRARY_FILES.values():
            (broken / name).unlink()
        doc = json.loads((broken / "model.json").read_text())
        (doc if where == "top" else doc["models"][0])["version"] = version
        (broken / "model.json").write_text(json.dumps(doc))
        assert self.infer_rc(synth_dir, broken, tmp_path / "out") == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{broken / 'model.json'}: {message}" in err
        assert "Traceback" not in err

    def test_single_model_document_exits_2_with_retrain_message(
        self, synth_dir, model_dir, tmp_path, capsys
    ):
        member = json.loads((model_dir / "model.json").read_text())["models"][0]
        legacy = tmp_path / "legacy"
        shutil.copytree(model_dir, legacy)
        # the documented keys of a version 1 single-model model.json
        (legacy / "model.json").write_text(json.dumps({
            "version": 1,
            "D": member["D"],
            "d": member["d"],
            "delta": member["delta"],
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
        doc = json.loads((d / "model.json").read_text())
        doc["models"][0]["U1"][1].pop()
        (d / "model.json").write_text(json.dumps(doc))
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
    def _pickled_unit_ids(d):
        path = d / "library_unit_ids.npy"
        np.save(path, np.load(path).astype(object), allow_pickle=True)
        return "library_unit_ids.npy"

    @staticmethod
    def _length_past_width(d):
        path = d / "library_lengths.npy"
        lengths = np.load(path)
        lengths[3] = np.load(d / "library_sigma.npy").shape[1] + 1
        np.save(path, lengths)
        return "library_lengths.npy"

    @staticmethod
    def _swapped_unit_ids(d):
        path = d / "library_unit_ids.npy"
        ids = np.load(path)
        ids[[0, 1]] = ids[[1, 0]]
        np.save(path, ids)
        return "library_unit_ids.npy"

    @staticmethod
    def _missing_library(d):
        (d / "library_sigma.npy").unlink()
        return "library_sigma.npy"

    @pytest.mark.parametrize(
        "corrupt",
        ["_truncate_library", "_flatten_library", "_float32_library",
         "_pickled_unit_ids", "_length_past_width", "_swapped_unit_ids",
         "_missing_library"],
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
        "name, edit, message",
        [
            ("scaler.json", lambda doc: doc.update(ceiling=math.inf),
             "need finite ceiling > floor >= 0"),
            ("model.json", lambda doc: doc["models"][0].update(delta=math.inf),
             "delta must be positive and finite"),
        ],
        ids=["scaler-ceiling", "model-delta"],
    )
    def test_non_finite_parameter_exits_2_naming_file(
        self, synth_dir, model_dir, tmp_path, capsys, name, edit, message
    ):
        # either value loads as a float and would give finite but meaningless
        # curves or similarities
        broken = tmp_path / "broken"
        shutil.copytree(model_dir, broken)
        doc = json.loads((broken / name).read_text())
        edit(doc)
        (broken / name).write_text(json.dumps(doc))  # writes Infinity
        assert self.infer_rc(synth_dir, broken, tmp_path / "out") == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{broken / name}: " in err and message in err
        assert "Traceback" not in err

    def test_infer_never_reads_train_curves(self, synth_dir, model_dir, tmp_path):
        stripped = tmp_path / "stripped"
        shutil.copytree(model_dir, stripped)
        (stripped / "train_curves.csv").unlink()
        for d, out in ((model_dir, "a"), (stripped, "b")):
            assert self.infer_rc(synth_dir, d, tmp_path / out) == EXIT_OK
        for name in ("hi_curves.csv", "rul_estimates.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_sst_directory_never_reads_regressor_json(
        self, synth_dir, model_dir, tmp_path
    ):
        # save_pipeline writes no regressor in sst mode; a stray file used
        # to be loaded onto the pipeline (or, malformed, to exit 2)
        stray = tmp_path / "stray"
        shutil.copytree(model_dir, stray)
        (stray / "regressor.json").write_text("not a regressor")
        assert persist.load_pipeline(stray).regressor is None
        for d, out in ((model_dir, "a"), (stray, "b")):
            assert self.infer_rc(synth_dir, d, tmp_path / out) == EXIT_OK
        for name in ("hi_curves.csv", "rul_estimates.csv"):
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
        assert "underflow" not in err

    def test_underflow_units_listed_on_stderr(
        self, synth_dir, tmp_path, capsys
    ):
        model = tmp_path / "model"
        rc = main(
            ["train", "--train", str(synth_dir / "train_synth.txt"),
             "--out", str(model), "--beta", "1e-9"] + BENCH_FLAGS
        )
        assert rc == EXIT_OK
        assert self.infer_rc(synth_dir, model, tmp_path / "out") == EXIT_OK
        underflowed = [int(r["unit_id"]) for r in estimate_rows(tmp_path / "out")
                       if float(r["sum_similarity"]) == 0.0]
        assert underflowed
        err = capsys.readouterr().err
        assert warned_units(err, "every similarity underflowed") == underflowed
        assert "no valid match" not in err

    def test_config_with_trainer_keys_infers_identically(
        self, synth_dir, model_dir, tmp_path
    ):
        # config.json as train wrote it while it ran the epoch trainer
        legacy = tmp_path / "legacy"
        shutil.copytree(model_dir, legacy)
        doc = json.loads((legacy / "config.json").read_text())
        assert not set(doc) & set(RETIRED_FIELDS)
        doc.update(alpha=0.87, eta=0.01, max_epochs=100, rel_tol=1e-4, include_settings=None)
        (legacy / "config.json").write_text(json.dumps(doc, indent=2, sort_keys=True))
        assert persist.load_pipeline(legacy).config == (
            persist.load_pipeline(model_dir).config
        )

        assert self.infer_rc(synth_dir, model_dir, tmp_path / "new") == EXIT_OK
        assert self.infer_rc(synth_dir, legacy, tmp_path / "old") == EXIT_OK
        for name in ("hi_curves.csv", "rul_estimates.csv"):
            assert (tmp_path / "old" / name).read_bytes() == (
                tmp_path / "new" / name
            ).read_bytes()

    def test_model_with_overflowing_delta_exits_3(
        self, synth_dir, model_dir, tmp_path, capsys
    ):
        huge = tmp_path / "huge"
        shutil.copytree(model_dir, huge)
        for name in ("model.json", "config.json"):
            doc = json.loads((huge / name).read_text())
            for m in doc.get("models", [doc]):
                m["delta"] = 1e308
            (huge / name).write_text(json.dumps(doc))
        assert self.infer_rc(synth_dir, huge, tmp_path / "out") == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical error: non-finite subspace distance (overflow)\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [True, False])
    def test_config_with_set_include_settings_exits_2_naming_file(
        self, synth_dir, model_dir, tmp_path, capsys, value
    ):
        # trained with the settings switch set: the model's dimension may
        # not be the one the n_regimes rule gives
        broken = tmp_path / "broken"
        shutil.copytree(model_dir, broken)
        doc = json.loads((broken / "config.json").read_text())
        doc["include_settings"] = value
        (broken / "config.json").write_text(json.dumps(doc))
        assert self.infer_rc(synth_dir, broken, tmp_path / "out") == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {broken / 'config.json'}: include_settings must be null: settings "
            f"are tracked exactly when n_regimes is 1, got {value}\n"
        )
        assert not (tmp_path / "out").exists()

    def test_config_with_unknown_key_exits_2_naming_file(
        self, synth_dir, model_dir, tmp_path, capsys
    ):
        broken = tmp_path / "broken"
        shutil.copytree(model_dir, broken)
        doc = json.loads((broken / "config.json").read_text())
        doc["max_epoch"] = 100
        (broken / "config.json").write_text(json.dumps(doc))
        assert self.infer_rc(synth_dir, broken, tmp_path / "out") == EXIT_DATA
        assert "config.json: unknown config fields" in capsys.readouterr().err


@pytest.fixture(scope="module")
def lr_model_dir(tmp_path_factory):
    """An sst-lr model with K=3 regimes, which tracks no settings: its
    normalizer has 3 more columns than its subspaces' dimension."""
    data = tmp_path_factory.mktemp("synth3")
    assert main(["synth", "--out", str(data), "--units", "8", "--n-regimes", "3",
                 "--seed", "4", "--min-cycles", "80", "--max-cycles", "100"]) == EXIT_OK
    out = tmp_path_factory.mktemp("model3")
    assert main(["train", "--train", str(data / "train_synth.txt"), "--out", str(out),
                 "--mode", "sst-lr", "--n-regimes", "3"] + BENCH_FLAGS) == EXIT_OK
    return out


def _edit_table(name, edit):
    def corrupt(d):
        doc = json.loads((d / name).read_text())
        edit(doc)
        (d / name).write_text(json.dumps(doc))
    return corrupt


def _set_first(key, value):
    def edit(doc):
        doc[key][0][0] = value
    return edit


class TestFittedTables:
    """normalizer.json and regressor.json must fit model.json: K=3 rows,
    24 normalizer columns (21 tracked sensors and 3 settings) and 21 + 1
    regression weights, all finite and std > 0; model.json's centroids must
    have one finite column per setting; config.json must hold the model's
    K=3, d=3 and delta 0.01."""

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            ("regressor.json", lambda doc: doc.update(weights=doc["weights"][:2]),
             "weights has shape (2, 22), expected (3, 22)"),
            ("regressor.json", lambda doc: doc.update(weights=doc["weights"][0]),
             "weights has shape (22,), expected (3, 22)"),
            # the (K, d+1) weights of a version 3 regressor of the projections
            ("regressor.json",
             lambda doc: doc.update(weights=[row[:3] + row[-1:] for row in doc["weights"]]),
             "weights has shape (3, 4), expected (3, 22)"),
            ("regressor.json", _set_first("weights", float("nan")),
             "weights must be finite"),
            ("normalizer.json",
             lambda doc: doc.update({k: v[:2] for k, v in doc.items()}),
             "mean has shape (2, 24), expected (3, 24)"),
            ("normalizer.json",
             lambda doc: doc.update(mask=[row[1:] for row in doc["mask"]]),
             "mask has shape (3, 23), expected (3, 24)"),
            ("normalizer.json", _set_first("std", 0.0), "std must be finite and > 0"),
            ("normalizer.json", _set_first("std", float("inf")),
             "std must be finite and > 0"),
            ("normalizer.json", _set_first("mean", float("nan")), "mean must be finite"),
            ("model.json",
             lambda doc: doc.update(centroids=[c[:2] for c in doc["centroids"]]),
             "centroids has shape (3, 2), expected (3, 3)"),
            ("model.json", _set_first("centroids", float("nan")), "centroids must be finite"),
            ("config.json", lambda doc: doc.update(n_regimes=5),
             "n_regimes 5 does not match 3 in model.json"),
            ("config.json", lambda doc: doc.update(subspace_dim=2),
             "subspace_dim 2 does not match 3 in model.json"),
            ("config.json", lambda doc: doc.update(delta=0.02),
             "delta 0.02 does not match 0.01 in model.json"),
        ],
        ids=["regressor-2-rows", "regressor-1d", "regressor-projection-width",
             "regressor-nan", "normalizer-2-rows",
             "normalizer-23-mask-columns", "normalizer-zero-std", "normalizer-inf-std",
             "normalizer-nan-mean", "model-2-settings-columns", "model-nan-centroid",
             "config-5-regimes", "config-subspace-dim-2", "config-delta"],
    )
    def test_mismatched_table_exits_2_naming_file_before_data_is_read(
        self, lr_model_dir, tmp_path, capsys, name, edit, message
    ):
        broken = tmp_path / "broken"
        shutil.copytree(lr_model_dir, broken)
        _edit_table(name, edit)(broken)
        rc = main(["infer", "--model-dir", str(broken),
                   "--data", str(tmp_path / "no-such-file.txt"),
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert f"error: {broken / name}: {message}" in err
        assert "Traceback" not in err

    def test_sst_lr_directory_without_regressor_exits_2_naming_it(
        self, lr_model_dir, tmp_path, capsys
    ):
        broken = tmp_path / "broken"
        shutil.copytree(lr_model_dir, broken)
        (broken / "regressor.json").unlink()
        rc = main(["infer", "--model-dir", str(broken),
                   "--data", str(tmp_path / "no-such-file.txt"),
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert f"error: missing artifact {broken / 'regressor.json'}" in err

    def test_untouched_tables_load(self, lr_model_dir):
        pipe = persist.load_pipeline(lr_model_dir)
        assert pipe.normalizer.mean.shape == (3, 24)
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

    def test_report_shape(self, synth_dir, tmp_path):
        assert self.run_bench(synth_dir, tmp_path) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report) >= {"rmse", "score", "rows", "config", "n_units"}
        assert report["n_units"] == 10

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
             "--out", str(out), "--config", str(config), "--seed", "3"]
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

    def test_underflow_units_listed_on_stderr(self, synth_dir, tmp_path, capsys):
        assert self.run_bench(synth_dir, tmp_path / "a") == EXIT_OK
        assert "warning" not in capsys.readouterr().err
        rc = self.run_bench(synth_dir, tmp_path / "b", ["--beta", "1e-9"])
        assert rc == EXIT_OK
        underflowed = [int(r["unit_id"]) for r in estimate_rows(tmp_path / "b")
                       if float(r["sum_similarity"]) == 0.0]
        assert underflowed
        err = capsys.readouterr().err
        assert warned_units(err, "every similarity underflowed") == underflowed

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

    def test_subnormal_beta_underflows_without_numpy_warning(
        self, synth_dir, tmp_path, capsys
    ):
        # exp(-d2 / 5e-324): the quotient overflows to -inf, the documented underflow
        assert self.run_bench(synth_dir, tmp_path, ["--beta", "5e-324"]) == EXIT_OK
        units = [r["unit_id"] for r in estimate_rows(tmp_path)
                 if float(r["sum_similarity"]) == 0.0]
        assert capsys.readouterr().err == (
            "warning: every similarity underflowed, unweighted mean RUL for "
            f"{len(units)} units: {', '.join(units)}\n"
        )
        assert json.loads(  # strict JSON: no Infinity or NaN
            (tmp_path / "report.json").read_text(), parse_constant=pytest.fail
        )["n_units"] == 10

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
        assert (infer / "hi_curves.csv").read_bytes() == (
            bench / "hi_curves.csv"
        ).read_bytes()
        assert (infer / "rul_estimates.csv").read_bytes() == (
            bench / "rul_estimates.csv"
        ).read_bytes()


@pytest.fixture(scope="module", params=[1, 3], ids=["K1", "K3"])
def k_fleet(request, tmp_path_factory):
    """(K, a synthetic fleet with K regimes, the sst model trained on it)."""
    k = request.param
    data = tmp_path_factory.mktemp(f"synth_k{k}")
    assert main(["synth", "--out", str(data), "--units", "8", "--n-regimes", str(k),
                 "--seed", "2", "--min-cycles", "70", "--max-cycles", "100"]) == EXIT_OK
    model = tmp_path_factory.mktemp(f"model_k{k}")
    assert main(["train", "--train", str(data / "train_synth.txt"), "--out", str(model),
                 "--n-regimes", str(k)] + BENCH_FLAGS) == EXIT_OK
    return k, data, model


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
        k, data, _ = k_fleet
        train = huge_copy(data / "train_synth.txt", tmp_path / "train.txt",
                          HUGE_VALUES["sensor-1.7e308"])
        message = "feature mean or std overflows"
        out = tmp_path / "model"
        err = self.check_exits_3(["train", "--train", str(train), "--out", str(out),
                                  "--n-regimes", str(k)] + BENCH_FLAGS, out, capsys, message)
        assert err.startswith("numerical error: [train] regime ")
        out = tmp_path / "bench"
        assert err == self.check_exits_3(
            ["benchmark", "--train", str(train), "--test", str(data / "test_synth.txt"),
             "--rul", str(data / "RUL_synth.txt"), "--out", str(out),
             "--n-regimes", str(k)] + BENCH_FLAGS,
            out, capsys, message,
        )

    @pytest.mark.parametrize("command", ["infer", "benchmark"])
    @pytest.mark.parametrize("case", sorted(HUGE_VALUES))
    def test_overflowing_test_row_exits_3(self, k_fleet, tmp_path, capsys, command, case):
        # settings at 1e200 are infinitely far from every centroid: argmin
        # took regime 0 and changed the unit's estimate with exit 0
        k, data, model = k_fleet
        test = huge_copy(data / "test_synth.txt", tmp_path / "test.txt", HUGE_VALUES[case])
        out = tmp_path / "out"
        if command == "infer":
            argv = ["infer", "--model-dir", str(model), "--data", str(test),
                    "--out", str(out)]
        else:
            argv = ["benchmark", "--train", str(data / "train_synth.txt"),
                    "--test", str(test), "--rul", str(data / "RUL_synth.txt"),
                    "--out", str(out), "--n-regimes", str(k)] + BENCH_FLAGS
        message = ("settings distances" if case.startswith("settings")
                   else "non-finite subspace distance (overflow)")
        self.check_exits_3(argv, out, capsys, message)


def unit_fleet(path, unit_settings):
    """A fleet of one unit per list of settings vectors, one row a cycle,
    with random sensors; written to path."""
    rng = np.random.default_rng(0)
    arrays = [np.hstack([s, rng.standard_normal((len(s), N_SENSORS))])
              for s in map(np.array, unit_settings)]
    save_cmapss(TrajectorySet.stack(list(range(1, len(arrays) + 1)), arrays), path)
    return path


class TestUntrainableRegimes:
    """A training fleet that leaves some regime too few healthy rows to fit
    its subspace, or whose rows all sit at distance 0 (a degenerate fleet),
    ends train and benchmark with exit 2, one stderr line and
    no numpy warning (the suite makes a RuntimeWarning an error), and
    leaves no output directory."""

    @staticmethod
    def check_exits_2(command, train, test_dir, k, seed, tmp_path, capsys, message, extra=()):
        out = tmp_path / "out"
        argv = [command, "--train", str(train), "--out", str(out),
                "--n-regimes", str(k), "--seed", str(seed), *extra]
        if command == "benchmark":
            argv += ["--test", str(test_dir / "test_synth.txt"),
                     "--rul", str(test_dir / "RUL_synth.txt")]
        assert main(argv) == EXIT_DATA
        assert capsys.readouterr().err == f"error: [train] {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("command", ["train", "benchmark"])
    def test_overflowing_kmeans_distance_leaves_no_warning(
        self, tmp_path, capsys, command, seed
    ):
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
        self.check_exits_2(
            command, train, data, 2, seed, tmp_path, capsys,
            "regime 1: 1 healthy rows cannot initialize a 3-dimensional subspace",
        )

    @pytest.mark.parametrize("command", ["train", "benchmark"])
    @pytest.mark.parametrize("k", [1, 3], ids=["K1", "K3"])
    def test_too_few_healthy_rows_exit_2(self, synth_dir, tmp_path, capsys, command, k):
        a, b, c = [10.0, 0.2, 100.0], [20.0, 0.5, 60.0], [35.0, 0.8, 80.0]
        if k == 1:  # one unit of 3 cycles: 3 healthy rows for a 3-d subspace
            settings_, message = [[a] * 3], "regime 0: 3 healthy rows"
        else:  # settings c appear only after the 20 healthy cycles
            settings_ = [[a, b] * 10 + [a, b, c] * 7] * 3
            message = "regime 1: 0 healthy rows"
        train = unit_fleet(tmp_path / "train.txt", settings_)
        self.check_exits_2(
            command, train, synth_dir, k, 3, tmp_path, capsys,
            f"{message} cannot initialize a 3-dimensional subspace",
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
            command, train, synth_dir, 1, 3, tmp_path, capsys,
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
    """train, infer and benchmark at n_regimes in one fresh interpreter that
    then asserts module was never imported."""
    data = synth_dir
    if n_regimes > 1:
        data = tmp_path / "synth"
        assert main(["synth", "--out", str(data), "--units", "6", "--seed", "3",
                     "--n-regimes", str(n_regimes), "--min-cycles", "70",
                     "--max-cycles", "100"]) == EXIT_OK
    train, test, truth = (str(data / n) for n in ("train_synth.txt", "test_synth.txt",
                                                  "RUL_synth.txt"))
    model, k = str(tmp_path / "model"), ["--n-regimes", str(n_regimes)]
    runs = [
        ["train", "--train", train, "--out", model] + k + BENCH_FLAGS,
        ["infer", "--model-dir", model, "--data", test, "--rul", truth,
         "--out", str(tmp_path / "infer")],
        ["benchmark", "--train", train, "--test", test, "--rul", truth,
         "--out", str(tmp_path / "bench")] + k + BENCH_FLAGS,
    ]
    code = (
        "import sys; from subtrack.cli import main; "
        f"assert [main(argv) for argv in {runs!r}] == [0, 0, 0]; "
        f"assert {module!r} not in sys.modules, 'imported'"
    )
    return run_fresh_interpreter("-c", code)


@pytest.mark.parametrize("n_regimes", [1, 2])
def test_commands_leave_numpy_random_unimported(synth_dir, tmp_path, n_regimes):
    # K=1 regimes come in closed form and k-means++ draws its seeds from the
    # stdlib random module; importing numpy.random costs ~6 MB RSS
    proc = run_commands_then_check_unimported(synth_dir, tmp_path, n_regimes, "numpy.random")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("n_regimes", [1, 2])
def test_commands_leave_numpy_ma_unimported(synth_dir, tmp_path, n_regimes):
    # np.median's NaN check imports numpy.ma: ~17 ms and 1.25 MB RSS per process
    proc = run_commands_then_check_unimported(synth_dir, tmp_path, n_regimes, "numpy.ma")
    assert proc.returncode == 0, proc.stderr


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
        "--out", str(tmp / "model"), "--delta", "1e306"]),
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


class TestUsage:
    def test_no_command(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_flag(self):
        assert main(["train", "--bogus"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "flag", ["--alpha", "--eta", "--max-epochs", "--rel-tol", "--include-settings"]
    )
    def test_trainer_flags_are_gone(self, tmp_path, flag):
        rc = main(["train", "--train", str(tmp_path / "t.txt"),
                   "--out", str(tmp_path / "model"), flag, "5"])
        assert rc == EXIT_USAGE
        assert not (tmp_path / "model").exists()

    def test_from_dict_drops_only_the_trainer_fields(self):
        doc = {"seed": 4, "alpha": 0.5, "eta": 0.1, "max_epochs": 7, "rel_tol": 1e-3}
        assert RunConfig.from_dict(doc) == RunConfig(seed=4)
        with pytest.raises(ValidationError, match="unknown config fields"):
            RunConfig.from_dict({"seed": 4, "epochs": 7})

    @pytest.mark.parametrize("command", ["train", "benchmark"])
    def test_every_config_field_has_a_flag(self, command):
        # a valid config where every field differs from its default
        wanted = RunConfig(
            mode="sst-lr", n_regimes=2, subspace_dim=2, delta=0.02,
            healthy_cycles=15, tau1=2, tau2=30, beta=0.05, smoothing=0.5, seed=4,
        )
        argv = [command, "--train", "t", "--out", "o"]
        if command == "benchmark":
            argv += ["--test", "t", "--rul", "r"]
        for f in fields(RunConfig):
            value = getattr(wanted, f.name)
            assert value != f.default, f.name
            argv += ["--" + f.name.replace("_", "-"), str(value)]
        assert _build_config(build_parser().parse_args(argv)) == wanted
