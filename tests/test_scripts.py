import math
import os
import subprocess
import sys
from pathlib import Path

import subtrack
from subtrack.synthetic import SynthConfig, generate_synthetic, save_cmapss

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    """Run scripts/<name> in a new interpreter that imports subtrack from this
    tree and, like the suite, turns a RuntimeWarning into an error."""
    src = str(Path(subtrack.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_synthetic_experiment_prints_one_row_per_method():
    proc = run_script("run_synthetic_experiment.py", "--units", "12")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["mode", "rmse", "score"]
    assert [r.split()[0] for r in rows] == ["sst", "sst-lr", "age-only"]


def test_cmapss_benchmark_prints_this_run_row(tmp_path):
    train, test, truths, _ = generate_synthetic(SynthConfig(n_units=12, seed=1))
    save_cmapss(train, tmp_path / "train_FD001.txt")
    save_cmapss(test, tmp_path / "test_FD001.txt")
    (tmp_path / "RUL_FD001.txt").write_text("".join(f"{r}\n" for r in truths))
    proc = run_script(
        "run_cmapss_benchmark.py", "--data", str(tmp_path), "--dataset", "FD001"
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()
            if line.startswith("this run")]
    assert len(rows) == 1
    _, _, rmse, score = rows[0]
    assert math.isfinite(float(rmse)) and math.isfinite(float(score))
