import os
import subprocess
import sys
from pathlib import Path

import subtrack

ROOT = Path(__file__).resolve().parents[1]


def test_synthetic_experiment_prints_one_row_per_method():
    src = str(Path(subtrack.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_synthetic_experiment.py"),
         "--units", "12"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["mode", "rmse", "score"]
    assert [r.split()[0] for r in rows] == ["sst", "sst-lr", "naive"]
