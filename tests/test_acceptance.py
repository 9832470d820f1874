"""Acceptance suite: one test per release criterion, each printing a
pass/fail line at its stated tolerance."""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import spearmanr

from subtrack.cli import EXIT_OK, main
from subtrack.config import RunConfig
from subtrack.evaluation import rmse, run_benchmark, run_pipeline, score
from subtrack.health import SIGMA
from subtrack.fit import track, train_pipeline
from subtrack.rul import _candidates, estimate_rul
from subtrack.subspace import mahalanobis_rows
from subtrack.synthetic import SynthConfig, generate_synthetic

from test_multiscale import subspace_angle
from test_rul import curve, library_of, oracle_estimate
from test_subspace import DELTA, explicit_complement_distance, fit, random_model, solo


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_distance_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.choice([4, 10, 24, 30]))
        sub_dim = int(rng.integers(1, min(dim, 6)))
        model = random_model(rng, dim, sub_dim)
        x = rng.standard_normal(dim) * 3
        got = mahalanobis_rows(model, x[None], DELTA)[0]
        expected = explicit_complement_distance(model, x)
        worst = max(worst, abs(got - expected))
    elapsed = time.perf_counter() - start
    report(
        "1 residual-form distance matches explicit complement (1000 pairs)",
        worst <= 1e-9 and elapsed < 5.0,
        f"max abs diff {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_pca_initialization_oracle():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(5, 25))
        sub_dim = int(rng.integers(1, min(dim - 1, 5)))
        n = int(rng.integers(dim + 5, 200))
        window = rng.standard_normal((n, dim)) * rng.uniform(0.5, 4.0, dim)
        model = fit(window, sub_dim)

        centered = window - window.mean(axis=0)
        cov = centered.T @ centered / (n - 1)
        vals, vecs = scipy.linalg.eigh(cov)
        top = np.argsort(vals)[::-1][:sub_dim]
        worst = max(worst, float(np.max(np.abs(model.spreads - vals[top]))))
        p_est = model.basis @ model.basis.T
        p_true = vecs[:, top] @ vecs[:, top].T
        worst = max(worst, float(np.max(np.abs(p_est - p_true))))
    elapsed = time.perf_counter() - start
    report(
        "2 batch-init eigenpairs match dense eigensolver (100 windows)",
        worst <= 1e-9 and elapsed < 10.0,
        f"max abs diff {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_static_manifold_tracking():
    start = time.perf_counter()
    n_seeds = 20
    failures = 0
    angles = []
    for seed in range(n_seeds):
        rng = np.random.default_rng(3000 + seed)
        basis, _ = np.linalg.qr(rng.standard_normal((24, 3)))
        center = rng.standard_normal(24)
        spreads = rng.uniform(0.5, 2.0, 3)
        # 50 units x 20 healthy cycles
        z = rng.standard_normal((1000, 3)) * np.sqrt(spreads)
        rows = center + z @ basis.T + 0.01 * rng.standard_normal((1000, 24))

        model = fit(rows[:100], 3)
        model = track(solo(model), rows, DELTA).models[0]

        angle = subspace_angle(model.basis, basis)
        angles.append(angle)
        if angle > 0.05:
            failures += 1
    elapsed = time.perf_counter() - start
    report(
        "3 static-manifold tracking recovers the generating subspace",
        failures <= math.floor(0.05 * n_seeds) and elapsed < 60.0,
        f"{n_seeds - failures}/{n_seeds} seeds ok, "
        f"max angle {max(angles):.4f} rad, {elapsed:.1f}s",
    )


def test_criterion_4_degradation_monotonicity():
    start = time.perf_counter()
    synth = SynthConfig(
        n_units=40, noise_std=0.01, drift_rate=0.03, drift_onset_fraction=0.5,
        seed=104, min_cycles=120, max_cycles=200,
    )
    train, _, _, _ = generate_synthetic(synth)
    cfg = RunConfig(mode="sst", healthy_cycles=20)
    _, curves = train_pipeline(train, cfg)
    bad = 0
    for traj, hi in zip(train, curves):
        onset = int(synth.drift_onset_fraction * len(traj))
        sigma = hi[onset:, SIGMA]  # already the smoothed index
        rho, _ = spearmanr(np.arange(len(sigma)), sigma)
        if not rho <= -0.9:
            bad += 1
    elapsed = time.perf_counter() - start
    report(
        "4 smoothed health index decays monotonically after drift onset",
        bad <= math.floor(0.05 * synth.n_units) and elapsed < 30.0,
        f"{synth.n_units - bad}/{synth.n_units} units ok, {elapsed:.1f}s",
    )


def test_criterion_5_synthetic_rul_beats_naive_baseline():
    start = time.perf_counter()
    pipeline_rmses = []
    baseline_rmses = []
    for seed in range(5):
        synth = SynthConfig(
            n_units=50, noise_std=0.01, drift_rate=0.03, seed=500 + seed,
            min_cycles=100, max_cycles=180, min_test_cycles=30,
        )
        train, test, truths, _ = generate_synthetic(synth)
        cfg = RunConfig(mode="sst", healthy_cycles=20, tau2=40)
        rep, *_ = run_pipeline(train, test, truths, cfg)
        pipeline_rmses.append(rep.rmse)
        mean_rul = float(np.mean(truths))
        baseline_rmses.append(rmse([mean_rul - t for t in truths]))
    elapsed = time.perf_counter() - start
    pipe_mean = float(np.mean(pipeline_rmses))
    base_mean = float(np.mean(baseline_rmses))
    report(
        "5 end-to-end synthetic RUL beats fleet-mean baseline by >= 30%",
        pipe_mean <= 0.7 * base_mean and elapsed < 120.0,
        f"pipeline {pipe_mean:.2f} vs baseline {base_mean:.2f}, {elapsed:.1f}s",
    )


def test_criterion_6_metric_golden_values():
    checks = [
        ("score({0}) == 0", score([0]) == 0.0),
        ("score({10}) == e-1", abs(score([10]) - (math.e - 1)) <= 1e-12),
        ("score({-13}) == e-1", abs(score([-13]) - (math.e - 1)) <= 1e-12),
        ("rmse({3,-4}) == 3.53553", abs(rmse([3, -4]) - 3.53553) <= 1e-5),
    ]
    ok = all(c[1] for c in checks)
    report("6 metric golden values", ok, "; ".join(c[0] for c in checks))


def test_criterion_7_curve_matching_oracle():
    rng = np.random.default_rng(107)
    worst = 0.0
    convexity_violations = 0
    for _ in range(100):
        cfg = RunConfig(tau1=int(rng.integers(0, 3)), tau2=int(rng.integers(5, 20)))
        test_sigma = rng.uniform(0, 1, int(rng.integers(10, 30)))
        library = [
            (u, rng.uniform(0, 1, int(rng.integers(40, 90))))
            for u in range(1, int(rng.integers(3, 8)))
        ]
        lib = library_of(library)
        est = estimate_rul(*curve(0, test_sigma), lib, cfg)
        expected = oracle_estimate(test_sigma, library, cfg)
        worst = max(worst, abs(est.estimate - expected))
        _, ruls, _ = _candidates(*curve(0, test_sigma), lib, cfg)
        if not ruls.min() <= est.estimate <= ruls.max():
            convexity_violations += 1
    report(
        "7 similarity-weighted estimate matches exhaustive oracle (100 fleets)",
        worst <= 1e-10 and convexity_violations == 0,
        f"max abs diff {worst:.2e}, convexity violations {convexity_violations}",
    )


def _find_cmapss_dir():
    candidates = []
    env = os.environ.get("CMAPSS_DATA")
    if env:
        candidates.append(Path(env))
    candidates += [Path("data/CMAPSS"), Path("data"), Path("/root/data/CMAPSS")]
    for cand in candidates:
        if (cand / "train_FD001.txt").exists():
            return cand
    return None


@pytest.mark.slow
def test_criterion_8_cmapss_reproduction():
    data_dir = _find_cmapss_dir()
    if data_dir is None:
        pytest.skip("CMAPSS dataset not available (set CMAPSS_DATA)")

    start = time.perf_counter()
    # both runs read K from the settings: FD001 flies one condition, FD004 six
    cfg = RunConfig(mode="sst-lr")
    rep1, *_ = run_benchmark(
        data_dir / "train_FD001.txt",
        data_dir / "test_FD001.txt",
        data_dir / "RUL_FD001.txt",
        cfg,
    )
    fd001_ok = rep1.rmse <= 20.0 and rep1.score <= 1500.0
    t1 = time.perf_counter() - start

    start = time.perf_counter()
    rep4, *_ = run_benchmark(
        data_dir / "train_FD004.txt",
        data_dir / "test_FD004.txt",
        data_dir / "RUL_FD004.txt",
        cfg,
    )
    fd004_ok = rep4.rmse <= 33.0
    t4 = time.perf_counter() - start

    report(
        "8 CMAPSS published-regime reproduction",
        fd001_ok and fd004_ok and t1 < 600 and t4 < 600,
        f"FD001 rmse {rep1.rmse:.2f} score {rep1.score:.0f} ({t1:.0f}s); "
        f"FD004 rmse {rep4.rmse:.2f} ({t4:.0f}s)",
    )


def test_criterion_9_benchmark_determinism(tmp_path):
    synth_dir = tmp_path / "synth"
    rc = main(
        ["synth", "--out", str(synth_dir), "--units", "12", "--seed", "9",
         "--min-cycles", "70", "--max-cycles", "100", "--drift-rate", "0.03"]
    )
    assert rc == EXIT_OK
    args = [
        "benchmark",
        "--train", str(synth_dir / "train_synth.txt"),
        "--test", str(synth_dir / "test_synth.txt"),
        "--rul", str(synth_dir / "RUL_synth.txt"),
        "--tau2", "20",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    identical = a == b
    # the parsed content must be a full report, not trivially empty
    doc = json.loads(a)
    report(
        "9 repeated benchmark runs serialize byte-identically",
        identical and doc["n_units"] == 12,
        f"{len(a)} bytes",
    )


def test_criterion_10_rotating_manifold_tracking():
    # the healthy subspace turns 0.6 rad over the stream: each basis column
    # rotates towards its own orthogonal partner column
    start = time.perf_counter()
    n_rows, turn = 2000, 0.6
    worst_angle, worst_ratio = 0.0, 0.0
    ok = True
    for seed in range(10):
        rng = np.random.default_rng(3100 + seed)
        q, _ = np.linalg.qr(rng.standard_normal((24, 6)))
        theta = turn * np.arange(n_rows) / (n_rows - 1)
        bases = (
            np.cos(theta)[:, None, None] * q[:, :3] + np.sin(theta)[:, None, None] * q[:, 3:]
        )  # (n_rows, 24, 3)
        center = rng.standard_normal(24)
        z = rng.standard_normal((n_rows, 3)) * np.sqrt(rng.uniform(0.5, 2.0, 3))
        rows = center + np.einsum("nij,nj->ni", bases, z) \
            + 0.01 * rng.standard_normal((n_rows, 24))

        frozen = fit(rows[:100], 3)
        tracked = track(solo(frozen), rows[100:], DELTA).models[0]

        angle = subspace_angle(tracked.basis, bases[-1])
        tail = rows[-200:]
        ratio = float(
            np.mean(mahalanobis_rows(tracked, tail, DELTA))
            / np.mean(mahalanobis_rows(frozen, tail, DELTA))
        )
        worst_angle, worst_ratio = max(worst_angle, angle), max(worst_ratio, ratio)
        ok = ok and angle <= 0.05 and ratio < 1.0
    elapsed = time.perf_counter() - start
    report(
        "10 tracking follows a rotating manifold that a frozen init loses",
        ok,
        f"max final angle {worst_angle:.4f} rad, max tail distance ratio "
        f"tracked/frozen {worst_ratio:.3f}, {elapsed:.1f}s",
    )
