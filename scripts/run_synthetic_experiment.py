#!/usr/bin/env python3
"""Compare sst and sst-lr on a synthetic drifting fleet.

Usage: python3 scripts/run_synthetic_experiment.py [--units 50] [--seed 0]
"""

import argparse

import numpy as np

from subtrack.config import RunConfig
from subtrack.dataset import SynthConfig, generate_synthetic
from subtrack.evaluation import rmse, run_pipeline


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--units", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--noise-std", type=float, default=0.01)
    parser.add_argument("--drift-rate", type=float, default=0.03)
    args = parser.parse_args()

    synth = SynthConfig(
        n_units=args.units,
        noise_std=args.noise_std,
        drift_rate=args.drift_rate,
        seed=args.seed,
        min_cycles=100,
        max_cycles=200,
    )
    train, test, truths, _ = generate_synthetic(synth)
    baseline = rmse([np.mean(truths) - t for t in truths])

    print(f"{'mode':<8} {'rmse':>8} {'score':>10}")
    for mode in ("sst", "sst-lr"):
        cfg = RunConfig(mode=mode, seed=args.seed)
        report, _, _ = run_pipeline(train, test, truths, cfg)
        print(f"{mode:<8} {report.rmse:>8.2f} {report.score:>10.2f}")
    print(f"{'naive':<8} {baseline:>8.2f} {'-':>10}")


if __name__ == "__main__":
    main()
