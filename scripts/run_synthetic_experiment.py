#!/usr/bin/env python3
"""Compare sst and sst-lr with the age-only baseline on a synthetic drifting fleet.

The age-only row reads unit lengths alone: each test unit's estimate is the
mean of L - n - tau over the full-overlap (training length L, lag tau) pairs
that matching scores, n the test unit's length and tau in [tau1, tau2].

Usage: python3 scripts/run_synthetic_experiment.py [--units 50] [--seed 0]
"""

import argparse
from dataclasses import replace

import numpy as np

from subtrack.config import RunConfig
from subtrack.dataset import SynthConfig, generate_synthetic
from subtrack.evaluation import rmse, run_pipeline, score


def age_only_errors(train, test, truths, cfg):
    """Each test unit's age-only estimate minus its true RUL."""
    ruls = np.diff(train.bounds)[:, None] - np.arange(cfg.tau1, cfg.tau2 + 1)
    estimates = [(ruls - n)[ruls >= n].mean() for n in np.diff(test.bounds)]
    return np.subtract(estimates, truths)


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
    cfg = RunConfig()

    print(f"{'mode':<8} {'rmse':>8} {'score':>10}")
    for name, run_cfg in (("sst", cfg), ("sst-lr", replace(cfg, mode="sst-lr"))):
        report, *_ = run_pipeline(train, test, truths, run_cfg)
        print(f"{name:<8} {report.rmse:>8.2f} {report.score:>10.2f}")
    errors = age_only_errors(train, test, truths, cfg)
    print(f"{'age-only':<8} {rmse(errors):>8.2f} {score(errors):>10.2f}")


if __name__ == "__main__":
    main()
