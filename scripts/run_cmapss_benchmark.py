#!/usr/bin/env python3
"""Run the full benchmark on one CMAPSS dataset and print the result next to
published reference numbers for the usual comparison methods.

Usage:
    python3 scripts/run_cmapss_benchmark.py --data /path/to/cmapss \\
        --dataset FD001 [--mode sst-lr]

Expects train_FDxxx.txt / test_FDxxx.txt / RUL_FDxxx.txt in the data dir.
"""

import argparse
from pathlib import Path

from subtrack.config import MODES, RunConfig
from subtrack.evaluation import run_benchmark

# published reference results (rmse, score) for side-by-side display
REFERENCE = {
    "FD001": {"SVR": (20.96, 1380), "CNN": (18.45, 1290),
              "Deep LSTM": (16.14, 338), "LSTM-ED": (23.36, 1260)},
    "FD002": {"SVR": (42.00, 5.9e5), "CNN": (30.29, 1.36e4),
              "Deep LSTM": (24.49, 4452)},
    "FD003": {"SVR": (21.05, 1603), "CNN": (19.82, 1602),
              "Deep LSTM": (16.18, 852)},
    "FD004": {"SVR": (45.35, 3.71e5), "CNN": (29.16, 7892),
              "Deep LSTM": (28.17, 5554)},
}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--data", type=Path, required=True)
    parser.add_argument("--dataset", choices=sorted(REFERENCE), default="FD001")
    parser.add_argument("--mode", choices=MODES, default="sst-lr")
    args = parser.parse_args()

    cfg = RunConfig(mode=args.mode)
    report, pipe, *_ = run_benchmark(
        args.data / f"train_{args.dataset}.txt",
        args.data / f"test_{args.dataset}.txt",
        args.data / f"RUL_{args.dataset}.txt",
        cfg,
    )

    # FD002 and FD004 fly six operating conditions, FD001 and FD003 one
    print(f"{args.dataset} ({args.mode}, {pipe.model.n_regimes} regimes read)")
    print(f"{'method':<12} {'rmse':>8} {'score':>10}")
    for method, (ref_rmse, ref_score) in REFERENCE[args.dataset].items():
        print(f"{method:<12} {ref_rmse:>8.2f} {ref_score:>10.0f}")
    print(f"{'this run':<12} {report.rmse:>8.2f} {report.score:>10.0f}")
    print(f"\nwall time: {report.wall_time:.1f} s (training to report, test parse included)")


if __name__ == "__main__":
    main()
