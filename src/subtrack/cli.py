"""Command-line entry point.

Subcommands:
  train      fit batch-PCA subspaces + scaler (+ regressor) on a training file
  infer      health-index curves and RUL estimates from saved artifacts
  benchmark  end-to-end run with metrics report
  synth      generate a synthetic fleet in CMAPSS format

Exit codes: 0 success, 1 usage, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import dataset, evaluation, persist
from .config import MODES, RunConfig
from .errors import NumericalError, PrognosticsError, ValidationError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# every RunConfig field, typed by its default
_CONFIG_FLAGS = {f.name: type(f.default) for f in fields(RunConfig)}


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="JSON config file; flags win")
    for name, typ in _CONFIG_FLAGS.items():
        flag = "--" + name.replace("_", "-")
        if name == "mode":
            p.add_argument(flag, choices=MODES, default=None)
        else:
            p.add_argument(flag, type=typ, default=None)


def _build_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config is not None:
        try:
            doc = json.loads(Path(args.config).read_text())
        except ValueError as exc:
            raise ValidationError(f"{args.config}: malformed JSON config: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValidationError(f"{args.config}: config must be a JSON object")
        values.update(doc)
    for name in _CONFIG_FLAGS:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            values[name] = flag_value
    return RunConfig.from_dict(values)


def _report_degraded(unit_ids, estimates) -> None:
    """One stderr line per degraded condition; the output files stay as
    they are."""
    for condition, units in (
        ("no valid match, empty row",
         [u for u, est in zip(unit_ids, estimates) if est is None]),
        ("every similarity underflowed, unweighted mean RUL",
         [u for u, est in zip(unit_ids, estimates)
          if est is not None and est.similarity_underflow]),
    ):
        if units:
            print(
                f"warning: {condition} for {len(units)} units: "
                + ", ".join(map(str, units)),
                file=sys.stderr,
            )


def cmd_train(args) -> int:
    cfg = _build_config(args)
    train_set = dataset.load_cmapss(args.train)
    with evaluation.stage("train"):
        pipe, curves = evaluation.train_pipeline(train_set, cfg)
        persist.save_pipeline(pipe, curves, args.out)
    print(f"trained on {len(train_set)} units -> {args.out}")
    return EXIT_OK


def cmd_infer(args) -> int:
    pipe = persist.load_pipeline(args.model_dir)
    tset = dataset.load_cmapss(args.data)
    # a bad RUL file fails before any inference work
    truths = None if args.rul is None else dataset.load_rul_targets(args.rul, len(tset))
    curves = evaluation.infer_curves(pipe, tset)
    # units with no valid match (e.g. full-length curves) get an empty row
    # instead of aborting the whole fleet
    estimates = evaluation.estimate_fleet(pipe, curves, skip_unmatched=True)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    persist.write_curves_csv(curves, out / "hi_curves.csv")
    persist.write_estimates_csv(estimates, truths, out / "rul_estimates.csv", curves.unit_ids)
    _report_degraded(curves.unit_ids, estimates)
    print(f"inferred {len(curves)} units -> {args.out}")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    cfg = _build_config(args)
    report, _, train_curves, test_curves = evaluation.run_benchmark(
        args.train, args.test, args.rul, cfg
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report.to_json() + "\n")
    (out / "report.txt").write_text(report.to_text() + "\n")
    persist.write_curves_csv(train_curves, out / "hi_curves_train.csv")
    persist.write_curves_csv(test_curves, out / "hi_curves.csv")
    persist.write_estimates_csv(
        report.estimates, report.truths, out / "rul_estimates.csv", test_curves.unit_ids
    )
    _report_degraded(test_curves.unit_ids, report.estimates)
    print(report.to_text())
    return EXIT_OK


def cmd_synth(args) -> int:
    # only the flags given: SynthConfig holds the defaults
    given = {f.name: getattr(args, f.name) for f in fields(dataset.SynthConfig)
             if getattr(args, f.name, None) is not None}
    cfg = dataset.SynthConfig(**given)
    train_set, test_set, truths, _ = dataset.generate_synthetic(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataset.save_cmapss(train_set, out / "train_synth.txt")
    dataset.save_cmapss(test_set, out / "test_synth.txt")
    (out / "RUL_synth.txt").write_text("".join(f"{r}\n" for r in truths))
    print(f"wrote {len(train_set)} train / {len(test_set)} test units -> {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="subtrack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit subspaces and scaler on training data")
    p.add_argument("--train", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="HI curves and RUL estimates from artifacts")
    p.add_argument("--model-dir", required=True, type=Path)
    p.add_argument("--data", required=True, type=Path)
    p.add_argument("--rul", type=Path, default=None)
    p.add_argument("--out", required=True, type=Path)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("benchmark", help="end-to-end run with metrics report")
    p.add_argument("--train", required=True, type=Path)
    p.add_argument("--test", required=True, type=Path)
    p.add_argument("--rul", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    _add_config_flags(p)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("synth", help="generate a synthetic CMAPSS-format fleet")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--units", dest="n_units", type=int)
    p.add_argument("--n-regimes", type=int)
    p.add_argument("--subspace-dim", type=int)
    p.add_argument("--noise-std", type=float)
    p.add_argument("--drift-rate", type=float)
    p.add_argument("--drift-onset", dest="drift_onset_fraction", type=float)
    p.add_argument("--min-cycles", type=int)
    p.add_argument("--max-cycles", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, PrognosticsError) as exc:  # any unreadable or unwritable path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def run() -> None:
    """Entry point of `python -m subtrack.cli` and the `subtrack` script.
    gc.freeze() before the exit spares shutdown two GC passes over the ~21k
    objects the imports leave (~35 ms). main() leaves GC state alone, as
    callers that run it in-process must still collect their garbage."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
