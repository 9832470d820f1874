"""Command-line entry point.

Subcommands:
  train      fit settings regimes, then sensor subspaces + scaler (+ regressor)
  infer      health-index curves and RUL estimates from saved artifacts
  benchmark  end-to-end run with metrics report
  synth      generate a synthetic fleet in CMAPSS format

Curve tables are written as `.npy` arrays (persist.write_curves), estimates
and reports as text.

Exit codes: 0 success, 1 usage, 2 data error, 3 numerical failure.

`infer` runs only the modules imported here; train, benchmark and synth
import the fitting, benchmark and generator modules they add when they run.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    # nearly every object the imports below make lives until exit, so the
    # collector passes they would trigger free next to nothing (~4 ms a
    # call). run() freezes them and turns GC back on
    gc.disable()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from dataclasses import fields  # noqa: E402
from pathlib import Path  # noqa: E402

from . import dataset, persist, pipeline  # noqa: E402
from .config import MODES, RunConfig  # noqa: E402
from .errors import NumericalError, PrognosticsError, ValidationError  # noqa: E402

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
    # K is read from the settings: older scripts' flag is ignored, as from_dict drops it
    p.add_argument("--n-regimes", type=int, help=argparse.SUPPRESS)


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
    """One stderr line naming the units with no valid match; the output
    files stay as they are."""
    units = [u for u, est in zip(unit_ids, estimates) if est is None]
    if units:
        print(
            f"warning: no valid match, empty row for {len(units)} units: "
            + ", ".join(map(str, units)),
            file=sys.stderr,
        )


def _read_regimes(args, pipe) -> int:
    """The K training read from the settings; one stderr line when an
    --n-regimes flag, which no longer sets K, names another."""
    k = pipe.model.n_regimes
    if args.n_regimes not in (None, k):
        print(f"warning: --n-regimes {args.n_regimes} ignored: the settings read {k} regimes",
              file=sys.stderr)
    return k


def cmd_train(args) -> int:
    from . import fit

    cfg = _build_config(args)
    train_set = dataset.load_cmapss(args.train)
    with fit.stage("train"):
        fitted = fit.fit_rows(train_set, cfg)
        del train_set  # the library and the writes are made beside the curve table alone
        pipe, curves = fit.fit_library(*fitted)
        persist.save_pipeline(pipe, curves, args.out)
    k, d = _read_regimes(args, pipe), pipe.model.models[0].subspace_dim
    print(f"trained on {len(curves)} units, {k} regimes, subspace dim {d} -> {args.out}")
    return EXIT_OK


def cmd_infer(args) -> int:
    pipe = persist.load_pipeline(args.model_dir)
    tset = dataset.load_cmapss(args.data)
    # a bad RUL file fails before any inference work
    truths = None if args.rul is None else dataset.load_rul_targets(args.rul, len(tset))
    curves = pipeline.infer_curves(pipe, tset)
    # units with no valid match (e.g. full-length curves) get an empty row
    # instead of aborting the whole fleet
    estimates = pipeline.estimate_fleet(pipe, curves, skip_unmatched=True)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    persist.write_curves(curves, out / "hi_curves.npy")
    persist.write_estimates_csv(estimates, truths, out / "rul_estimates.csv", curves.unit_ids)
    _report_degraded(curves.unit_ids, estimates)
    print(f"inferred {len(curves)} units -> {args.out}")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    from . import evaluation

    cfg = _build_config(args)
    report, pipe, train_curves, test_curves = evaluation.run_benchmark(
        args.train, args.test, args.rul, cfg
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report.to_json() + "\n")
    (out / "report.txt").write_text(report.to_text() + "\n")
    persist.write_curves(train_curves, out / "hi_curves_train.npy")
    persist.write_curves(test_curves, out / "hi_curves.npy")
    persist.write_estimates_csv(
        report.estimates, report.truths, out / "rul_estimates.csv", test_curves.unit_ids
    )
    print(report.to_text())
    print(f"regimes: {_read_regimes(args, pipe)}")
    return EXIT_OK


def cmd_synth(args) -> int:
    from . import synthetic

    # only the flags given: SynthConfig holds the defaults
    given = {f.name: getattr(args, f.name) for f in fields(synthetic.SynthConfig)
             if getattr(args, f.name, None) is not None}
    cfg = synthetic.SynthConfig(**given)
    train_set, test_set, truths, _ = synthetic.generate_synthetic(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    synthetic.save_cmapss(train_set, out / "train_synth.txt")
    synthetic.save_cmapss(test_set, out / "test_synth.txt")
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
    The objects the imports left are frozen and GC is on when main() starts,
    so its passes skip them; gc.freeze() again before the exit spares
    shutdown two GC passes over all of them (~35 ms). main() leaves GC state
    alone, as callers that run it in-process must still collect their
    garbage."""
    gc.freeze()
    gc.enable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
