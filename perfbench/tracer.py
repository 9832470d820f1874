"""Span tracer for the benchmark's traced run, and the per-layer metrics.

Run as a script, it installs wrappers around the public functions of the
pipeline modules, calls ``subtrack.cli.main`` in this process and writes the
recorded spans and counters to a JSON file:

    python3 perfbench/tracer.py --out spans.json -- infer --model-dir m ...

A call that enters a module from another module (or from outside the
package) is a layer boundary and gets a span: name, start, end and the index
of the enclosing span. Calls nested inside the same module are counted and
timed but get no span, so per-candidate helpers do not flood memory. Counts
taken from arguments and return values are recorded at the same wrappers.
No file of the package is modified; the wrappers are installed by rebinding
module attributes, including names imported with ``from x import f``.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import os
import statistics
import sys
import time
from collections import Counter

MODULES = (
    "dataset",
    "multiscale",
    "subspace",
    "health",
    "rul",
    "evaluation",
    "persist",
    "cli",
)

# spans kept per function; later calls are still counted and timed
SPAN_CAP = 20000


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent span index or -1]
        self.stack: list[tuple[str, int]] = []  # (module, enclosing span index)
        # name -> [calls, outermost inclusive s, boundary s, errors, depth]
        self.stats: dict[str, list] = {}
        self.counters: Counter = Counter()
        self.values: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        self.span_counts: Counter = Counter()
        self.hook_errors = 0

    def wrap(self, module: str, name: str, fn, hook=None):
        qual = f"{module}.{name}"
        stats = self.stats.setdefault(qual, [0, 0.0, 0.0, 0, 0])
        stack = self.stack
        spans = self.spans
        span_counts = self.span_counts
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            boundary = parent is None or parent[0] != module
            parent_span = parent[1] if parent else -1
            idx = parent_span
            stats[0] += 1
            stats[4] += 1
            t0 = perf_counter()
            if boundary and span_counts[qual] < SPAN_CAP:
                span_counts[qual] += 1
                idx = len(spans)
                spans.append([qual, t0, t0, parent_span])
            stack.append((module, idx))
            ok = False
            try:
                ret = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf_counter()
                stack.pop()
                stats[4] -= 1
                dt = t1 - t0
                if stats[4] == 0:
                    stats[1] += dt
                if boundary:
                    stats[2] += dt
                if idx != parent_span:
                    spans[idx][2] = t1
                if not ok:
                    stats[3] += 1
            if hook is not None:
                try:
                    hook(self, args, kwargs, ret, dt)
                except Exception as exc:  # a counter must never break the run
                    self.hook_errors += 1
                    if self.hook_errors == 1:
                        print(f"tracer: {qual} counter failed: {exc!r}", file=sys.stderr)
            return ret

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        """Wrap every public function defined in MODULES and rebind each name
        in the package that refers to one of them."""
        replaced = {}
        for module in MODULES:
            mod = importlib.import_module(f"subtrack.{module}")
            for name, obj in list(vars(mod).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                hook = HOOKS.get(f"{module}.{name}")
                if hook is None and module == "persist":
                    hook = _persist_bytes_hook(obj)
                replaced[id(obj)] = self.wrap(module, name, obj, hook)
        for modname, mod in list(sys.modules.items()):
            if modname != "subtrack" and not modname.startswith("subtrack."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])

    def document(self) -> dict:
        return {
            "spans": self.spans,
            "stats": {
                k: {"calls": v[0], "seconds": v[1], "boundary_s": v[2], "errors": v[3]}
                for k, v in self.stats.items()
            },
            "counters": dict(self.counters),
            "values": self.values,
            "durations": self.durations,
            "hook_errors": self.hook_errors,
        }


# ---------------------------------------------------------------------------
# counters taken from arguments and return values


def _count_rows(tr, args, kwargs, ret, dt):
    tr.counters["dataset.rows"] += sum(len(t) for t in ret)


def _count_estimate(tr, args, kwargs, ret, dt):
    tr.durations.setdefault("rul.estimate_rul", []).append(dt)
    tr.counters["rul.candidates"] += len(ret.candidates)
    tr.counters["rul.clamped"] += sum(1 for c in ret.candidates if c.clamped)
    tr.counters["rul.underflow_units"] += int(bool(ret.similarity_underflow))


def _count_written_estimates(tr, args, kwargs, ret, dt):
    estimates = args[0] if args else kwargs["estimates"]
    tr.counters["rul.estimates_written"] += sum(1 for e in estimates if e is not None)
    _bytes(tr, _bound_path(args, kwargs, 2), "persist.bytes_written")


def _count_epochs(tr, args, kwargs, ret, dt):
    trace = ret[1]
    tr.counters["subspace.epochs"] += len(trace) - 1
    tr.values["subspace.healthy_dist_init"] = float(trace[0])
    tr.values["subspace.healthy_dist_final"] = float(trace[-1])


def _count_clipped(tr, args, kwargs, ret, dt):
    # outputs pinned exactly at 0 or 1 were clamped (an unclamped affine value
    # lands exactly on a bound with probability zero)
    tr.counters["health.clipped_points"] += int((ret == 0.0).sum() + (ret == 1.0).sum())


def _bound_path(args, kwargs, position):
    if "path" in kwargs:
        return kwargs["path"]
    return args[position] if len(args) > position else None


def _bytes(tr, path, counter):
    if path is not None and os.path.isfile(path):
        tr.counters[counter] += os.path.getsize(path)


def _persist_bytes_hook(fn):
    """Bytes of the file a persist function with a `path` parameter wrote or read."""
    params = list(inspect.signature(fn).parameters)
    if "path" not in params:
        return None
    position = params.index("path")
    if fn.__name__.startswith(("write", "save")):
        counter = "persist.bytes_written"
    elif fn.__name__.startswith(("read", "load")):
        counter = "persist.bytes_read"
    else:
        return None

    def hook(tr, args, kwargs, ret, dt):
        _bytes(tr, _bound_path(args, kwargs, position), counter)

    return hook


HOOKS = {
    "dataset.load_cmapss": _count_rows,
    "rul.estimate_rul": _count_estimate,
    "persist.write_estimates_csv": _count_written_estimates,
    "subspace.train_until_converged": _count_epochs,
    "multiscale.train_multi_until_converged": _count_epochs,
    "health.scale": _count_clipped,
    "health.predict_hi": _count_clipped,
}


# ---------------------------------------------------------------------------
# per-layer metrics

# name -> (unit, better); the order is the order of BENCHMARK.json
LAYER_METRICS = {
    "rul.match_s": ("s", "lower"),
    "rul.calls": ("count", "lower"),
    "rul.useful_ratio": ("ratio", "higher"),
    "rul.unit_p50_ms": ("ms", "lower"),
    "rul.unit_p90_ms": ("ms", "lower"),
    "rul.candidates": ("count", "lower"),
    "rul.candidates_per_s": ("1/s", "higher"),
    "rul.clamped": ("count", "lower"),
    "rul.underflow_units": ("count", "lower"),
    "rul.unmatched_units": ("count", "lower"),
    "dataset.load_s": ("s", "lower"),
    "dataset.rows": ("count", "lower"),
    "dataset.normalize_s": ("s", "lower"),
    "multiscale.cluster_s": ("s", "lower"),
    "multiscale.assign_s": ("s", "lower"),
    "multiscale.train_s": ("s", "lower"),
    "subspace.init_s": ("s", "lower"),
    "subspace.train_s": ("s", "lower"),
    "subspace.epochs": ("count", "lower"),
    "subspace.updates": ("count", "lower"),
    "subspace.healthy_dist_init": ("dist", "lower"),
    "subspace.healthy_dist_final": ("dist", "lower"),
    "health.analyze_s": ("s", "lower"),
    "health.smooth_s": ("s", "lower"),
    "health.smooth_calls": ("count", "lower"),
    "health.curve_s": ("s", "lower"),
    "health.regression_s": ("s", "lower"),
    "health.clipped_points": ("count", "lower"),
    "persist.write_s": ("s", "lower"),
    "persist.read_s": ("s", "lower"),
    "persist.bytes_written": ("bytes", "lower"),
    "persist.bytes_read": ("bytes", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.untraced_s": ("s", "lower"),
    "evaluation.train_s": ("s", "lower"),
    "evaluation.infer_s": ("s", "lower"),
    "evaluation.match_s": ("s", "lower"),
    "evaluation.report_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(
    docs: list[dict],
    traced_walls: list[float],
    untraced_walls: list[float],
    import_s: float,
) -> dict[str, float]:
    """Per-layer metrics summed over the traced commands of one pass.

    Both wall lists time whole child processes, one fresh interpreter per
    command: `traced_walls` for the commands that wrote `docs`, and
    `untraced_walls` for the same commands run without tracing.
    `cli.untraced_s` is the traced wall outside every library call made
    from the cli module: interpreter start, imports, argument parsing and
    the cli's own file writes.
    """
    stats: dict[str, Counter] = {}
    counters: Counter = Counter()
    values: dict[str, float] = {}
    durations: list[float] = []
    library_s = 0.0  # library calls made directly from the cli module
    for doc in docs:
        spans = doc["spans"]
        library_s += sum(
            end - start
            for name, start, end, parent in spans
            if parent >= 0 and spans[parent][0].startswith("cli.") and not name.startswith("cli.")
        )
        for name, s in doc["stats"].items():
            stats.setdefault(name, Counter()).update(s)
        counters.update(doc["counters"])
        values.update(doc["values"])
        durations += doc["durations"].get("rul.estimate_rul", [])

    def seconds(*names):
        return sum(stats.get(n, {}).get("seconds", 0.0) for n in names)

    def boundary(*names):
        return sum(stats.get(n, {}).get("boundary_s", 0.0) for n in names)

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def persist_time(prefixes, suffix):
        return sum(
            s["boundary_s"]
            for n, s in stats.items()
            if n.startswith("persist.")
            and (n[8:].startswith(prefixes) or n.endswith(suffix))
        )

    match_s = seconds("rul.estimate_rul")
    rul_calls = calls("rul.estimate_rul")
    ms = [d * 1e3 for d in durations]
    return {
        "rul.match_s": match_s,
        "rul.calls": rul_calls,
        "rul.useful_ratio": counters["rul.estimates_written"] / rul_calls if rul_calls else 0.0,
        "rul.unit_p50_ms": statistics.median(ms) if ms else 0.0,
        "rul.unit_p90_ms": _p90(ms),
        "rul.candidates": counters["rul.candidates"],
        "rul.candidates_per_s": counters["rul.candidates"] / match_s if match_s else 0.0,
        "rul.clamped": counters["rul.clamped"],
        "rul.underflow_units": counters["rul.underflow_units"],
        "rul.unmatched_units": stats.get("rul.estimate_rul", {}).get("errors", 0),
        "dataset.load_s": seconds("dataset.load_cmapss", "dataset.load_rul_targets"),
        "dataset.rows": counters["dataset.rows"],
        "dataset.normalize_s": seconds("dataset.fit_normalizer", "dataset.apply_normalizer"),
        "multiscale.cluster_s": seconds("multiscale.cluster_regimes"),
        "multiscale.assign_s": seconds(
            "multiscale.assign_rows", "multiscale.nearest_centroid", "multiscale.assign"
        ),
        "multiscale.train_s": seconds("multiscale.train_multi_until_converged"),
        "subspace.init_s": seconds("subspace.init_subspace"),
        "subspace.train_s": seconds("subspace.update"),
        "subspace.epochs": counters["subspace.epochs"],
        "subspace.updates": calls("subspace.update"),
        "subspace.healthy_dist_init": values.get("subspace.healthy_dist_init", 0.0),
        "subspace.healthy_dist_final": values.get("subspace.healthy_dist_final", 0.0),
        "health.analyze_s": seconds("health.analyze_rows"),
        "health.smooth_s": seconds("health.smooth"),
        "health.smooth_calls": calls("health.smooth"),
        "health.curve_s": seconds("health.fit_scaler", "health.build_curve")
        + boundary("health.scale", "health.to_health_index"),
        "health.regression_s": seconds("health.fit_hi_regression", "health.predict_hi"),
        "health.clipped_points": counters["health.clipped_points"],
        "persist.write_s": persist_time(("write", "save"), "_to_dict"),
        "persist.read_s": persist_time(("read", "load"), "_from_dict"),
        "persist.bytes_written": counters["persist.bytes_written"],
        "persist.bytes_read": counters["persist.bytes_read"],
        "cli.import_s": import_s,
        "cli.untraced_s": sum(traced_walls) - library_s,
        "evaluation.train_s": seconds("evaluation.train_pipeline"),
        "evaluation.infer_s": seconds("evaluation.infer_curves"),
        "evaluation.match_s": seconds("evaluation.estimate_fleet"),
        "evaluation.report_s": seconds("evaluation.build_report"),
        "trace.wall_s": sum(traced_walls),
        "trace.overhead_s": sum(traced_walls) - sum(untraced_walls),
    }


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file for spans and counters")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    tracer.install()
    from subtrack import cli

    rc = cli.main(cli_args)
    with open(args.out, "w") as fh:
        json.dump(tracer.document(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
