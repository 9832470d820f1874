#!/usr/bin/env python3
"""Outside-in benchmark of the subtrack command-line pipeline.

    python3 perfbench/run.py --workload fd001-benchmark --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; it runs the package from ``src/``
of that checkout. It generates the workload's fleet from ``--seed``, then runs
the workload's CLI commands one after another (closed loop, one client) in
fresh interpreters for ``--seconds`` seconds, checks every output and prints
one JSON result as its last line of standard output. The line before it is a
record of the inputs (sha256 of every file) and of the environment.

With ``--trace 0`` the result holds the end-to-end metrics, measured without
tracing. With ``--trace 1`` it holds the per-layer metrics of one traced pass
(see tracer.py) and the overhead of tracing against an untraced pass.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread (at most nproc) for this process and every child
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import fleet  # noqa: E402
import numpy as np  # noqa: E402
import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
TAU1, TAU2 = 1, 40  # lag range passed to every fitting command
SETUP_REPEATS = 3
UNIT_CALLS = 32  # single-unit infer calls per pass: 16 samples above the median
RUN_BUDGET_S = 160.0  # no pass starts that could end past this; runs stay under 180 s
REL_TOL = 1e-9
GAMMA_EARLY, GAMMA_LATE = 1.0 / 13.0, 1.0 / 10.0
ESTIMATE_HEADER = ["unit_id", "estimated_rul", "true_rul", "error", "n_candidates", "sum_similarity"]


@dataclass(frozen=True)
class Workload:
    name: str
    fleet: str  # key of fleet.SPECS
    min_passes: int  # fd001 needs two to compare report.json bytes
    unit_files: int = 0  # single-unit files; the model is trained in set-up


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fd001-benchmark", "fd001", min_passes=2),
        Workload("fd004-train-infer", "fd004", min_passes=1),
        Workload("fd004-unit-infer", "fd004", min_passes=1, unit_files=UNIT_CALLS),
    )
}


@dataclass
class Inputs:
    dir: Path
    fleet: fleet.Fleet
    files: list[Path]
    model_dir: Path | None = None
    train_run: tuple[float, float] | None = None  # (start, wall) of the set-up train


@dataclass
class Command:
    kind: str  # "benchmark", "train" or "infer"
    args: list[str]  # arguments of the subtrack CLI
    out: Path
    units: list[int]  # ids of the test units the command scores


@dataclass
class Outcome:
    command: Command
    rc: int
    wall: float  # measured seconds
    speed: float  # SpeedProbe factor for this command
    rss_mb: float
    errors: dict[int, float]  # unit id -> estimate - truth, finite estimates only
    failed: int
    problems: list[str]


class SpeedProbe:
    """Samples the machine's speed in a background thread of this process.

    Shared machines change speed by up to 1.7x, in phases of seconds. Every
    INTERVAL_S the thread runs a fixed piece of work shaped like today's two
    hot loops: curve matching (small numpy reductions called from Python,
    with a tuple and an exp per call) and text parsing (split and float, as
    in the data and curve readers). It records the CPU time the work took
    (thread time, so waiting for the CPU does not count). This process and
    its children share one CPU, so the samples see what the timed command
    sees. Each timed interval is reported at the probe's nominal speed: its
    measured seconds times NOMINAL_S over the mean sample taken during it.
    The record line keeps the raw times.
    """

    INTERVAL_S = 0.5
    NOMINAL_S = 0.01  # about the median sample on the machine of the first baseline

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end time, CPU seconds)
        rng = np.random.default_rng(0)
        self._test, self._train = rng.random(200), rng.random(240)
        self._lines = [" ".join(map(repr, row)) for row in rng.random((480, 24)).tolist()]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            t0 = time.thread_time()
            kept = []
            for lag in range(450):
                window = self._train[lag % 40 : lag % 40 + 200]
                d2 = float(np.mean((self._test - window) ** 2))
                kept.append((lag, d2, math.exp(-d2)))
            for line in self._lines:
                kept.append([float(token) for token in line.split()])
            self.samples.append((time.perf_counter(), time.thread_time() - t0))

    def close(self) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        """Scale for the interval [start, end] of perf_counter time."""
        samples = list(self.samples)
        if not samples:
            raise RuntimeError("speed probe took no sample")
        near = [c for t, c in samples if start - self.INTERVAL_S <= t <= end + self.INTERVAL_S]
        if not near:
            near = [min(samples, key=lambda s: abs(s[0] - end))[1]]
        return self.NOMINAL_S / statistics.mean(near)


# ---------------------------------------------------------------------------
# child processes


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], env: dict, log: Path, timeout: float) -> tuple[int, float, float]:
    """Run argv through launch.py: (exit code, wall s, peak RSS MB of that child)."""
    result = log.with_suffix(".rusage.json")
    launcher = [
        sys.executable, str(HERE / "launch.py"), "--log", str(log), "--result", str(result),
        "--timeout", str(timeout), "--", *argv,
    ]
    try:
        rc = subprocess.run(launcher, env=env, timeout=timeout + 10.0).returncode
    except subprocess.TimeoutExpired as exc:  # run() has killed the launcher
        raise RuntimeError(f"launcher of {argv[:4]} did not return") from exc
    if rc != 0 or not result.is_file():
        raise RuntimeError(f"launcher of {argv[:4]} exited {rc}")
    doc = json.loads(result.read_text())
    return doc["rc"], doc["wall_s"], doc["maxrss_kib"] / 1024.0


def cli_argv(cmd: Command, spans: Path | None) -> list[str]:
    if spans is None:
        return [sys.executable, "-m", "subtrack.cli", *cmd.args]
    return [sys.executable, str(HERE / "tracer.py"), "--out", str(spans), "--", *cmd.args]


# ---------------------------------------------------------------------------
# set-up


def setup(wl: Workload, seed: int, d: Path, f: fleet.Fleet, env: dict, deadline: float) -> Inputs:
    """Write the inputs in a child process, as the commands run, and for
    fd004-unit-infer train the model."""
    argv = [
        sys.executable, str(HERE / "fleet.py"), "--fleet", wl.fleet, "--seed", str(seed),
        "--out", str(d), "--unit-files", str(wl.unit_files),
    ]
    log = d.with_suffix(".log")
    rc, _, _ = spawn(argv, env, log, max(1.0, deadline - time.perf_counter()))
    if rc != 0:
        raise RuntimeError(f"writing the fleet exited {rc}:\n{log.read_text()[-2000:]}")
    inputs = Inputs(dir=d, fleet=f, files=sorted(d.glob("*.txt")))
    if not wl.unit_files:
        return inputs
    inputs.model_dir = d / "model"
    train = Command("train", train_args(d / "train.txt", inputs.model_dir), inputs.model_dir, [])
    start = time.perf_counter()
    rc, wall, _ = spawn(cli_argv(train, None), env, d / "train.log", max(1.0, deadline - start))
    if rc != 0:
        raise RuntimeError(f"set-up train exited {rc}:\n{(d / 'train.log').read_text()[-2000:]}")
    inputs.train_run = (start, wall)
    return inputs


def train_args(train: Path, out: Path) -> list[str]:
    return [
        "train", "--train", str(train), "--out", str(out),
        "--mode", "sst-lr", "--n-regimes", "6",
        "--tau1", str(TAU1), "--tau2", str(TAU2),
    ]


def pass_commands(wl: Workload, inputs: Inputs, out: Path) -> list[Command]:
    train, test, rul = (str(inputs.dir / n) for n in ("train.txt", "test.txt", "RUL.txt"))
    all_units = [u.unit_id for u in inputs.fleet.test]
    if wl.name == "fd001-benchmark":
        args = [
            "benchmark", "--train", train, "--test", test, "--rul", rul,
            "--out", str(out / "bench"), "--mode", "sst",
            "--tau1", str(TAU1), "--tau2", str(TAU2),
        ]
        return [Command("benchmark", args, out / "bench", all_units)]
    if wl.name == "fd004-train-infer":
        model = out / "model"
        infer = [
            "infer", "--model-dir", str(model), "--data", test, "--rul", rul,
            "--out", str(out / "infer"),
        ]
        return [
            Command("train", train_args(Path(train), model), model, []),
            Command("infer", infer, out / "infer", all_units),
        ]
    commands = []
    for uid in all_units[: wl.unit_files]:
        o = out / f"unit_{uid:03d}"
        args = [
            "infer", "--model-dir", str(inputs.model_dir),
            "--data", str(inputs.dir / f"unit_{uid:03d}.txt"),
            "--rul", str(inputs.dir / f"RUL_{uid:03d}.txt"), "--out", str(o),
        ]
        commands.append(Command("infer", args, o, [uid]))
    return commands


# ---------------------------------------------------------------------------
# correctness


def expected_candidates(test_len: int, train_lens: list[int]) -> int:
    """Full-overlap (train unit, lag) pairs for lags in [TAU1, TAU2]."""
    return sum(max(0, min(TAU2, n - test_len) - TAU1 + 1) for n in train_lens)


def check(cmd: Command, rc: int, inputs: Inputs) -> tuple[dict[int, float], int, list[str]]:
    """Gate one command's outputs: (errors by unit, failed units, problems)."""
    if rc != 0:
        return {}, len(cmd.units), [f"{cmd.kind} exited {rc}"]
    if not cmd.units:
        return {}, 0, []
    f = inputs.fleet
    test_len = {u.unit_id: len(u) for u in f.test}
    truth = {u.unit_id: t for u, t in zip(f.test, f.truths)}
    train_lens = [len(u) for u in f.train]
    path = cmd.out / "rul_estimates.csv"
    if not path.is_file():
        return {}, len(cmd.units), [f"{path}: missing"]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ESTIMATE_HEADER:
        return {}, len(cmd.units), [f"{path}: bad header"]
    body = [r for r in rows[1:] if r]
    if [r[0] for r in body] != [str(u) for u in cmd.units]:
        return {}, len(cmd.units), [f"{path}: not one row per unit in unit order"]
    errors: dict[int, float] = {}
    problems = []
    for row in body:
        uid = int(row[0])
        try:
            est, true_rul, n_candidates = float(row[1]), int(row[2]), int(row[4])
        except (ValueError, IndexError):
            problems.append(f"unit {uid}: malformed row {row!r}")
            continue
        if not (math.isfinite(est) and est >= 0.0):
            problems.append(f"unit {uid}: estimate {row[1]!r}")
            continue
        want = expected_candidates(test_len[uid], train_lens)
        if n_candidates != want:
            problems.append(f"unit {uid}: n_candidates {n_candidates}, expected {want}")
        if true_rul != truth[uid]:
            problems.append(f"unit {uid}: true_rul {true_rul}, expected {truth[uid]}")
        errors[uid] = est - truth[uid]
    return errors, len(cmd.units) - len(errors), problems


def rmse(errors: list[float]) -> float:
    return math.sqrt(math.fsum(e * e for e in errors) / len(errors))


def score(errors: list[float]) -> float:
    return math.fsum(
        math.exp((GAMMA_EARLY if e < 0 else GAMMA_LATE) * abs(e)) - 1.0 for e in errors
    )


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def check_report(outcome: Outcome, first_report: bytes | None) -> tuple[bytes | None, list[str]]:
    """report.json must agree with the recomputed rmse/score and repeat byte
    for byte across passes of one seed."""
    path = outcome.command.out / "report.json"
    if outcome.rc != 0 or not path.is_file():
        return first_report, []
    raw = path.read_bytes()
    doc = json.loads(raw)
    errs = list(outcome.errors.values())
    problems = []
    if len(errs) != doc["n_units"]:
        problems.append(f"report.json n_units {doc['n_units']}, {len(errs)} estimates")
    elif not (close(doc["rmse"], rmse(errs)) and close(doc["score"], score(errs))):
        problems.append(
            f"report.json rmse/score {doc['rmse']}/{doc['score']} "
            f"!= recomputed {rmse(errs)}/{score(errs)}"
        )
    if first_report is not None and raw != first_report:
        problems.append("report.json differs between passes of one seed")
    return first_report if first_report is not None else raw, problems


# ---------------------------------------------------------------------------
# runs


def run_command(cmd: Command, log: Path, inputs, env, deadline, spans=None, probe=None):
    """Run one CLI command and gate its outputs; with `spans`, run it traced."""
    start = time.perf_counter()
    rc, wall, rss = spawn(cli_argv(cmd, spans), env, log, max(1.0, deadline - start))
    speed = probe.factor(start, start + wall) if probe is not None else 1.0
    if rc != 0:
        tail = log.read_text(errors="replace")[-2000:]
        print(f"subtrack {cmd.kind} exited {rc}:\n{tail}", file=sys.stderr)
    errors, failed, problems = check(cmd, rc, inputs)
    doc = json.loads(spans.read_text()) if spans is not None and rc == 0 else None
    return Outcome(cmd, rc, wall, speed, rss, errors, failed, problems), doc


def run_pass(wl, inputs, out, env, deadline, probe: SpeedProbe) -> list[Outcome]:
    out.mkdir(parents=True)
    return [
        run_command(cmd, out / f"cmd_{i}.log", inputs, env, deadline, probe=probe)[0]
        for i, cmd in enumerate(pass_commands(wl, inputs, out))
    ]


def run_traced_pass(wl, inputs, out, env, deadline):
    """One untraced and one traced pass, alternating command by command so
    that drift in machine speed falls on both alike."""
    plain_dir, traced_dir = out / "untraced", out / "traced"
    plain_dir.mkdir(parents=True)
    traced_dir.mkdir(parents=True)
    plain, traced, docs = [], [], []
    pairs = zip(pass_commands(wl, inputs, plain_dir), pass_commands(wl, inputs, traced_dir))
    for i, (p_cmd, t_cmd) in enumerate(pairs):
        plain.append(run_command(p_cmd, plain_dir / f"cmd_{i}.log", inputs, env, deadline)[0])
        outcome, doc = run_command(
            t_cmd, traced_dir / f"cmd_{i}.log", inputs, env, deadline, traced_dir / f"spans_{i}.json"
        )
        traced.append(outcome)
        if doc is not None:
            docs.append(doc)
    return plain, traced, docs


def end_to_end(setups: list[float], setup_trains: list[float], passes, scaled: bool):
    """End-to-end metrics; with `scaled`, times are at the probe's nominal speed.

    `setups` and `setup_trains` hold (measured seconds, probe factor) pairs.
    """
    def t(wall, speed):
        return wall * speed if scaled else wall

    outcomes = [o for p in passes for o in p]
    fitting = [t(o.wall, o.speed) for o in outcomes if o.command.kind in ("train", "benchmark")]
    scoring = [
        sum(t(o.wall, o.speed) for o in p if o.command.kind in ("infer", "benchmark"))
        for p in passes
    ]
    errs = [e for o in passes[0] for e in o.errors.values()]
    if not errs:
        raise RuntimeError("no unit got an estimate")
    return {
        "wall_s": statistics.median(sum(t(o.wall, o.speed) for o in p) for p in passes),
        "setup_s": statistics.median(t(*s) for s in setups),
        # fd004-unit-infer fits its model in set-up
        "train_s": statistics.median(fitting or [t(*s) for s in setup_trains]),
        "infer_s": statistics.median(scoring),
        "call_p50_s": statistics.median(t(o.wall, o.speed) for o in outcomes),
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
        "rmse": rmse(errs),
        "score": score(errs),
    }


def import_seconds(env: dict, work: Path, deadline: float, repeats: int = 3) -> float:
    """Median over fresh interpreters of the time to import subtrack.cli."""
    code = (
        "import time; t = time.perf_counter(); import subtrack.cli; "
        "print(time.perf_counter() - t)"
    )
    times = []
    for i in range(repeats):
        log = work / f"import_{i}.log"
        rc, _, _ = spawn([sys.executable, "-c", code], env, log, max(1.0, deadline - time.perf_counter()))
        if rc != 0:
            raise RuntimeError(f"importing subtrack.cli failed:\n{log.read_text()[-2000:]}")
        times.append(float(log.read_text().split()[-1]))
    return statistics.median(times)


def benchmark(args, root: Path, work: Path) -> tuple[dict, dict]:
    deadline = time.perf_counter() + RUN_BUDGET_S
    wl = WORKLOADS[args.workload]
    env = child_env(root)
    work.mkdir(parents=True)
    # compile bytecode and warm the file cache before anything is timed
    import_seconds(env, work, deadline, repeats=1)

    probe = SpeedProbe()
    try:
        return measure(args, wl, env, work, deadline, probe)
    finally:
        probe.close()


def measure(args, wl: Workload, env: dict, work: Path, deadline: float, probe: SpeedProbe):
    # the same fleet in memory, for the correctness gate
    f = fleet.generate(fleet.SPECS[wl.fleet], args.seed)
    setups, setup_trains, hashes = [], [], None
    for i in range(1 if args.trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = setup(wl, args.seed, work / f"setup_{i}", f, env, deadline)
        wall = time.perf_counter() - t0
        speed = probe.factor(t0, t0 + wall)
        setups.append((wall, speed))
        if inputs.train_run is not None:
            t, w = inputs.train_run
            setup_trains.append((w, probe.factor(t, t + w)))
        digest = {p.name: fleet.sha256(p) for p in inputs.files}
        if hashes is not None and digest != hashes:
            raise RuntimeError("set-up is not deterministic for one seed")
        hashes = digest

    passes, problems, first_report = [], [], None

    def gate(outcomes):
        nonlocal first_report
        passes.append(outcomes)
        for o in outcomes:
            problems.extend(o.problems)
            if o.command.kind == "benchmark":
                first_report, extra = check_report(o, first_report)
                problems.extend(extra)

    docs: list[dict] = []
    if args.trace:
        untraced, traced, docs = run_traced_pass(wl, inputs, work / "trace", env, deadline)
        gate(untraced)
        gate(traced)
        metrics = tracer.layer_metrics(
            docs,
            [o.wall for o in traced],
            [o.wall for o in untraced],
            import_seconds(env, work, deadline),
        )
        units = {name: unit for name, (unit, _) in tracer.LAYER_METRICS.items()}
    else:
        loop_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            out = work / f"pass_{len(passes)}"
            gate(run_pass(wl, inputs, out, env, deadline, probe))
            shutil.rmtree(out)
            now = time.perf_counter()
            if len(passes) >= wl.min_passes and (
                now - loop_start >= args.seconds or now + (now - t0) > deadline
            ):
                break
        raw = end_to_end(setups, setup_trains, passes, scaled=False)
        metrics = end_to_end(setups, setup_trains, passes, scaled=True)
        units = {name: unit for name, unit, _, _ in END_TO_END}

    failed = sum(o.failed for p in passes for o in p)
    result = {
        "correct": not problems and failed == 0,
        "attempted": sum(len(o.command.units) for p in passes for o in p),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "commands": sum(len(p) for p in passes),
        "nproc": os.cpu_count(),
        "threads": {
            v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "cpus": sorted(os.sched_getaffinity(0)),
        "inputs_sha256": hashes,
        "probe_s": statistics.median(c for _, c in probe.samples) if probe.samples else None,
        "raw_metrics": None if args.trace else raw,
        "problems": problems[:20],
        "trace_hook_errors": sum(d["hook_errors"] for d in docs) if args.trace else None,
    }
    return record, result


# (name, unit, better, bound); the order is the order of BENCHMARK.json
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("train_s", "s", "lower", 0.25),
    ("infer_s", "s", "lower", 0.25),
    ("call_p50_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("rmse", "cycles", "lower", 0.05),
    ("score", "1", "lower", 0.25),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "subtrack" / "cli.py").is_file():
        print(f"error: {root} holds no src/subtrack to benchmark", file=sys.stderr)
        return 2
    # one CPU for this process, the probe and every child: the probe then
    # sees the same neighbours as the commands it calibrates
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        record, result = benchmark(args, root, work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
